/**
 * @file
 * Fig. 9: little-cluster frequency residency per app (share of
 * core-active time at each OPP; idle time excluded).
 *
 * Expected shape (Section VI-A): diverse distributions - the video
 * apps sit at the lowest frequency, games with fluctuating load
 * spread across the range.
 */

#include "core/report.hh"
#include "paper.hh"

using namespace biglittle;

void
fig09LittleFreqDist(RunTable &runs, CsvWriter *csv)
{
    const auto results = runs.get("baseline", allApps());
    printFreqResidencyTable(results, /*big=*/false, csv);
}
