/**
 * @file
 * Fig. 10: big-cluster frequency residency per app (share of
 * core-active time at each OPP; idle time excluded).
 *
 * Expected shape (Section VI-A): latency workloads that use big
 * cores to absorb bursts (encoder, virus_scanner, photo_editor) run
 * them at high frequencies; games/browsing/video use big cores
 * mostly at low frequencies for occasional overflow load.
 */

#include "core/report.hh"
#include "paper.hh"

using namespace biglittle;

void
fig10BigFreqDist(RunTable &runs, CsvWriter *csv)
{

    const auto results = runs.get("baseline", allApps());
    printFreqResidencyTable(results, /*big=*/true, csv);
}
