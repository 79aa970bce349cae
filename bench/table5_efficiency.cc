/**
 * @file
 * Table V: efficiency decomposition of the scheduler+governor - the
 * share of 10 ms execution windows in the {min, <50%, 50-70%,
 * 70-95%, >95%, full} utilization categories per app.
 *
 * Expected shape (Section VI-B): min and <50% dominate for most apps
 * (the governor keeps a conservative margin, and many loads need
 * less than a little core at 500 MHz); bursty bbench/encoder show
 * large >95% shares, and encoder/virus_scanner a few percent of
 * full.
 */

#include "core/report.hh"
#include "paper.hh"

using namespace biglittle;

void
table5Efficiency(RunTable &runs, CsvWriter *csv)
{

    const auto results = runs.get("baseline", allApps());
    printEfficiencyTable(results, csv);
}
