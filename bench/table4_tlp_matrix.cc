/**
 * @file
 * Table IV: the per-app joint distribution of active big x little
 * core counts per 10 ms window, for all twelve apps.
 *
 * Expected shape (Section V-B): mass concentrated in the big=0 row
 * for most apps; when big cores are used at all, one big core
 * dominates (a single big core absorbs the burst); bbench is the
 * only app with weight spread into the 2-3 big rows.
 */

#include "core/report.hh"
#include "paper.hh"

using namespace biglittle;

void
table4TlpMatrix(RunTable &runs, CsvWriter *csv)
{
    if (csv) {
        csv->header({"app", "big_cores", "little0", "little1",
                     "little2", "little3", "little4"});
    }

    const auto results = runs.get("baseline", allApps());
    for (const AppRunResult &r : results) {
        printTlpMatrix(r, csv);
        std::puts("");
    }
}
