/**
 * @file
 * Table III: thread-level parallelism with all 8 cores - idle %,
 * little-only % and big-active % of active windows, and the Blake
 * TLP metric, for the twelve Table II apps under the default system.
 *
 * Expected shape (Section V-A): TLP below 3 for everything except
 * bbench (~4); big-core involvement is low for most apps but high
 * (tens of percent) for bbench, encoder, virus_scanner and
 * eternity_warrior2.
 */

#include "core/report.hh"
#include "paper.hh"

using namespace biglittle;

void
table3Tlp(RunTable &runs, CsvWriter *csv)
{

    const auto results = runs.get("baseline", allApps());
    printTlpTable(results, csv);
}
