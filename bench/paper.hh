/**
 * @file
 * bench_paper's shared pieces: the run table that every figure,
 * table and ablation takes its app runs from, and the artifact
 * functions that bench_paper.cc calls by id.  Every artifact file
 * includes this header for what they all use.
 */

#ifndef BIGLITTLE_BENCH_PAPER_HH
#define BIGLITTLE_BENCH_PAPER_HH

#include <cstddef>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/argparse.hh"
#include "base/csv.hh"
#include "base/strutil.hh"
#include "bench_util.hh"
#include "core/experiment.hh"
#include "snapshot/checkpoint.hh"
#include "workload/apps.hh"

namespace biglittle
{

/**
 * The paper's experiment matrix as a table of (named condition, app)
 * -> AppRunResult.  The conditions are "baseline", "4-little",
 * "4-big", the labels of the seven standardCoreConfigs() and of the
 * eight parameterSweep() points.  Each cell is simulated at most once
 * per process, so artifacts share a run only through a condition
 * name, never because two configs happen to share a label.
 *
 * Every run, cached or not, goes through runApps(), which applies the
 * run flags and gates the run once: an abrace conflict
 * (--race-detect) or a tie-break divergence (--permute-ties) counts
 * as a failure.
 *
 * printCells() records every cell: `bench_paper --out-dir` writes it
 * to run_table.txt, and bench/golden/run_table.txt pins the section
 * digests of all 216 cells at seed 0.  The paper-suite golden test
 * checks that each `run ` line of perfbench/reference/paper_suite.txt
 * is one of those lines, so that reference is never simulated in
 * tier-1.
 */
class RunTable
{
  public:
    /** Declare the run flags on @p args. */
    static void addOptions(ArgParser &args);

    /** Read the run flags and load the --resume checkpoint, if any. */
    explicit RunTable(const ArgParser &args);

    /** @p apps (Table II specs) under the named paper condition. */
    std::vector<AppRunResult> get(const std::string &condition,
                                  const std::vector<AppSpec> &apps);

    /**
     * Run @p apps under @p cfg now, with progress lines on stderr;
     * the table keeps nothing.  Artifacts call it directly for
     * configs that only they use.
     */
    std::vector<AppRunResult> runApps(const ExperimentConfig &cfg,
                                      const std::vector<AppSpec> &apps);

    /**
     * Print one line per cell simulated so far, in (condition, app)
     * order: the config label, app, headline metrics and section
     * digests, as perfbench/reference/paper_suite.txt writes a run.
     */
    void printCells() const;

    /** Runs that failed their gate so far. */
    std::size_t failures() const { return failed; }

  private:
    void gate(const ExperimentConfig &cfg, const AppSpec &app,
              const AppRunResult &fifo);

    Tick checkpointEvery;
    std::string checkpointDir;
    std::string resumePath;
    std::uint64_t masterSeed;
    bool detect;
    bool permute;

    /** The --resume checkpoint; it names the one run it resumes. */
    std::optional<Checkpoint> resume;

    std::map<std::pair<std::string, std::string>, AppRunResult> cells;
    std::size_t failed = 0;
};

/** Percentage change of @p now vs @p base (positive = increase). */
inline double
pctChange(double now, double base)
{
    return base != 0.0 ? 100.0 * (now - base) / base : 0.0;
}

} // namespace biglittle

using biglittle::CsvWriter;
using biglittle::RunTable;

/**
 * One figure, table or ablation: prints to stdout and mirrors its
 * rows into @p csv when that is not null.
 */
using ArtifactFn = void (*)(RunTable &runs, CsvWriter *csv);

void fig02SpecSpeedup(RunTable &runs, CsvWriter *csv);
void fig03SpecPower(RunTable &runs, CsvWriter *csv);
void fig04LatencyApps(RunTable &runs, CsvWriter *csv);
void fig05FpsApps(RunTable &runs, CsvWriter *csv);
void fig06UtilPower(RunTable &runs, CsvWriter *csv);
void fig07CoreConfigsPerf(RunTable &runs, CsvWriter *csv);
void fig08CoreConfigsPower(RunTable &runs, CsvWriter *csv);
void fig09LittleFreqDist(RunTable &runs, CsvWriter *csv);
void fig10BigFreqDist(RunTable &runs, CsvWriter *csv);
void fig11ParamPower(RunTable &runs, CsvWriter *csv);
void fig12ParamLatency(RunTable &runs, CsvWriter *csv);
void fig13ParamFps(RunTable &runs, CsvWriter *csv);
void table3Tlp(RunTable &runs, CsvWriter *csv);
void table4TlpMatrix(RunTable &runs, CsvWriter *csv);
void table5Efficiency(RunTable &runs, CsvWriter *csv);
void governorComparison(RunTable &runs, CsvWriter *csv);
void ablCacheAsymmetry(RunTable &runs, CsvWriter *csv);
void ablClusterMigration(RunTable &runs, CsvWriter *csv);
void ablCpuidle(RunTable &runs, CsvWriter *csv);
void ablFaultResilience(RunTable &runs, CsvWriter *csv);
void ablMigrationBoost(RunTable &runs, CsvWriter *csv);
void ablRecovery(RunTable &runs, CsvWriter *csv);
void ablThermal(RunTable &runs, CsvWriter *csv);
void ablTinyOpp(RunTable &runs, CsvWriter *csv);

#endif // BIGLITTLE_BENCH_PAPER_HH
