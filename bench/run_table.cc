/**
 * @file
 * RunTable: the run flags, the one runApps() that every bench_paper
 * run goes through, the per-run race gate, and the record of every
 * cell that bench/golden/run_table.txt pins.
 */

#include <cstdio>
#include <cstdlib>
#include <limits>

#include "base/exit_codes.hh"
#include "base/logging.hh"
#include "paper.hh"

namespace biglittle
{

namespace
{

/** The config of a named paper condition; panics on any other name. */
ExperimentConfig
paperCondition(const std::string &name)
{
    if (name == "baseline")
        return baselineConfig();
    if (name == "4-little")
        return littleOnlyConfig();
    if (name == "4-big")
        return bigOnlyConfig();
    for (const CoreConfig &cc : standardCoreConfigs()) {
        if (cc.label == name) {
            ExperimentConfig cfg;
            cfg.coreConfig = cc;
            cfg.label = cc.label;
            return cfg;
        }
    }
    for (const SweepPoint &point : parameterSweep()) {
        if (point.label == name)
            return point.config;
    }
    panic("run table: '%s' is not a paper condition", name.c_str());
}

/**
 * One run's headline metrics (%.17g) and per-section state digests,
 * in the format of perfbench/reference/paper_suite.txt's `run ` lines.
 */
std::string
recordLine(const AppRunResult &r)
{
    std::string line = format(
        "%s|%s|perf=%.17g|min_fps=%.17g|power_mw=%.17g|sim_ticks=%llu",
        r.configLabel.c_str(), r.app.c_str(), r.performanceValue(),
        r.minFps, r.avgPowerMw,
        static_cast<unsigned long long>(r.simulatedTime));
    for (const auto &[name, digest] : r.stateDigests) {
        line += format("|%s=%016llx", name.c_str(),
                       static_cast<unsigned long long>(digest));
    }
    return line;
}

/** Integer option @p name, or exit 2 unless it is in [0, @p max]. */
std::uint64_t
boundedOption(const ArgParser &args, const char *name, std::uint64_t max)
{
    const std::int64_t value = args.getInt(name);
    if (value < 0 || static_cast<std::uint64_t>(value) > max) {
        std::fprintf(stderr, "bench_paper: --%s must be in [0, %llu]\n",
                     name, static_cast<unsigned long long>(max));
        std::exit(exitUsage);
    }
    return static_cast<std::uint64_t>(value);
}

/**
 * Exit through the taxonomy when an unsupervised run failed.  The
 * only failure Experiment reports (rather than dies on) for
 * unsupervised runs is resume divergence; a bench that ignored it
 * would print partial metrics for a run that is not the one the
 * checkpoint belongs to.  Supervised callers (the Supervisor, abrun)
 * consume `failed` themselves and never go through here.
 */
void
exitIfRunFailed(const AppRunResult &r)
{
    if (!r.failed)
        return;
    std::fprintf(stderr,
                 "[%s] %s: run failed (%s): %s\n",
                 r.configLabel.c_str(), r.app.c_str(),
                 recoveryTriggerName(r.failureTrigger),
                 r.failureDetail.c_str());
    std::exit(exitFatal);
}

/** One stderr line of checkpoint overhead, when any were written. */
void
reportCheckpointOverhead(const AppRunResult &r)
{
    if (r.checkpoints.count == 0)
        return;
    std::fprintf(stderr,
                 "  [%s] %s: %llu checkpoints, %llu bytes, %.2f ms "
                 "write time (last: %s)\n",
                 r.configLabel.c_str(), r.app.c_str(),
                 static_cast<unsigned long long>(r.checkpoints.count),
                 static_cast<unsigned long long>(r.checkpoints.bytes),
                 r.checkpoints.writeMs,
                 r.checkpoints.lastPath.c_str());
}

} // namespace

void
RunTable::addOptions(ArgParser &args)
{
    args.addInt("checkpoint-every", 0,
                "write a checkpoint every N simulated ms (0 = off)");
    args.addString("checkpoint-dir", ".",
                   "directory for periodic checkpoints");
    args.addString("resume", "",
                   "resume (with state verification) the run this "
                   "checkpoint file belongs to");
    args.addInt("seed", 0,
                "master seed for named random streams (0 = the "
                "legacy per-spec seeds)");
    args.addFlag("race-detect",
                 "attach the abrace same-tick race detector; "
                 "conflicts print TSan-style and fail the bench");
    args.addFlag("permute-ties",
                 "rerun every run under lifo and seeded-shuffle "
                 "tie-breaks and byte-compare end-state digests "
                 "(implies --race-detect)");
}

RunTable::RunTable(const ArgParser &args)
    : checkpointEvery(msToTicks(
          boundedOption(args, "checkpoint-every", maxTick / oneMs))),
      checkpointDir(args.getString("checkpoint-dir")),
      resumePath(args.getString("resume")),
      masterSeed(boundedOption(
          args, "seed", std::numeric_limits<std::int64_t>::max())),
      detect(args.getFlag("race-detect") ||
             args.getFlag("permute-ties")),
      permute(args.getFlag("permute-ties"))
{
    if (resumePath.empty())
        return;
    Result<Checkpoint> loaded = loadCheckpointWithFallback(resumePath);
    if (!loaded.ok()) {
        warn("--resume: %s; running every app from scratch",
             loaded.status().message().c_str());
        return;
    }
    resume = std::move(loaded.value());
}

std::vector<AppRunResult>
RunTable::get(const std::string &condition,
              const std::vector<AppSpec> &apps)
{
    std::vector<AppSpec> missing;
    for (const AppSpec &app : apps) {
        if (cells.count({condition, app.name}) == 0)
            missing.push_back(app);
    }
    std::vector<AppRunResult> ran =
        runApps(paperCondition(condition), missing);
    for (std::size_t i = 0; i < missing.size(); ++i)
        cells.emplace(std::make_pair(condition, missing[i].name),
                      std::move(ran[i]));

    std::vector<AppRunResult> results;
    for (const AppSpec &app : apps)
        results.push_back(cells.at({condition, app.name}));
    return results;
}

void
RunTable::printCells() const
{
    for (const auto &cell : cells)
        std::printf("%s\n", recordLine(cell.second).c_str());
}

std::vector<AppRunResult>
RunTable::runApps(const ExperimentConfig &cfg,
                  const std::vector<AppSpec> &apps)
{
    std::vector<AppRunResult> results;
    for (const AppSpec &app : apps) {
        ExperimentConfig run_cfg = cfg;
        run_cfg.snapshot.checkpointEvery = checkpointEvery;
        run_cfg.snapshot.checkpointDir = checkpointDir;
        run_cfg.masterSeed = masterSeed;
        run_cfg.race.detect = detect;
        // A checkpoint belongs to exactly one (app, config) run.  Any
        // other run would fail runApp's identity check, warn, and
        // start fresh, so only the one it names resumes.
        if (resume && resume->app == app.name &&
            resume->label == cfg.label)
            run_cfg.snapshot.resumePath = resumePath;

        std::fprintf(stderr, "  [%s] running %s...\n",
                     cfg.label.c_str(), app.name.c_str());
        Experiment experiment(run_cfg);
        results.push_back(experiment.runApp(app));
        const AppRunResult &r = results.back();
        exitIfRunFailed(r);
        if (r.resumedFrom > 0) {
            std::fprintf(stderr,
                         "  [%s] %s: resumed at tick %llu, state "
                         "verified\n",
                         cfg.label.c_str(), app.name.c_str(),
                         static_cast<unsigned long long>(
                             r.resumedFrom));
        }
        reportCheckpointOverhead(r);
        gate(run_cfg, app, r);
    }
    return results;
}

void
RunTable::gate(const ExperimentConfig &cfg, const AppSpec &app,
               const AppRunResult &fifo)
{
    if (fifo.raceConflicts > 0) {
        ++failed;
        std::fprintf(stderr, "%s", fifo.raceReport.c_str());
    }
    if (!permute)
        return;
    // Rerun with lifo and seeded-shuffle tie-breaks and compare
    // end-state digests with the fifo run.  The reruns leave the
    // detector off (it does not change the digests, and the fifo run
    // has already reported conflicts), and they neither resume nor
    // write checkpoints, which would replace the fifo run's files.
    for (const TieBreak mode : {TieBreak::lifo, TieBreak::shuffle}) {
        ExperimentConfig rerun_cfg = cfg;
        rerun_cfg.race.detect = false;
        rerun_cfg.race.tieBreak = mode;
        rerun_cfg.snapshot.checkpointEvery = 0;
        rerun_cfg.snapshot.resumePath.clear();
        Experiment experiment(rerun_cfg);
        const AppRunResult rerun = experiment.runApp(app);
        const Status st = compareStateDigests(fifo, rerun);
        const char *name = mode == TieBreak::lifo ? "lifo" : "shuffle";
        if (!st.ok()) {
            ++failed;
            std::fprintf(stderr,
                         "  [%s] %s: %s tie-break DIVERGED: %s\n",
                         cfg.label.c_str(), app.name.c_str(), name,
                         st.message().c_str());
        } else {
            std::fprintf(stderr,
                         "  [%s] %s: %s tie-break digests match\n",
                         cfg.label.c_str(), app.name.c_str(), name);
        }
    }
}

} // namespace biglittle
