/**
 * @file
 * Shared helpers for the figure/table regeneration benches: the
 * standard experimental conditions of the paper (4-big vs 4-little,
 * the Figs. 7/8 core combinations, the Section VI-C parameter sweep)
 * and small run-all helpers with progress output.
 */

#ifndef BIGLITTLE_BENCH_BENCH_UTIL_HH
#define BIGLITTLE_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/argparse.hh"
#include "base/csv.hh"
#include "base/exit_codes.hh"
#include "base/logging.hh"
#include "core/experiment.hh"
#include "snapshot/checkpoint.hh"
#include "workload/apps.hh"

namespace biglittle
{

/** Default system: all 8 cores, HMP + interactive, Table II setup. */
inline ExperimentConfig
baselineConfig()
{
    ExperimentConfig cfg;
    cfg.label = "baseline";
    return cfg;
}

/** Fig. 4/5 "4 little cores" condition. */
inline ExperimentConfig
littleOnlyConfig()
{
    ExperimentConfig cfg;
    cfg.coreConfig = {4, 0, "L4"};
    cfg.label = "4-little";
    return cfg;
}

/**
 * Fig. 4/5 "4 big cores" condition.  The boot little core must stay
 * online, so the scheduler is biased to lift every runnable task to
 * the big cluster immediately (up-threshold 1, down-threshold 0).
 */
inline ExperimentConfig
bigOnlyConfig()
{
    ExperimentConfig cfg;
    cfg.coreConfig = {1, 4, "B4"};
    cfg.sched.upThreshold = 1;
    cfg.sched.downThreshold = 0;
    // Placement is static here, so the migration boost would only
    // spam hispeed requests; let the governor pick frequencies as
    // it does on the real platform.
    cfg.sched.upMigrationBoostFreq = 0;
    cfg.sched.name = "force-big";
    cfg.label = "4-big";
    return cfg;
}

/** One Section VI-C sweep point. */
struct SweepPoint
{
    std::string label;
    ExperimentConfig config;
};

/** The 8 governor/HMP configurations of Figs. 11-13 (no baseline). */
inline std::vector<SweepPoint>
parameterSweep()
{
    std::vector<SweepPoint> sweep;
    auto add = [&sweep](const std::string &label,
                        const ExperimentConfig &cfg) {
        sweep.push_back({label, cfg});
        sweep.back().config.label = label;
    };

    ExperimentConfig cfg;
    cfg.interactive = interval60Params();
    add("interval-60ms", cfg);

    cfg = ExperimentConfig{};
    cfg.interactive = interval100Params();
    add("interval-100ms", cfg);

    cfg = ExperimentConfig{};
    cfg.interactive = highTargetLoadParams();
    add("target-load-80", cfg);

    cfg = ExperimentConfig{};
    cfg.interactive = lowTargetLoadParams();
    add("target-load-60", cfg);

    cfg = ExperimentConfig{};
    cfg.sched = conservativeSchedParams();
    add("hmp-conservative", cfg);

    cfg = ExperimentConfig{};
    cfg.sched = aggressiveSchedParams();
    add("hmp-aggressive", cfg);

    cfg = ExperimentConfig{};
    cfg.sched = doubleHistorySchedParams();
    add("hmp-2x-history", cfg);

    cfg = ExperimentConfig{};
    cfg.sched = halfHistorySchedParams();
    add("hmp-half-history", cfg);

    return sweep;
}

/** Declare the shared determinism/recovery options on @p args. */
inline void
addSnapshotOptions(ArgParser &args)
{
    args.addInt("checkpoint-every", 0,
                "write a checkpoint every N simulated ms (0 = off)");
    args.addString("checkpoint-dir", ".",
                   "directory for periodic checkpoints");
    args.addString("resume", "",
                   "resume (with state verification) from this "
                   "checkpoint file");
    args.addInt("seed", 0,
                "master seed for named random streams (0 = the "
                "legacy per-spec seeds)");
}

/** Apply the addSnapshotOptions() values onto @p cfg. */
inline void
applySnapshotOptions(const ArgParser &args, ExperimentConfig &cfg)
{
    cfg.snapshot.checkpointEvery = msToTicks(
        static_cast<std::uint64_t>(args.getInt("checkpoint-every")));
    cfg.snapshot.checkpointDir = args.getString("checkpoint-dir");
    cfg.snapshot.resumePath = args.getString("resume");
    cfg.masterSeed =
        static_cast<std::uint64_t>(args.getInt("seed"));
}

/** Declare the abrace determinism options on @p args. */
inline void
addRaceOptions(ArgParser &args)
{
    args.addFlag("race-detect",
                 "attach the abrace same-tick race detector; "
                 "conflicts print TSan-style and fail the bench");
    args.addFlag("permute-ties",
                 "rerun every condition under lifo and seeded-shuffle "
                 "tie-breaks and byte-compare end-state digests "
                 "(implies --race-detect)");
    args.addString("race-baseline", "",
                   "abrace suppression baseline, e.g. "
                   "tools/abrace/baseline.txt");
}

/** Apply the addRaceOptions() values onto @p cfg. */
inline void
applyRaceOptions(const ArgParser &args, ExperimentConfig &cfg)
{
    cfg.race.detect =
        args.getFlag("race-detect") || args.getFlag("permute-ties");
    cfg.race.baselinePath = args.getString("race-baseline");
}

/**
 * Per-bench --race-detect / --permute-ties verdict.  After each
 * runApps() batch, check() reports abrace conflicts and (under
 * --permute-ties) reruns every app with lifo and seeded-shuffle
 * tie-breaks, byte-comparing end-state digests against the fifo run.
 * The reruns leave the detector off: it does not change the digests,
 * and the fifo run has already reported conflicts.
 * exitCode() turns any failure into a nonzero bench exit.
 */
class RaceGate
{
  public:
    explicit RaceGate(const ArgParser &args)
        : detect(args.getFlag("race-detect") ||
                 args.getFlag("permute-ties")),
          permute(args.getFlag("permute-ties"))
    {
    }

    void
    check(const ExperimentConfig &cfg,
          const std::vector<AppSpec> &apps,
          const std::vector<AppRunResult> &results)
    {
        if (!detect)
            return;
        BL_ASSERT(apps.size() == results.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            const AppRunResult &r = results[i];
            if (r.raceConflicts > 0) {
                ++failures;
                std::fprintf(stderr, "%s", r.raceReport.c_str());
            }
            if (permute)
                checkPermuted(cfg, apps[i], r);
        }
    }

    int exitCode() const { return failures == 0 ? 0 : 1; }

  private:
    void
    checkPermuted(const ExperimentConfig &cfg, const AppSpec &app,
                  const AppRunResult &fifo)
    {
        for (const TieBreak mode :
             {TieBreak::lifo, TieBreak::shuffle}) {
            ExperimentConfig rerun_cfg = cfg;
            rerun_cfg.race.detect = false;
            rerun_cfg.race.tieBreak = mode;
            Experiment experiment(rerun_cfg);
            const AppRunResult rerun = experiment.runApp(app);
            const Status st = compareStateDigests(fifo, rerun);
            const char *name =
                mode == TieBreak::lifo ? "lifo" : "shuffle";
            if (!st.ok()) {
                ++failures;
                std::fprintf(stderr,
                             "  [%s] %s: %s tie-break DIVERGED: %s\n",
                             cfg.label.c_str(), app.name.c_str(),
                             name, st.message().c_str());
            } else {
                std::fprintf(stderr,
                             "  [%s] %s: %s tie-break digests match\n",
                             cfg.label.c_str(), app.name.c_str(),
                             name);
            }
        }
    }

    bool detect;
    bool permute;
    std::size_t failures = 0;
};

/**
 * Open the --csv output when requested.  Returns nullptr when the
 * option is unset; prints the open error and exits with exitBadFile
 * (3) when the path cannot be created - the documented bench exit
 * code for file problems, distinct from usage errors (2).
 */
inline std::unique_ptr<CsvWriter>
openCsvOrExit(const ArgParser &args)
{
    if (args.getString("csv").empty())
        return nullptr;
    auto csv = std::make_unique<CsvWriter>();
    const Status opened = csv->open(args.getString("csv"));
    if (!opened.ok()) {
        std::fprintf(stderr, "%s\n", opened.message().c_str());
        std::exit(exitBadFile);
    }
    return csv;
}

/**
 * Exit through the taxonomy when an unsupervised run failed.  The
 * only failure Experiment reports (rather than dies on) for
 * unsupervised runs is resume divergence; a bench that ignored it
 * would print partial metrics for a run that is not the one the
 * checkpoint belongs to.  Supervised callers (the Supervisor, abrun)
 * consume `failed` themselves and never go through here.
 */
inline void
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
inline void
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

/**
 * Run @p apps under @p cfg, with progress lines on stderr, and one
 * more for each run that resumed from a verified checkpoint.
 */
inline std::vector<AppRunResult>
runApps(const ExperimentConfig &cfg, const std::vector<AppSpec> &apps)
{
    // A checkpoint belongs to exactly one (app, config) run; on a
    // multi-app bench, resume only the run it matches.  Every other
    // app would fail runApp's identity check, warn, and start fresh.
    std::optional<Checkpoint> resume;
    if (!cfg.snapshot.resumePath.empty()) {
        Result<Checkpoint> loaded =
            loadCheckpointWithFallback(cfg.snapshot.resumePath);
        if (!loaded.ok()) {
            warn("--resume: %s; running every app from scratch",
                 loaded.status().message().c_str());
        } else {
            resume = std::move(loaded.value());
        }
    }

    std::vector<AppRunResult> results;
    for (const AppSpec &app : apps) {
        ExperimentConfig run_cfg = cfg;
        if (!resume || resume->app != app.name ||
            resume->label != cfg.label) {
            run_cfg.snapshot.resumePath.clear();
        }
        std::fprintf(stderr, "  [%s] running %s...\n",
                     cfg.label.c_str(), app.name.c_str());
        Experiment experiment(run_cfg);
        results.push_back(experiment.runApp(app));
        exitIfRunFailed(results.back());
        if (results.back().resumedFrom > 0) {
            std::fprintf(stderr,
                         "  [%s] %s: resumed at tick %llu, state "
                         "verified\n",
                         cfg.label.c_str(), app.name.c_str(),
                         static_cast<unsigned long long>(
                             results.back().resumedFrom));
        }
        reportCheckpointOverhead(results.back());
    }
    return results;
}

/** Percentage change of @p now vs @p base (positive = increase). */
inline double
pctChange(double now, double base)
{
    return base != 0.0 ? 100.0 * (now - base) / base : 0.0;
}

} // namespace biglittle

#endif // BIGLITTLE_BENCH_BENCH_UTIL_HH
