/**
 * @file
 * The standard experimental conditions of the paper (the default
 * system, 4-big vs 4-little, the Section VI-C parameter sweep), shared
 * by bench_paper's run table and perfbench.
 */

#ifndef BIGLITTLE_BENCH_BENCH_UTIL_HH
#define BIGLITTLE_BENCH_BENCH_UTIL_HH

#include <string>
#include <vector>

#include "core/experiment.hh"

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

/** The 8 governor/HMP configurations of Figs. 11-13 (no baseline),
 *  built once. */
inline const std::vector<SweepPoint> &
parameterSweep()
{
    static const std::vector<SweepPoint> points = [] {
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
    }();
    return points;
}

} // namespace biglittle

#endif // BIGLITTLE_BENCH_BENCH_UTIL_HH
