/**
 * @file
 * governor_tuning: sweep one interactive-governor or HMP-scheduler
 * parameter for one app and print the power/performance frontier -
 * the Section VI-C methodology as a reusable tool.
 *
 * Examples:
 *   governor_tuning --app bbench --knob sampling
 *   governor_tuning --app fifa15 --knob target-load
 *   governor_tuning --app encoder --knob up-threshold
 */

#include <cstdio>

#include "base/argparse.hh"
#include "base/logging.hh"
#include "base/strutil.hh"
#include "core/experiment.hh"
#include "workload/apps.hh"

using namespace biglittle;

namespace
{

struct SweepResult
{
    std::string setting;
    double perf;
    double powerMw;
};

SweepResult
runPoint(const AppSpec &app, const ExperimentConfig &cfg,
         const std::string &setting)
{
    std::fprintf(stderr, "  running %s = %s...\n", cfg.label.c_str(),
                 setting.c_str());
    Experiment experiment(cfg);
    const AppRunResult r = experiment.runApp(app);
    return {setting, r.performanceValue(), r.avgPowerMw};
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("governor_tuning",
                   "sweep a governor/scheduler knob for one app");
    args.addString("app", "bbench", "app name from Table II");
    args.addString("knob", "sampling",
                   "sampling | target-load | up-threshold | history");
    args.parse(argc, argv);

    const AppSpec &app = appByName(args.getString("app"));
    const std::string knob = toLower(args.getString("knob"));

    std::vector<SweepResult> results;
    if (knob == "sampling") {
        for (const int ms : {10, 20, 40, 60, 100}) {
            ExperimentConfig cfg;
            cfg.interactive.samplingRate =
                msToTicks(static_cast<std::uint64_t>(ms));
            cfg.label = "sampling";
            results.push_back(
                runPoint(app, cfg, format("%dms", ms)));
        }
    } else if (knob == "target-load") {
        for (const int load : {50, 60, 70, 80, 90}) {
            ExperimentConfig cfg;
            cfg.interactive.targetLoad = load;
            cfg.interactive.goHispeedLoad =
                std::min(99.0, load + 15.0);
            cfg.label = "target-load";
            results.push_back(runPoint(app, cfg, format("%d", load)));
        }
    } else if (knob == "up-threshold") {
        for (const int up : {400, 550, 700, 850, 950}) {
            ExperimentConfig cfg;
            cfg.sched.upThreshold = static_cast<std::uint32_t>(up);
            cfg.sched.downThreshold = static_cast<std::uint32_t>(
                std::max(32, up - 444));
            cfg.label = "up-threshold";
            results.push_back(runPoint(app, cfg, format("%d", up)));
        }
    } else if (knob == "history") {
        for (const int half_life : {8, 16, 32, 64, 128}) {
            ExperimentConfig cfg;
            cfg.sched.loadHalfLifeMs = half_life;
            cfg.label = "history";
            results.push_back(
                runPoint(app, cfg, format("%dms", half_life)));
        }
    } else {
        fatal("unknown knob '%s'", knob.c_str());
    }

    const char *perf_label =
        app.metric == AppMetric::latency ? "latency(ms)" : "avg FPS";
    std::printf("\n%s sweep for %s\n", knob.c_str(), app.name.c_str());
    std::printf("%s%14s%12s\n", padRight("setting", 12).c_str(),
                perf_label, "power(mW)");
    for (const SweepResult &r : results) {
        std::printf("%s%14.1f%12.0f\n",
                    padRight(r.setting, 12).c_str(), r.perf,
                    r.powerMw);
    }
    std::puts("\n(the default platform setting is the middle row; "
              "Section VI-C of the paper explores the same space)");
    return 0;
}
