/**
 * @file
 * core_config_explorer: for one application, evaluate every
 * little/big core combination (including asymmetric ones the paper
 * could not hotplug, like L1+B1) and print the performance/power
 * frontier - the Section V-C question "is 4+4 over-designed?" as a
 * tool.
 */

#include <cstdio>

#include "base/argparse.hh"
#include "base/strutil.hh"
#include "core/experiment.hh"
#include "workload/apps.hh"

using namespace biglittle;

int
main(int argc, char **argv)
{
    ArgParser args("core_config_explorer",
                   "evaluate all core combinations for one app");
    args.addString("app", "eternity_warrior2",
                   "app name from Table II");
    args.addFlag("full-grid",
                 "sweep the full 4x5 grid instead of the paper's 7 "
                 "configurations");
    args.parse(argc, argv);

    const AppSpec &app = appByName(args.getString("app"));

    std::vector<CoreConfig> configs;
    if (args.getFlag("full-grid")) {
        for (std::uint32_t little = 1; little <= 4; ++little) {
            for (std::uint32_t big = 0; big <= 4; ++big) {
                configs.push_back(
                    {little, big,
                     format("L%u+B%u", little, big)});
            }
        }
    } else {
        configs = standardCoreConfigs();
    }

    // Baseline: everything online.
    ExperimentConfig base_cfg;
    std::fprintf(stderr, "  running baseline L4+B4...\n");
    const AppRunResult base = Experiment(base_cfg).runApp(app);

    const char *perf_label =
        app.metric == AppMetric::latency ? "latency(ms)" : "avg FPS";
    std::printf("%s on core combinations (baseline L4+B4: %s %.1f, "
                "%.0f mW)\n\n",
                app.name.c_str(), perf_label, base.performanceValue(),
                base.avgPowerMw);
    std::printf("%s%14s%12s%14s%14s\n",
                padRight("config", 10).c_str(), perf_label,
                "power(mW)", "perf vs base", "power saved");

    for (const CoreConfig &cc : configs) {
        ExperimentConfig cfg;
        cfg.coreConfig = cc;
        cfg.label = cc.label;
        std::fprintf(stderr, "  running %s...\n", cc.label.c_str());
        const AppRunResult r = Experiment(cfg).runApp(app);

        double perf_change;
        if (app.metric == AppMetric::latency) {
            perf_change = -100.0 *
                (r.performanceValue() - base.performanceValue()) /
                base.performanceValue();
        } else {
            perf_change = 100.0 *
                (r.performanceValue() - base.performanceValue()) /
                base.performanceValue();
        }
        const double saved = 100.0 *
            (base.avgPowerMw - r.avgPowerMw) / base.avgPowerMw;
        std::printf("%s%14.1f%12.0f%13.1f%%%13.1f%%\n",
                    padRight(cc.label, 10).c_str(),
                    r.performanceValue(), r.avgPowerMw, perf_change,
                    saved);
    }
    std::puts("\n(positive 'perf vs base' means faster/smoother; "
              "Section V-C finds L2+B1 and L4+B1 are the sweet "
              "spots)");
    return 0;
}
