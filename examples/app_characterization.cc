/**
 * @file
 * app_characterization: run any of the Table II applications under a
 * chosen governor/scheduler configuration and print the full
 * characterization the paper reports - performance, power, TLP
 * (Table III row + Table IV matrix), frequency residency (Figs.
 * 9/10) and the Table V efficiency decomposition.
 *
 * Example:
 *   app_characterization --app bbench --governor interactive \
 *       --sampling-ms 60
 */

#include <cstdio>

#include "base/argparse.hh"
#include "base/exit_codes.hh"
#include "base/logging.hh"
#include "base/strutil.hh"
#include "core/config_io.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "workload/apps.hh"

using namespace biglittle;

namespace
{

void
printResidency(const char *label, const FreqResidency &res)
{
    std::printf("%s frequency residency (%% of active time):\n",
                label);
    for (const auto &entry : res.entries) {
        if (entry.fraction < 0.001)
            continue;
        std::printf("  %-8s %5.1f%%  %s\n",
                    freqToString(entry.freq).c_str(),
                    entry.fraction * 100.0,
                    std::string(static_cast<std::size_t>(
                                    entry.fraction * 50.0),
                                '#')
                        .c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("app_characterization",
                   "characterize one mobile app on the platform");
    args.addString("app", "eternity_warrior2",
                   "app name from Table II (e.g. bbench, encoder)");
    args.addString("governor", "interactive", "cpufreq governor");
    args.addInt("sampling-ms", 20, "interactive sampling period");
    args.addInt("up-threshold", 700, "HMP up-migration threshold");
    args.addInt("down-threshold", 256, "HMP down-migration threshold");
    args.addInt("little-cores", 4, "online little cores");
    args.addInt("big-cores", 4, "online big cores");
    args.addString("config", "",
                   "load an ExperimentConfig file first; explicit "
                   "options below override it");
    args.parse(argc, argv);

    ExperimentConfig cfg;
    if (!args.getString("config").empty()) {
        Result<ExperimentConfig> loaded =
            loadExperimentConfig(args.getString("config"));
        if (!loaded.ok()) {
            std::fprintf(stderr, "%s\n",
                         loaded.status().message().c_str());
            return exitBadFile;
        }
        cfg = std::move(loaded.value());
    }
    if (args.wasSet("governor") || args.getString("config").empty()) {
        Result<GovernorKind> kind =
            governorKindFromName(args.getString("governor"));
        if (!kind.ok()) {
            std::fprintf(stderr, "%s\n",
                         kind.status().message().c_str());
            return exitUsage;
        }
        cfg.governor = kind.value();
    }
    if (args.wasSet("sampling-ms"))
        cfg.interactive.samplingRate = msToTicks(
            static_cast<std::uint64_t>(args.getInt("sampling-ms")));
    if (args.wasSet("up-threshold"))
        cfg.sched.upThreshold =
            static_cast<std::uint32_t>(args.getInt("up-threshold"));
    if (args.wasSet("down-threshold"))
        cfg.sched.downThreshold = static_cast<std::uint32_t>(
            args.getInt("down-threshold"));
    if (args.wasSet("little-cores") || args.wasSet("big-cores") ||
        args.getString("config").empty()) {
        cfg.coreConfig = {
            static_cast<std::uint32_t>(args.getInt("little-cores")),
            static_cast<std::uint32_t>(args.getInt("big-cores")),
            format("L%u+B%u",
                   static_cast<unsigned>(args.getInt("little-cores")),
                   static_cast<unsigned>(args.getInt("big-cores"))),
        };
    }
    if (cfg.label == "default")
        cfg.label = governorKindName(cfg.governor);

    const AppSpec &app = appByName(args.getString("app"));
    std::printf("running %s (%s-oriented) on %s, %s governor...\n\n",
                app.name.c_str(), appMetricName(app.metric),
                cfg.coreConfig.label.c_str(),
                governorKindName(cfg.governor));

    Experiment experiment(cfg);
    const AppRunResult r = experiment.runApp(app);
    if (r.failed) {
        // A config file can carry a resume path; a diverged resume
        // must not print partial metrics as if they were the run's.
        std::fprintf(stderr, "run failed (%s): %s\n",
                     recoveryTriggerName(r.failureTrigger),
                     r.failureDetail.c_str());
        return exitFatal;
    }

    printRunSummary(r);
    std::printf("\nenergy: %.1f mJ total (%.1f core dynamic, %.1f "
                "core static, %.1f L2, %.1f base)\n",
                r.energy.totalMj(), r.energy.coreDynamicMj,
                r.energy.coreStaticMj, r.energy.clusterStaticMj,
                r.energy.baseMj);
    std::printf("scheduler: %llu wakeups, %llu up-migrations, %llu "
                "down-migrations, %llu balance moves\n\n",
                static_cast<unsigned long long>(r.sched.wakeups),
                static_cast<unsigned long long>(r.sched.migrationsUp),
                static_cast<unsigned long long>(
                    r.sched.migrationsDown),
                static_cast<unsigned long long>(
                    r.sched.balanceMoves));

    std::puts("TLP distribution (Table IV style):");
    printTlpMatrix(r);
    std::printf("\nidle %.2f%%, little share %.2f%%, big share "
                "%.2f%%, TLP %.2f\n\n",
                r.tlp.idlePct, r.tlp.littleSharePct,
                r.tlp.bigSharePct, r.tlp.tlp);

    printResidency("little", r.littleResidency);
    printResidency("big", r.bigResidency);

    std::puts("\nper-task breakdown:");
    printTaskTable(r);

    std::printf("\nefficiency decomposition (Table V): min %.1f%%, "
                "<50%% %.1f%%, 50-70%% %.1f%%, 70-95%% %.1f%%, >95%% "
                "%.1f%%, full %.1f%%\n",
                r.efficiency.minPct, r.efficiency.below50Pct,
                r.efficiency.from50to70Pct,
                r.efficiency.from70to95Pct, r.efficiency.above95Pct,
                r.efficiency.fullPct);
    return 0;
}
