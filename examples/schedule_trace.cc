/**
 * @file
 * schedule_trace: run one application with the trace recorder
 * attached and print the scheduling/DVFS timeline - wakeups,
 * migrations between clusters, frequency transitions - plus a
 * summary of event counts.  Optionally dumps the full trace as CSV.
 *
 * Example:
 *   schedule_trace --app encoder --window-ms 600 --csv trace.csv
 */

#include <cstdio>

#include "base/argparse.hh"
#include "base/exit_codes.hh"
#include "core/experiment.hh"
#include "governor/interactive.hh"
#include "platform/platform.hh"
#include "platform/thermal.hh"
#include "sched/hmp.hh"
#include "sim/simulation.hh"
#include "trace/trace.hh"
#include "workload/apps.hh"

using namespace biglittle;

int
main(int argc, char **argv)
{
    ArgParser args("schedule_trace",
                   "trace the scheduler/governor for one app");
    args.addString("app", "encoder", "app name from Table II");
    args.addInt("window-ms", 500, "trace window length");
    args.addInt("lines", 60, "timeline lines to print");
    args.addString("csv", "", "write the full trace to this file");
    args.parse(argc, argv);

    const AppSpec &spec = appByName(args.getString("app"));

    Simulation sim;
    AsymmetricPlatform platform(sim, exynos5422Params());
    HmpScheduler sched(sim, platform, baselineSchedParams());
    InteractiveGovernor little_gov(sim, platform.littleCluster(),
                                   defaultInteractiveParams());
    InteractiveGovernor big_gov(sim, platform.bigCluster(),
                                defaultInteractiveParams());
    ThermalThrottle little_thermal(sim, platform.littleCluster());
    ThermalThrottle big_thermal(sim, platform.bigCluster());

    TraceRecorder trace(sim);
    trace.attachScheduler(sched);
    trace.attachCluster(platform.littleCluster());
    trace.attachCluster(platform.bigCluster());

    AppInstance app(sim, sched, spec);
    little_gov.start();
    big_gov.start();
    little_thermal.start();
    big_thermal.start();
    sched.start();
    app.start();

    sim.runFor(msToTicks(
        static_cast<std::uint64_t>(args.getInt("window-ms"))));

    std::printf("trace of %s over %lld ms: %llu events (%llu "
                "dropped)\n",
                spec.name.c_str(),
                static_cast<long long>(args.getInt("window-ms")),
                static_cast<unsigned long long>(trace.observed()),
                static_cast<unsigned long long>(trace.dropped()));
    std::printf("  wakeups %zu, sleeps %zu, up %zu, down %zu, "
                "balance %zu, freq changes %zu\n\n",
                trace.countOf(TraceKind::wakeup),
                trace.countOf(TraceKind::sleep),
                trace.countOf(TraceKind::migrateUp),
                trace.countOf(TraceKind::migrateDown),
                trace.countOf(TraceKind::balance),
                trace.countOf(TraceKind::freqChange));

    std::fputs(trace.timeline(static_cast<std::size_t>(
                   args.getInt("lines"))).c_str(),
               stdout);

    if (!args.getString("csv").empty()) {
        const Status written = trace.writeCsv(args.getString("csv"));
        if (!written.ok()) {
            std::fprintf(stderr, "%s\n", written.message().c_str());
            return exitBadFile;
        }
        std::printf("\nfull trace written to %s\n",
                    args.getString("csv").c_str());
    }
    return 0;
}
