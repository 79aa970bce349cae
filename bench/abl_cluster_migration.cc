/**
 * @file
 * Extension: HMP (Exynos 5422) vs cluster migration (Exynos 5410).
 *
 * Section II notes the studied platform's key advance over its
 * predecessor: "any combination of big and little cores can be
 * active, unlike the limitation of the previous big-little
 * implementation, which allowed only either big or little cores".
 * This bench quantifies that advance: each app runs once under the
 * default HMP system and once under a 5410-style whole-cluster
 * switcher, comparing performance and power.
 */

#include "governor/interactive.hh"
#include "paper.hh"
#include "platform/power.hh"
#include "platform/thermal.hh"
#include "sched/cluster_switcher.hh"

using namespace biglittle;

namespace
{

struct MigrationResult
{
    double perf;
    double powerMw;
    std::uint64_t switches;
};

/** Run @p app under the 5410-style cluster-migration system. */
MigrationResult
runClusterMigration(const AppSpec &app)
{
    Simulation sim;
    PlatformParams params = exynos5422Params();
    params.enforceBootCore = false;
    AsymmetricPlatform plat(sim, params);
    HmpScheduler sched(sim, plat, baselineSchedParams());
    InteractiveGovernor lg(sim, plat.littleCluster(),
                           defaultInteractiveParams());
    InteractiveGovernor bg(sim, plat.bigCluster(),
                           defaultInteractiveParams());
    ThermalThrottle lt(sim, plat.littleCluster());
    ThermalThrottle bt(sim, plat.bigCluster());
    ClusterSwitcher switcher(sim, plat, sched);
    PowerModel power(plat);
    AppInstance instance(sim, sched, app);

    lg.start();
    bg.start();
    lt.start();
    bt.start();
    sched.start();
    switcher.start();
    const PowerSnapshot before = power.snapshot();
    const Tick start = sim.now();
    instance.start();

    if (app.metric == AppMetric::latency) {
        const Tick cap = start + app.duration;
        while (!instance.done() && sim.now() < cap)
            sim.runFor(msToTicks(10));
    } else {
        sim.runUntil(start + app.duration);
    }

    const PowerSnapshot after = power.snapshot();
    MigrationResult result;
    result.perf = app.metric == AppMetric::latency
        ? static_cast<double>(instance.latency()) /
              static_cast<double>(oneMs)
        : instance.frameStats().averageFps();
    result.powerMw =
        power.energyBetween(before, after).averagePowerMw();
    result.switches = switcher.switches();
    return result;
}

} // namespace

void
ablClusterMigration(RunTable &runs, CsvWriter *csv)
{
    if (csv) {
        csv->header({"app", "metric", "perf_hmp", "perf_migration",
                     "perf_loss_pct", "power_hmp_mw",
                     "power_migration_mw", "switches"});
    }

    const auto apps = allApps();
    const auto hmp = runs.get("baseline", apps);

    std::printf("%s\n",
                (padRight("app", 20) + padLeft("HMP", 9) +
                 padLeft("cl-migr", 9) + padLeft("loss %", 8) +
                 padLeft("pwr HMP", 9) + padLeft("pwr migr", 10) +
                 padLeft("switches", 10))
                    .c_str());
    std::puts("  (latency ms or avg FPS; loss = performance cost of "
              "whole-cluster switching)");

    for (std::size_t i = 0; i < apps.size(); ++i) {
        std::fprintf(stderr, "  [cluster-migration] running %s...\n",
                     apps[i].name.c_str());
        const MigrationResult migr = runClusterMigration(apps[i]);
        const double perf_hmp = hmp[i].performanceValue();
        double loss;
        if (apps[i].metric == AppMetric::latency)
            loss = pctChange(migr.perf, perf_hmp);
        else
            loss = -pctChange(migr.perf, perf_hmp);
        std::printf("%s%9.1f%9.1f%8.1f%9.0f%10.0f%10llu\n",
                    padRight(apps[i].name, 20).c_str(), perf_hmp,
                    migr.perf, loss, hmp[i].avgPowerMw, migr.powerMw,
                    static_cast<unsigned long long>(migr.switches));
        if (csv) {
            csv->beginRow();
            csv->cell(apps[i].name);
            csv->cell(std::string(appMetricName(apps[i].metric)));
            csv->cell(perf_hmp);
            csv->cell(migr.perf);
            csv->cell(loss);
            csv->cell(hmp[i].avgPowerMw);
            csv->cell(migr.powerMw);
            csv->cell(static_cast<std::uint64_t>(migr.switches));
        csv->endRow();
        }
    }
}
