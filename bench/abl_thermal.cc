/**
 * @file
 * Ablation: the thermal throttle.
 *
 * The Monsoon-metered phone in the paper is implicitly thermally
 * limited; our model makes the limit explicit.  This bench compares
 * performance and power with the throttle enabled vs disabled for
 * the apps that stress the big cluster, plus a synthetic
 * fully-parallel big-cluster load where the effect is largest.
 */

#include "governor/interactive.hh"
#include "paper.hh"
#include "platform/power.hh"
#include "platform/thermal.hh"

using namespace biglittle;

namespace
{

/** Four endless compute hogs pinned to the big cores for 10 s. */
double
saturatedBigPowerMw(bool thermal)
{
    Simulation sim;
    AsymmetricPlatform plat(sim, exynos5422Params());
    HmpScheduler sched(sim, plat, baselineSchedParams());
    InteractiveGovernor gov(sim, plat.bigCluster(),
                            defaultInteractiveParams());
    ThermalThrottle throttle(sim, plat.bigCluster());
    PowerModel power(plat);
    gov.start();
    if (thermal)
        throttle.start();
    sched.start();
    for (CoreId id = 4; id < 8; ++id) {
        Task &t = sched.createTask("burn" + std::to_string(id),
                                   WorkClass{0.8, 0.0, 64.0}, id);
        t.submitWork(1e15);
    }
    const PowerSnapshot before = power.snapshot();
    sim.runFor(msToTicks(10000));
    const PowerSnapshot after = power.snapshot();
    return power.energyBetween(before, after).averagePowerMw();
}

} // namespace

void
ablThermal(RunTable &runs, CsvWriter *csv)
{
    if (csv) {
        csv->header({"app", "perf_thermal", "perf_unlimited",
                     "power_thermal_mw", "power_unlimited_mw"});
    }

    ExperimentConfig thermal_cfg;
    thermal_cfg.label = "thermal";
    ExperimentConfig unlimited_cfg;
    unlimited_cfg.thermalEnabled = false;
    unlimited_cfg.label = "unlimited";

    const std::vector<AppSpec> apps = {
        bbenchApp(), encoderApp(), virusScannerApp(),
        eternityWarrior2App(),
    };
    const auto with_thermal = runs.runApps(thermal_cfg, apps);
    const auto unlimited = runs.runApps(unlimited_cfg, apps);

    std::printf("%s\n",
                (padRight("app", 20) + padLeft("perf therm", 12) +
                 padLeft("perf unlim", 12) + padLeft("pwr therm", 11) +
                 padLeft("pwr unlim", 11))
                    .c_str());
    std::puts("  (latency ms or avg FPS; power in mW)");
    for (std::size_t i = 0; i < apps.size(); ++i) {
        std::printf("%s%12.1f%12.1f%11.0f%11.0f\n",
                    padRight(apps[i].name, 20).c_str(),
                    with_thermal[i].performanceValue(),
                    unlimited[i].performanceValue(),
                    with_thermal[i].avgPowerMw,
                    unlimited[i].avgPowerMw);
        if (csv) {
            csv->beginRow();
            csv->cell(apps[i].name);
            csv->cell(with_thermal[i].performanceValue());
            csv->cell(unlimited[i].performanceValue());
            csv->cell(with_thermal[i].avgPowerMw);
            csv->cell(unlimited[i].avgPowerMw);
            csv->endRow();
        }
    }
    std::puts("\n(the Table II apps rarely sustain several big "
              "cores long enough to trip the throttle; a synthetic "
              "fully parallel big-cluster load shows the cap)");
    const double hot = saturatedBigPowerMw(false);
    const double cool = saturatedBigPowerMw(true);
    std::printf("%s%12s%12s%11.0f%11.0f\n",
                padRight("4x big hogs (10 s)", 20).c_str(), "-", "-",
                cool, hot);
    if (csv) {
        csv->beginRow();
        csv->cell(std::string("big_saturation"));
        csv->cell(0.0);
        csv->cell(0.0);
        csv->cell(cool);
        csv->cell(hot);
        csv->endRow();
    }
}
