/**
 * @file
 * Ablation: the cpuidle model.
 *
 * The paper's platform idles its cores through WFI and power-gated
 * C-states (Android cpuidle); our default model promotes an idle
 * core from clock gating to power gating after 2 ms, the way the
 * menu governor does.  This bench compares whole-system power under
 * the two-state model against a flat retention model, per app - the
 * difference is largest for the mostly-idle media apps whose long
 * idle spans power-gate almost entirely.
 */

#include "paper.hh"

using namespace biglittle;

void
ablCpuidle(RunTable &runs, CsvWriter *csv)
{
    if (csv) {
        csv->header({"app", "power_cpuidle_mw", "power_flat_mw",
                     "saving_pct"});
    }

    ExperimentConfig idle_cfg;
    idle_cfg.label = "cpuidle";
    ExperimentConfig flat_cfg;
    flat_cfg.platform.cpuidleEnabled = false;
    flat_cfg.label = "flat";

    const auto apps = allApps();
    const auto with_idle = runs.runApps(idle_cfg, apps);
    const auto flat = runs.runApps(flat_cfg, apps);

    std::printf("%s\n",
                (padRight("app", 20) + padLeft("cpuidle mW", 12) +
                 padLeft("flat mW", 10) + padLeft("saving %", 10))
                    .c_str());
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const double saving = -pctChange(with_idle[i].avgPowerMw,
                                         flat[i].avgPowerMw);
        std::printf("%s%12.0f%10.0f%10.1f\n",
                    padRight(apps[i].name, 20).c_str(),
                    with_idle[i].avgPowerMw, flat[i].avgPowerMw,
                    saving);
        if (csv) {
            csv->beginRow();
            csv->cell(apps[i].name);
            csv->cell(with_idle[i].avgPowerMw);
            csv->cell(flat[i].avgPowerMw);
            csv->cell(saving);
            csv->endRow();
        }
    }
    std::puts("\n(long-idle apps benefit from power gating; busy "
              "apps see little difference)");
}
