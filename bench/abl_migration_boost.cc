/**
 * @file
 * Ablation: the up-migration frequency boost.
 *
 * Without the boost, a task that hops to the big cluster runs at
 * the big minimum frequency (0.8 GHz - slower than a little core at
 * 1.3 GHz for low-ILP code) until the governor's next sample.  This
 * bench quantifies the latency and power effect of the boost across
 * the latency-oriented apps.
 */

#include "paper.hh"

using namespace biglittle;

void
ablMigrationBoost(RunTable &runs, CsvWriter *csv)
{
    if (csv) {
        csv->header({"app", "latency_boost_ms", "latency_noboost_ms",
                     "latency_cost_pct", "power_boost_mw",
                     "power_noboost_mw"});
    }

    ExperimentConfig boost_cfg;
    boost_cfg.label = "boost";
    ExperimentConfig plain_cfg;
    plain_cfg.sched.upMigrationBoostFreq = 0;
    plain_cfg.label = "no-boost";

    const auto &apps = latencyApps();
    const auto with_boost = runs.runApps(boost_cfg, apps);
    const auto without = runs.runApps(plain_cfg, apps);

    std::printf("%s\n",
                (padRight("app", 16) + padLeft("boost", 10) +
                 padLeft("no boost", 10) + padLeft("cost %", 9) +
                 padLeft("pwr boost", 11) + padLeft("pwr plain", 11))
                    .c_str());
    std::puts("  (latency in ms; cost = slowdown without the boost)");
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const double lat_b = static_cast<double>(
            with_boost[i].latency) / static_cast<double>(oneMs);
        const double lat_p = static_cast<double>(without[i].latency) /
                             static_cast<double>(oneMs);
        const double cost = pctChange(lat_p, lat_b);
        std::printf("%s%10.1f%10.1f%9.1f%11.0f%11.0f\n",
                    padRight(apps[i].name, 16).c_str(), lat_b, lat_p,
                    cost, with_boost[i].avgPowerMw,
                    without[i].avgPowerMw);
        if (csv) {
            csv->beginRow();
            csv->cell(apps[i].name);
            csv->cell(lat_b);
            csv->cell(lat_p);
            csv->cell(cost);
            csv->cell(with_boost[i].avgPowerMw);
            csv->cell(without[i].avgPowerMw);
            csv->endRow();
        }
    }
}
