/**
 * @file
 * Future-work study from the paper's conclusion: "to further reduce
 * the energy consumption, another core type, tiny core, with much
 * weaker capability can be added to process such low CPU loads."
 *
 * Table V shows most execution windows stuck in the `min` state -
 * the load needs less than a 500 MHz little core, but DVFS cannot
 * go lower.  This bench extends the little cluster's OPP table down
 * to 200 MHz at reduced voltage (a stand-in for a tiny-core class)
 * and measures, per app: power saving, performance change, and how
 * much of the Table V `min` state the extra headroom recovers.
 */

#include "paper.hh"

using namespace biglittle;

namespace
{

/** Exynos 5422 with tiny-class OPPs below the little minimum. */
PlatformParams
tinyAugmentedParams()
{
    PlatformParams p = exynos5422Params();
    ClusterParams &little = p.clusters[0];
    std::vector<Opp> extended = {
        {200000, 800}, {300000, 825}, {400000, 862},
    };
    extended.insert(extended.end(), little.opps.begin(),
                    little.opps.end());
    little.opps = std::move(extended);
    return p;
}

} // namespace

void
ablTinyOpp(RunTable &runs, CsvWriter *csv)
{
    if (csv) {
        csv->header({"app", "power_base_mw", "power_tiny_mw",
                     "power_saving_pct", "perf_change_pct",
                     "min_state_base_pct", "min_state_tiny_pct"});
    }

    ExperimentConfig tiny_cfg;
    tiny_cfg.platform = tinyAugmentedParams();
    tiny_cfg.label = "tiny-opp";

    const auto &apps = allApps();
    const auto base = runs.get("baseline", apps);
    const auto tiny = runs.runApps(tiny_cfg, apps);

    std::printf("%s\n",
                (padRight("app", 20) + padLeft("pwr base", 10) +
                 padLeft("pwr tiny", 10) + padLeft("saved %", 9) +
                 padLeft("perf %", 9) + padLeft("min base", 10) +
                 padLeft("min tiny", 10))
                    .c_str());
    std::puts("  (min = Table V share of windows stuck at the "
              "lowest little OPP)");

    double saved_sum = 0.0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const double saving =
            -pctChange(tiny[i].avgPowerMw, base[i].avgPowerMw);
        saved_sum += saving;
        double perf_change;
        if (apps[i].metric == AppMetric::latency) {
            perf_change = -pctChange(
                static_cast<double>(tiny[i].latency),
                static_cast<double>(base[i].latency));
        } else {
            perf_change = pctChange(tiny[i].avgFps, base[i].avgFps);
        }
        std::printf("%s%10.0f%10.0f%9.1f%9.1f%10.1f%10.1f\n",
                    padRight(apps[i].name, 20).c_str(),
                    base[i].avgPowerMw, tiny[i].avgPowerMw, saving,
                    perf_change, base[i].efficiency.minPct,
                    tiny[i].efficiency.minPct);
        if (csv) {
            csv->beginRow();
            csv->cell(apps[i].name);
            csv->cell(base[i].avgPowerMw);
            csv->cell(tiny[i].avgPowerMw);
            csv->cell(saving);
            csv->cell(perf_change);
            csv->cell(base[i].efficiency.minPct);
            csv->cell(tiny[i].efficiency.minPct);
            csv->endRow();
        }
    }
    std::printf("\naverage power saving across the suite: %.1f%%\n",
                saved_sum / static_cast<double>(apps.size()));
}
