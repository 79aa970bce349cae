/**
 * @file
 * Extension: compare every DVFS policy (the paper's interactive
 * default, the classic ondemand/conservative, the modern schedutil,
 * and the performance/powersave bounds) across the app suite.
 *
 * The paper evaluates only the interactive governor's parameters;
 * this bench places it on the wider policy landscape: performance
 * and powersave bound the frontier, and interactive should sit near
 * the knee (close to powersave's energy with close to performance's
 * responsiveness).
 */

#include "paper.hh"

using namespace biglittle;

void
governorComparison(RunTable &runs, CsvWriter *csv)
{
    if (csv) {
        csv->header({"governor", "app", "metric", "perf_value",
                     "power_mw"});
    }

    const GovernorKind kinds[] = {
        GovernorKind::performance, GovernorKind::interactive,
        GovernorKind::ondemand, GovernorKind::conservative,
        GovernorKind::schedutil, GovernorKind::powersave,
    };
    const auto apps = allApps();

    std::printf("%s\n",
                (padRight("governor", 14) +
                 padLeft("avg power mW", 14) +
                 padLeft("lat vs perf %", 15) +
                 padLeft("fps vs perf %", 15))
                    .c_str());
    std::puts("  (averages across the 12-app suite; perf governor "
              "is the performance reference)");

    std::vector<AppRunResult> reference;
    for (const GovernorKind kind : kinds) {
        ExperimentConfig cfg;
        cfg.governor = kind;
        cfg.label = governorKindName(kind);
        const auto results = runs.runApps(cfg, apps);
        if (kind == GovernorKind::performance)
            reference = results;

        double power_sum = 0.0;
        double lat_sum = 0.0;
        int lat_n = 0;
        double fps_sum = 0.0;
        int fps_n = 0;
        for (std::size_t i = 0; i < apps.size(); ++i) {
            power_sum += results[i].avgPowerMw;
            if (apps[i].metric == AppMetric::latency) {
                lat_sum += pctChange(
                    static_cast<double>(results[i].latency),
                    static_cast<double>(reference[i].latency));
                ++lat_n;
            } else {
                fps_sum += pctChange(results[i].avgFps,
                                     reference[i].avgFps);
                ++fps_n;
            }
            if (csv) {
                csv->beginRow();
                csv->cell(std::string(governorKindName(kind)));
                csv->cell(apps[i].name);
                csv->cell(std::string(
                    appMetricName(apps[i].metric)));
                csv->cell(results[i].performanceValue());
                csv->cell(results[i].avgPowerMw);
                csv->endRow();
            }
        }
        std::printf("%s%14.0f%15.1f%15.1f\n",
                    padRight(governorKindName(kind), 14).c_str(),
                    power_sum / static_cast<double>(apps.size()),
                    lat_sum / lat_n, fps_sum / fps_n);
    }
}
