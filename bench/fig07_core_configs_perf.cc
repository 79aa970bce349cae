/**
 * @file
 * Fig. 7: performance (latency or FPS) of the seven restricted core
 * configurations, relative to the L4+B4 baseline, for all apps.
 *
 * Expected shape (Section V-C): little-only configurations degrade
 * some apps severely; adding a single big core recovers most of the
 * interactivity; angry_bird and video_player barely care.
 */

#include "paper.hh"

using namespace biglittle;

void
fig07CoreConfigsPerf(RunTable &runs, CsvWriter *csv)
{
    if (csv) {
        csv->header({"app", "config", "perf_value",
                     "perf_change_pct", "metric"});
    }

    const auto configs = standardCoreConfigs();
    const auto &apps = allApps();

    // Baseline first (last entry of standardCoreConfigs is L4+B4).
    std::vector<std::vector<AppRunResult>> by_config;
    for (const CoreConfig &cc : configs)
        by_config.push_back(runs.get(cc.label, apps));
    const auto &baseline = by_config.back();

    std::string header = padRight("app", 18);
    for (const CoreConfig &cc : configs)
        header += padLeft(cc.label, 9);
    std::printf("%s\n", header.c_str());
    std::puts("  (performance change vs L4+B4, %; latency apps: "
              "negative = slower)");

    for (std::size_t a = 0; a < apps.size(); ++a) {
        std::string line = padRight(apps[a].name, 18);
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const AppRunResult &r = by_config[c][a];
            const AppRunResult &b = baseline[a];
            // For latency, lower is better: report change in
            // "goodness" so the sign is comparable across metrics.
            double change;
            if (apps[a].metric == AppMetric::latency) {
                change = -pctChange(
                    static_cast<double>(r.latency),
                    static_cast<double>(b.latency));
            } else {
                change = pctChange(r.avgFps, b.avgFps);
            }
            line += padLeft(format("%.1f", change), 9);
            if (csv) {
                csv->beginRow();
                csv->cell(apps[a].name);
                csv->cell(configs[c].label);
                csv->cell(r.performanceValue());
                csv->cell(change);
                csv->cell(std::string(appMetricName(apps[a].metric)));
                csv->endRow();
            }
        }
        std::printf("%s\n", line.c_str());
    }
}
