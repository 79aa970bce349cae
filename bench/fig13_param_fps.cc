/**
 * @file
 * Fig. 13: average-FPS change of the eight governor/HMP parameter
 * configurations relative to the default system, for the five
 * FPS-oriented apps (average and min-max range).
 *
 * Expected shape (Section VI-C): average FPS is largely insensitive
 * to the knobs; only the longest sampling interval shows visible
 * drops for the demanding game.
 */

#include "paper.hh"

using namespace biglittle;

void
fig13ParamFps(RunTable &runs, CsvWriter *csv)
{
    if (csv) {
        csv->header({"config", "app", "avg_fps",
                     "fps_change_pct"});
    }

    const auto apps = fpsApps();
    const auto baseline = runs.get("baseline", apps);

    std::printf("%s\n",
                (padRight("config", 20) + padLeft("avg %", 9) +
                 padLeft("min %", 9) + padLeft("max %", 9))
                    .c_str());
    std::puts("  (average-FPS change vs baseline; negative = worse)");

    for (const SweepPoint &point : parameterSweep()) {
        const auto results = runs.get(point.label, apps);
        double sum = 0.0, mn = 1e9, mx = -1e9;
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const double change =
                pctChange(results[a].avgFps, baseline[a].avgFps);
            sum += change;
            mn = std::min(mn, change);
            mx = std::max(mx, change);
            if (csv) {
                csv->beginRow();
                csv->cell(point.label);
                csv->cell(apps[a].name);
                csv->cell(results[a].avgFps);
                csv->cell(change);
                csv->endRow();
            }
        }
        std::printf("%s%9.2f%9.2f%9.2f\n",
                    padRight(point.label, 20).c_str(),
                    sum / static_cast<double>(apps.size()), mn, mx);
    }
}
