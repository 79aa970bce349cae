/**
 * @file
 * Fig. 12: latency change of the eight governor/HMP parameter
 * configurations relative to the default system, for the seven
 * latency-oriented apps (average and min-max range).
 *
 * Expected shape (Section VI-C): longer sampling intervals trade
 * power for latency; the conservative HMP setting can hurt the worst
 * case app; most other knobs have little average effect.
 */

#include "paper.hh"

using namespace biglittle;

void
fig12ParamLatency(RunTable &runs, CsvWriter *csv)
{
    if (csv) {
        csv->header({"config", "app", "latency_ms",
                     "latency_increase_pct"});
    }

    const auto apps = latencyApps();
    const auto baseline = runs.get("baseline", apps);

    std::printf("%s\n",
                (padRight("config", 20) + padLeft("avg %", 9) +
                 padLeft("min %", 9) + padLeft("max %", 9))
                    .c_str());
    std::puts("  (latency increase vs baseline; positive = slower)");

    for (const SweepPoint &point : parameterSweep()) {
        const auto results = runs.get(point.label, apps);
        double sum = 0.0, mn = 1e9, mx = -1e9;
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const double change = pctChange(
                static_cast<double>(results[a].latency),
                static_cast<double>(baseline[a].latency));
            sum += change;
            mn = std::min(mn, change);
            mx = std::max(mx, change);
            if (csv) {
                csv->beginRow();
                csv->cell(point.label);
                csv->cell(apps[a].name);
                csv->cell(static_cast<double>(results[a].latency) /
                          static_cast<double>(oneMs));
                csv->cell(change);
                csv->endRow();
            }
        }
        std::printf("%s%9.2f%9.2f%9.2f\n",
                    padRight(point.label, 20).c_str(),
                    sum / static_cast<double>(apps.size()), mn, mx);
    }
}
