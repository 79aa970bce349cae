/**
 * @file
 * Fig. 4: latency reduction vs power increase of 4 big cores over
 * 4 little cores for the seven latency-oriented apps.
 *
 * Expected shape (Section III-A): unlike SPEC, the gains are modest
 * (< ~30% latency reduction) because the apps leave cores idle most
 * of the time; the power increase stays below ~47%.
 */

#include "paper.hh"

using namespace biglittle;

void
fig04LatencyApps(RunTable &runs, CsvWriter *csv)
{
    if (csv) {
        csv->header({"app", "latency_little_ms", "latency_big_ms",
                     "latency_reduction_pct", "power_little_mw",
                     "power_big_mw", "power_increase_pct"});
    }

    const auto apps = latencyApps();
    const auto little = runs.get("4-little", apps);
    const auto big = runs.get("4-big", apps);

    std::printf("%s\n",
                (padRight("app", 16) + padLeft("lat little", 12) +
                 padLeft("lat big", 12) + padLeft("lat -%", 9) +
                 padLeft("pwr little", 12) + padLeft("pwr big", 10) +
                 padLeft("pwr +%", 9))
                    .c_str());
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const double lat_l = static_cast<double>(little[i].latency) /
                             static_cast<double>(oneMs);
        const double lat_b = static_cast<double>(big[i].latency) /
                             static_cast<double>(oneMs);
        const double lat_red = -pctChange(lat_b, lat_l);
        const double pwr_inc =
            pctChange(big[i].avgPowerMw, little[i].avgPowerMw);
        std::printf("%s%12.1f%12.1f%9.1f%12.0f%10.0f%9.1f\n",
                    padRight(apps[i].name, 16).c_str(), lat_l, lat_b,
                    lat_red, little[i].avgPowerMw, big[i].avgPowerMw,
                    pwr_inc);
        if (csv) {
            csv->beginRow();
            csv->cell(apps[i].name);
            csv->cell(lat_l);
            csv->cell(lat_b);
            csv->cell(lat_red);
            csv->cell(little[i].avgPowerMw);
            csv->cell(big[i].avgPowerMw);
            csv->cell(pwr_inc);
            csv->endRow();
        }
    }
}
