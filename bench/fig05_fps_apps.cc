/**
 * @file
 * Fig. 5: average- and minimum-FPS improvement vs power increase of
 * 4 big cores over 4 little cores for the five FPS-oriented apps.
 *
 * Expected shape (Section III-A): average-FPS gains are small except
 * for the CPU-intensive game (eternity_warrior2), but the worst
 * 1-second window improves more - occasional demand spikes exceed
 * the little cores' capability.
 */

#include "paper.hh"

using namespace biglittle;

void
fig05FpsApps(RunTable &runs, CsvWriter *csv)
{
    if (csv) {
        csv->header({"app", "avg_fps_little", "avg_fps_big",
                     "avg_fps_improve_pct", "min_fps_little",
                     "min_fps_big", "min_fps_improve_pct",
                     "power_increase_pct"});
    }

    const auto apps = fpsApps();
    const auto little = runs.get("4-little", apps);
    const auto big = runs.get("4-big", apps);

    std::printf("%s\n",
                (padRight("app", 18) + padLeft("avg L", 8) +
                 padLeft("avg B", 8) + padLeft("avg +%", 8) +
                 padLeft("min L", 8) + padLeft("min B", 8) +
                 padLeft("min +%", 8) + padLeft("pwr +%", 9))
                    .c_str());
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const double avg_imp =
            pctChange(big[i].avgFps, little[i].avgFps);
        const double min_imp =
            pctChange(big[i].minFps, little[i].minFps);
        const double pwr_inc =
            pctChange(big[i].avgPowerMw, little[i].avgPowerMw);
        std::printf("%s%8.1f%8.1f%8.1f%8.1f%8.1f%8.1f%9.1f\n",
                    padRight(apps[i].name, 18).c_str(),
                    little[i].avgFps, big[i].avgFps, avg_imp,
                    little[i].minFps, big[i].minFps, min_imp,
                    pwr_inc);
        if (csv) {
            csv->beginRow();
            csv->cell(apps[i].name);
            csv->cell(little[i].avgFps);
            csv->cell(big[i].avgFps);
            csv->cell(avg_imp);
            csv->cell(little[i].minFps);
            csv->cell(big[i].minFps);
            csv->cell(min_imp);
            csv->cell(pwr_inc);
            csv->endRow();
        }
    }
}
