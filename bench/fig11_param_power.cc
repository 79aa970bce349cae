/**
 * @file
 * Fig. 11: power saving of the eight governor/HMP parameter
 * configurations relative to the default system, averaged over all
 * twelve apps, with the min-max range across apps.
 *
 * Expected shape (Section VI-C): the governor sampling interval is
 * the most impactful knob (~2% average saving at 60 ms, up to ~10%
 * for bbench); the aggressive HMP setting mostly costs power; the
 * history-weight changes barely matter.
 */

#include "paper.hh"

using namespace biglittle;

void
fig11ParamPower(RunTable &runs, CsvWriter *csv)
{
    if (csv) {
        csv->header({"config", "app", "power_mw",
                     "power_saving_pct"});
    }

    const auto apps = allApps();
    const auto baseline = runs.get("baseline", apps);

    std::printf("%s\n",
                (padRight("config", 20) + padLeft("avg %", 9) +
                 padLeft("min %", 9) + padLeft("max %", 9))
                    .c_str());
    std::puts("  (power saving vs baseline across the 12 apps)");

    for (const SweepPoint &point : parameterSweep()) {
        const auto results = runs.get(point.label, apps);
        double sum = 0.0, mn = 1e9, mx = -1e9;
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const double saving = -pctChange(results[a].avgPowerMw,
                                             baseline[a].avgPowerMw);
            sum += saving;
            mn = std::min(mn, saving);
            mx = std::max(mx, saving);
            if (csv) {
                csv->beginRow();
                csv->cell(point.label);
                csv->cell(apps[a].name);
                csv->cell(results[a].avgPowerMw);
                csv->cell(saving);
                csv->endRow();
            }
        }
        std::printf("%s%9.2f%9.2f%9.2f\n",
                    padRight(point.label, 20).c_str(),
                    sum / static_cast<double>(apps.size()), mn, mx);
    }
}
