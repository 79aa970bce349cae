/**
 * @file
 * Fig. 8: power saving of the seven restricted core configurations
 * relative to the L4+B4 baseline, for all apps.
 *
 * Expected shape (Section V-C): little-only configurations save the
 * most power; for lightly loaded apps (angry_bird, video_player) the
 * saving comes without performance loss; L2+B1 and L4+B1 are the
 * balanced sweet spots.
 */

#include "paper.hh"

using namespace biglittle;

void
fig08CoreConfigsPower(RunTable &runs, CsvWriter *csv)
{
    if (csv) {
        csv->header({"app", "config", "power_mw",
                     "power_saving_pct"});
    }

    const auto configs = standardCoreConfigs();
    const auto apps = allApps();

    std::vector<std::vector<AppRunResult>> by_config;
    for (const CoreConfig &cc : configs)
        by_config.push_back(runs.get(cc.label, apps));
    const auto &baseline = by_config.back();

    std::string header = padRight("app", 18);
    for (const CoreConfig &cc : configs)
        header += padLeft(cc.label, 9);
    std::printf("%s\n", header.c_str());
    std::puts("  (power saving vs L4+B4, %)");

    for (std::size_t a = 0; a < apps.size(); ++a) {
        std::string line = padRight(apps[a].name, 18);
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const double saving = -pctChange(
                by_config[c][a].avgPowerMw, baseline[a].avgPowerMw);
            line += padLeft(format("%.1f", saving), 9);
            if (csv) {
                csv->beginRow();
                csv->cell(apps[a].name);
                csv->cell(configs[c].label);
                csv->cell(by_config[c][a].avgPowerMw);
                csv->cell(saving);
                csv->endRow();
            }
        }
        std::printf("%s\n", line.c_str());
    }
}
