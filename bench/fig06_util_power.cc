/**
 * @file
 * Fig. 6: whole-system power vs CPU utilization, one core busy, for
 * a sweep of frequencies on each core type.
 *
 * Expected shape (Section III-B): power grows linearly in
 * utilization with a slope that steepens sharply with frequency, and
 * the big core covers a clearly higher power band than the little
 * core at every utilization level.
 */

#include "paper.hh"

using namespace biglittle;

namespace
{

void
sweepCoreType(Experiment &experiment, CoreType type,
              const std::vector<FreqKHz> &freqs, Tick duration,
              CsvWriter *csv)
{
    std::printf("\n%s core (power in mW by utilization %%)\n",
                coreTypeName(type));
    std::string header = padRight("freq", 10);
    for (int u = 10; u <= 100; u += 10)
        header += padLeft(format("%d%%", u), 7);
    std::printf("%s\n", header.c_str());

    for (const FreqKHz freq : freqs) {
        std::string line = padRight(freqToString(freq), 10);
        for (int u = 10; u <= 100; u += 10) {
            const MicrobenchResult r = experiment.runMicrobench(
                type, freq, u / 100.0, duration);
            line += padLeft(format("%.0f", r.avgPowerMw), 7);
            if (csv) {
                csv->beginRow();
                csv->cell(std::string(coreTypeName(type)));
                csv->cell(static_cast<std::uint64_t>(freq));
                csv->cell(static_cast<std::uint64_t>(u));
                csv->cell(r.avgPowerMw);
                csv->cell(r.achievedUtilization * 100.0);
                csv->endRow();
            }
        }
        std::printf("%s\n", line.c_str());
    }
}

} // namespace

void
fig06UtilPower(RunTable &, CsvWriter *csv)
{
    if (csv) {
        csv->header({"core_type", "freq_khz", "target_util_pct",
                     "power_mw", "achieved_util_pct"});
    }

    const Tick duration = msToTicks(2000); // length of each point
    Experiment experiment;
    sweepCoreType(experiment, CoreType::little,
                  {500000, 700000, 900000, 1100000, 1300000},
                  duration, csv);
    sweepCoreType(experiment, CoreType::big,
                  {800000, 1100000, 1400000, 1700000, 1900000},
                  duration, csv);
}
