/**
 * @file
 * Fig. 3: whole-system power (mW) while running each SPEC-like
 * kernel on one core, for little\@1.3 GHz and big\@{0.8, 1.3, 1.9}.
 *
 * Expected shape (Section III-A): at the shared 1.3 GHz point the
 * big core draws ~2.3x the little-core system power; even big\@0.8
 * draws ~1.5x little\@1.3; spread across kernels is much smaller
 * than the performance spread.
 */

#include "paper.hh"
#include "workload/spec.hh"

using namespace biglittle;

void
fig03SpecPower(RunTable &, CsvWriter *csv)
{
    if (csv) {
        csv->header({"kernel", "little_1.3GHz_mw", "big_0.8GHz_mw",
                     "big_1.3GHz_mw", "big_1.9GHz_mw"});
    }

    Experiment experiment;
    std::printf("%s\n", (padRight("kernel", 14) +
                         padLeft("little@1.3", 12) +
                         padLeft("big@0.8", 10) +
                         padLeft("big@1.3", 10) +
                         padLeft("big@1.9", 10))
                            .c_str());
    std::puts("  (average whole-system power in mW)");

    for (const SpecKernel &kernel : specSuite()) {
        const double little = experiment
            .runKernel(kernel, CoreType::little, 1300000).avgPowerMw;
        const double big08 = experiment
            .runKernel(kernel, CoreType::big, 800000).avgPowerMw;
        const double big13 = experiment
            .runKernel(kernel, CoreType::big, 1300000).avgPowerMw;
        const double big19 = experiment
            .runKernel(kernel, CoreType::big, 1900000).avgPowerMw;
        std::printf("%s%12.0f%10.0f%10.0f%10.0f\n",
                    padRight(kernel.name, 14).c_str(), little, big08,
                    big13, big19);
        if (csv) {
            csv->beginRow();
            csv->cell(kernel.name);
            csv->cell(little);
            csv->cell(big08);
            csv->cell(big13);
            csv->cell(big19);
            csv->endRow();
        }
    }
}
