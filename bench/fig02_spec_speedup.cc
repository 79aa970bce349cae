/**
 * @file
 * Fig. 2: speedup of a single big core at 1.9/1.3/0.8 GHz over a
 * single little core at 1.3 GHz for the SPEC-like kernel suite.
 *
 * Expected shape (Section III-A): big\@1.3 always faster than
 * little\@1.3 (up to ~4.5x for the cache-sensitive kernels whose
 * working set fits the 2 MB big L2 but not the 512 KB little L2);
 * a few low-ILP kernels are slower on the big core at 0.8 GHz.
 */

#include "paper.hh"
#include "workload/spec.hh"

using namespace biglittle;

void
fig02SpecSpeedup(RunTable &, CsvWriter *csv)
{
    if (csv) {
        csv->header({"kernel", "big_1.9GHz", "big_1.3GHz",
                     "big_0.8GHz"});
    }

    Experiment experiment;
    std::printf("%s\n",
                (padRight("kernel", 14) + padLeft("big@1.9", 10) +
                 padLeft("big@1.3", 10) + padLeft("big@0.8", 10))
                    .c_str());
    std::puts("  (speedup over little@1.3GHz; one core, fixed freq)");

    const FreqKHz big_freqs[] = {1900000, 1300000, 800000};
    for (const SpecKernel &kernel : specSuite()) {
        const KernelRunResult base =
            experiment.runKernel(kernel, CoreType::little, 1300000);
        double speedups[3];
        for (int i = 0; i < 3; ++i) {
            const KernelRunResult big = experiment.runKernel(
                kernel, CoreType::big, big_freqs[i]);
            speedups[i] = static_cast<double>(base.runtime) /
                          static_cast<double>(big.runtime);
        }
        std::printf("%s%10.2f%10.2f%10.2f\n",
                    padRight(kernel.name, 14).c_str(), speedups[0],
                    speedups[1], speedups[2]);
        if (csv) {
            csv->beginRow();
            csv->cell(kernel.name);
            csv->cell(speedups[0]);
            csv->cell(speedups[1]);
            csv->cell(speedups[2]);
            csv->endRow();
        }
    }
}
