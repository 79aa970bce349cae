/**
 * @file
 * Golden check of the paper suite: perfbench's paper_suite conditions
 * (the 7 standardCoreConfigs(), the forced 4-big condition and the 8
 * parameterSweep() points) x allApps(), condition-major, at
 * masterSeed 0.  Each run's headline metrics (%.17g) and per-section
 * state digests must equal the `run ` lines of
 * perfbench/reference/paper_suite.txt, read in place.  Regenerate that
 * file only when simulated behaviour is meant to change:
 * `python3 perfbench/run.py --write-reference`.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "base/strutil.hh"
#include "bench_util.hh"
#include "core/experiment.hh"
#include "workload/apps.hh"

using namespace biglittle;

namespace
{

const std::string referencePath = PAPER_SUITE_REFERENCE;

std::vector<ExperimentConfig>
paperConditions()
{
    std::vector<ExperimentConfig> conds;
    for (const CoreConfig &cc : standardCoreConfigs()) {
        ExperimentConfig cfg;
        cfg.coreConfig = cc;
        cfg.label = cc.label;
        conds.push_back(cfg);
    }
    conds.push_back(bigOnlyConfig());
    for (const SweepPoint &point : parameterSweep())
        conds.push_back(point.config);
    return conds;
}

/** One run as the reference writes it. */
std::string
recordLine(const AppRunResult &r)
{
    std::string line = format(
        "%s|%s|perf=%.17g|min_fps=%.17g|power_mw=%.17g|sim_ticks=%llu",
        r.configLabel.c_str(), r.app.c_str(), r.performanceValue(),
        r.minFps, r.avgPowerMw,
        static_cast<unsigned long long>(r.simulatedTime));
    for (const auto &[name, digest] : r.stateDigests) {
        line += format("|%s=%016llx", name.c_str(),
                       static_cast<unsigned long long>(digest));
    }
    return line;
}

std::vector<std::string>
referenceRuns()
{
    std::ifstream in(referencePath);
    EXPECT_TRUE(in.good()) << referencePath;
    std::vector<std::string> runs;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("run ", 0) == 0)
            runs.push_back(line.substr(4));
    }
    return runs;
}

} // namespace

TEST(PaperSuiteGolden, Seed0RunsMatchReference)
{
    const std::vector<std::string> want = referenceRuns();
    const std::vector<AppSpec> apps = allApps();
    std::size_t i = 0;
    for (const ExperimentConfig &cfg : paperConditions()) {
        for (const AppSpec &app : apps) {
            const std::string got =
                recordLine(Experiment(cfg).runApp(app));
            ASSERT_LT(i, want.size())
                << "more runs than " << referencePath
                << " holds; first extra:\n  " << got;
            if (got != want[i]) {
                FAIL() << "run #" << i << " differs from "
                       << referencePath << "\n  got:       " << got
                       << "\n  reference: " << want[i];
            }
            ++i;
        }
    }
    EXPECT_EQ(i, want.size()) << "fewer runs than " << referencePath
                              << " holds";
}
