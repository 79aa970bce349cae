/**
 * @file
 * Chaos smoke test: full app runs under randomized (but seeded)
 * fault schedules.  Whatever the injector throws at the system -
 * hotplugged cores, denied DVFS transitions, thermal-sensor spikes,
 * stalled tasks - every simulation invariant must hold and no run
 * may abort.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "supervise/supervisor.hh"
#include "workload/apps.hh"

using namespace biglittle;

namespace
{

AppSpec
shortApp(AppSpec app, Tick duration = msToTicks(2000))
{
    app.duration = duration;
    return app;
}

} // namespace

TEST(Chaos, TenSeedsZeroInvariantViolations)
{
    std::uint64_t injected = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        ExperimentConfig cfg;
        cfg.fault = scaledFaultParams(2.0, seed);
        cfg.label = "chaos";
        const AppRunResult r =
            Experiment(cfg).runApp(shortApp(eternityWarrior2App()));
        EXPECT_TRUE(r.completed) << "seed " << seed;
        EXPECT_EQ(r.invariantViolations, 0u) << "seed " << seed;
        injected += r.faults.totalInjected();
    }
    // The sweep only means something if faults actually landed.
    EXPECT_GT(injected, 0u);
}

TEST(Chaos, LatencyAppSurvivesFaults)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        ExperimentConfig cfg;
        cfg.fault = scaledFaultParams(1.0, seed);
        cfg.maxSimTime = msToTicks(60000);
        const AppRunResult r =
            Experiment(cfg).runApp(pdfReaderApp());
        EXPECT_TRUE(r.completed) << "seed " << seed;
        EXPECT_EQ(r.invariantViolations, 0u) << "seed " << seed;
        EXPECT_GT(r.latency, 0u);
    }
}

TEST(Chaos, HighFaultRateStillHoldsInvariants)
{
    ExperimentConfig cfg;
    cfg.fault = scaledFaultParams(8.0, 77);
    const AppRunResult r =
        Experiment(cfg).runApp(shortApp(videoPlayerApp()));
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.invariantViolations, 0u);
    EXPECT_GT(r.faults.totalInjected(), 0u);
}

TEST(Chaos, FaultRunsAreDeterministic)
{
    ExperimentConfig cfg;
    cfg.fault = scaledFaultParams(2.0, 5);
    const AppRunResult a =
        Experiment(cfg).runApp(shortApp(angryBirdApp()));
    const AppRunResult b =
        Experiment(cfg).runApp(shortApp(angryBirdApp()));
    EXPECT_EQ(a.avgFps, b.avgFps);
    EXPECT_EQ(a.faults.hotplugOff, b.faults.hotplugOff);
    EXPECT_EQ(a.faults.dvfsDenied, b.faults.dvfsDenied);
    EXPECT_EQ(a.faults.thermalSpikes, b.faults.thermalSpikes);
    EXPECT_EQ(a.faults.taskStalls, b.faults.taskStalls);
    EXPECT_EQ(a.energy.totalMj(), b.energy.totalMj());
}

namespace
{

/**
 * A chaos config the plain run loop cannot survive: on top of the
 * recoverable classes, unrecoverable crashes and invariant breaks are
 * armed, so the run completes only if the supervisor recovers it.
 */
ExperimentConfig
supervisedChaosConfig(std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.fault = scaledFaultParams(2.0, seed);
    cfg.fault.crashRatePerSec = 0.4;
    cfg.fault.invariantBreakRatePerSec = 0.4;
    cfg.masterSeed = seed;
    cfg.label = "chaos_supervised";
    cfg.snapshot.checkpointEvery = msToTicks(200);
    return cfg;
}

} // namespace

TEST(SupervisedChaos, TenSeedsZeroAbortedRuns)
{
    // The ISSUE acceptance gate: a supervised sweep over ten seeds
    // with unrecoverable faults armed loses no run - every cell ends
    // clean, recovered, or degraded, never failed.
    std::uint32_t recoveries = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Supervisor supervisor(supervisedChaosConfig(seed));
        const SupervisedRunResult r =
            supervisor.run(shortApp(eternityWarrior2App()));
        EXPECT_NE(r.report.outcome, RecoveryOutcome::failed)
            << "seed " << seed << "\n" << r.report.toString();
        EXPECT_FALSE(r.run.failed) << "seed " << seed;
        EXPECT_TRUE(r.run.completed) << "seed " << seed;
        if (r.report.outcome != RecoveryOutcome::clean)
            ++recoveries;
    }
    // The gate only means something if the supervisor actually had
    // to step in somewhere in the sweep.
    EXPECT_GT(recoveries, 0u);
}

TEST(SupervisedChaos, RecoveryIsDeterministicPerSeed)
{
    // Two supervised runs of the same master seed must make
    // byte-identical recovery decisions and reach the same final
    // state digest.  Seed 3 exercises the full ladder (rollback,
    // exponential re-rollback, class disable) under this config.
    const auto run_once = [] {
        Supervisor supervisor(supervisedChaosConfig(3));
        return supervisor.run(shortApp(eternityWarrior2App()));
    };
    const SupervisedRunResult a = run_once();
    const SupervisedRunResult b = run_once();
    EXPECT_EQ(a.report.toString(), b.report.toString());
    EXPECT_EQ(a.report.digest(), b.report.digest());
    EXPECT_EQ(a.report.finalStateDigest, b.report.finalStateDigest);
    EXPECT_EQ(a.report.finalStateDigest, finalStateDigest(a.run));
}

TEST(Chaos, FaultFreeBaselineIsUnperturbed)
{
    // A disabled fault config must not change results at all.
    ExperimentConfig plain;
    ExperimentConfig with_knob;
    with_knob.fault = scaledFaultParams(0.0);
    const AppSpec app = shortApp(videoPlayerApp());
    const AppRunResult a = Experiment(plain).runApp(app);
    const AppRunResult b = Experiment(with_knob).runApp(app);
    EXPECT_EQ(a.avgFps, b.avgFps);
    EXPECT_EQ(a.energy.totalMj(), b.energy.totalMj());
    EXPECT_EQ(b.faults.totalInjected(), 0u);
    EXPECT_EQ(b.invariantViolations, 0u);
}
