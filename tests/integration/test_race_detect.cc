/**
 * @file
 * abrace integration tests: representative fig09 (baseline config)
 * and fig13 (parameter sweep) runs must be free of same-tick event
 * order conflicts, and a permuted tie-break replay of each must land
 * on a bit-identical end state (docs/DETERMINISM.md).  A deliberately
 * injected same-tick write-write conflict must be caught by both
 * detectors: reported by abrace and visible as a digest divergence
 * under a permuted order.
 */

#include <gtest/gtest.h>

#include "base/serialize.hh"
#include "core/experiment.hh"
#include "sim/abrace.hh"
#include "sim/simulation.hh"
#include "workload/apps.hh"

using namespace biglittle;

namespace
{

/** Shortened run of @p app under @p cfg with abrace attached. */
AppRunResult
runTracked(ExperimentConfig cfg, const AppSpec &app_in,
           TieBreak tie_break)
{
    AppSpec app = app_in;
    if (app.metric == AppMetric::fps)
        app.duration = msToTicks(2500);
    cfg.race.detect = true;
    cfg.race.tieBreak = tie_break;
    Experiment experiment(cfg);
    return experiment.runApp(app);
}

void
expectPermutationInvariant(const ExperimentConfig &cfg,
                           const AppSpec &app)
{
    const AppRunResult fifo = runTracked(cfg, app, TieBreak::fifo);
    EXPECT_EQ(fifo.raceConflicts, 0u) << fifo.raceReport;

    const AppRunResult lifo = runTracked(cfg, app, TieBreak::lifo);
    EXPECT_EQ(lifo.raceConflicts, 0u) << lifo.raceReport;
    const Status lifo_match = compareStateDigests(fifo, lifo);
    EXPECT_TRUE(lifo_match.ok())
        << "lifo rerun diverged: " << lifo_match.toString();

    const AppRunResult shuffled =
        runTracked(cfg, app, TieBreak::shuffle);
    EXPECT_EQ(shuffled.raceConflicts, 0u) << shuffled.raceReport;
    const Status shuffle_match = compareStateDigests(fifo, shuffled);
    EXPECT_TRUE(shuffle_match.ok())
        << "shuffled rerun diverged: " << shuffle_match.toString();

    // The metrics the figures are built from must agree too.
    EXPECT_EQ(fifo.frames, lifo.frames);
    EXPECT_DOUBLE_EQ(fifo.performanceValue(),
                     lifo.performanceValue());
    EXPECT_DOUBLE_EQ(fifo.avgPowerMw, lifo.avgPowerMw);
    EXPECT_DOUBLE_EQ(fifo.performanceValue(),
                     shuffled.performanceValue());
}

} // namespace

TEST(RaceDetect, Fig09BaselineCleanAndPermutationInvariant)
{
    ExperimentConfig cfg;
    cfg.label = "baseline";
    expectPermutationInvariant(cfg, eternityWarrior2App());
}

TEST(RaceDetect, Fig09LatencyAppCleanAndPermutationInvariant)
{
    ExperimentConfig cfg;
    cfg.label = "baseline";
    expectPermutationInvariant(cfg, virusScannerApp());
}

TEST(RaceDetect, Fig13SweepPointCleanAndPermutationInvariant)
{
    // interval-60ms: the first Section VI-C sweep point (Figs 11-13).
    ExperimentConfig cfg;
    cfg.interactive = interval60Params();
    cfg.label = "interval-60ms";
    expectPermutationInvariant(cfg, angryBirdApp());
}

TEST(RaceDetect, InjectedWriteWriteConflictIsCaughtBothWays)
{
    // Two unordered events at one (tick, priority) whose combined
    // effect is order-dependent: x += 1 vs x *= 2.  abrace must
    // report the write-write pair, and a permuted rerun must produce
    // a different state digest.
    const auto run = [](TieBreak tie_break, RaceDetector *race) {
        Simulation sim;
        if (race != nullptr)
            sim.eventQueue().setRaceDetector(race);
        sim.eventQueue().setTieBreak(tie_break, 7);
        std::uint64_t x = 3;
        sim.at(10, [&] {
            sim.noteWrite("toy", "x");
            x += 1;
        }, EventPriority::taskState, "toy.add");
        sim.at(10, [&] {
            sim.noteWrite("toy", "x");
            x *= 2;
        }, EventPriority::taskState, "toy.double");
        sim.runUntil(20);
        if (race != nullptr) {
            race->finish();
            sim.eventQueue().setRaceDetector(nullptr);
        }
        Serializer s;
        s.putU64(x);
        return s.digest();
    };

    RaceDetector race;
    const std::uint64_t fifo_digest = run(TieBreak::fifo, &race);
    ASSERT_EQ(race.conflicts().size(), 1u);
    const RaceDetector::Conflict &c = race.conflicts()[0];
    EXPECT_EQ(c.cell, "toy/x");
    EXPECT_TRUE(c.writeA && c.writeB);
    EXPECT_EQ(c.eventA, "toy.add");
    EXPECT_EQ(c.eventB, "toy.double");
    EXPECT_NE(race.report().find("write-write"), std::string::npos);

    const std::uint64_t lifo_digest = run(TieBreak::lifo, nullptr);
    EXPECT_NE(fifo_digest, lifo_digest)
        << "permuted tie-break failed to expose the injected race";
}

TEST(RaceDetect, FaultInjectionRunIsCleanUnderPermutation)
{
    // The fault injector adds deferred-priority draw/replug events
    // and synthesized work; the whole ensemble must still commute.
    ExperimentConfig cfg;
    cfg.label = "faulty";
    cfg.fault = scaledFaultParams(1.0, 42);
    expectPermutationInvariant(cfg, eternityWarrior2App());
}
