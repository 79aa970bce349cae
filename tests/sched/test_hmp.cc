/**
 * @file
 * Tests for the HMP scheduling policy (Algorithm 1): up/down
 * migration on the load thresholds, wakeup placement, load
 * balancing, pinning, and the parameter presets of Section VI-C.
 */

#include <set>

#include "base/strutil.hh"
#include "sched_fixture.hh"
#include "sim/abrace.hh"

using namespace biglittle;
using namespace biglittle::test;

using HmpTest = SchedFixture;

TEST_F(HmpTest, NewTaskStartsOnLittle)
{
    Task &t = sched.createTask("t", pureCompute());
    t.submitWork(1e9);
    ASSERT_NE(t.core(), nullptr);
    EXPECT_EQ(t.core()->type(), CoreType::little);
}

TEST_F(HmpTest, SustainedLoadMigratesUp)
{
    Task &t = sched.createTask("t", pureCompute());
    t.submitWork(1e12); // effectively endless
    sim.runFor(msToTicks(200));
    ASSERT_NE(t.core(), nullptr);
    EXPECT_EQ(t.core()->type(), CoreType::big);
    EXPECT_GE(sched.stats().migrationsUp, 1u);
    EXPECT_GT(t.loadTracker().value(), params.upThreshold);
    EXPECT_EQ(t.typeMigrations(), 1u);
}

TEST_F(HmpTest, UpMigrationTimingMatchesHalfLife)
{
    // At full speed, load crosses 700/1024 after
    // -32 * log2(1 - 700/1024) ~ 53 ms of continuous execution.
    Task &t = sched.createTask("t", pureCompute());
    t.submitWork(1e12);
    sim.runFor(msToTicks(45));
    EXPECT_EQ(t.core()->type(), CoreType::little);
    sim.runFor(msToTicks(25));
    EXPECT_EQ(t.core()->type(), CoreType::big);
}

TEST_F(HmpTest, LowLoadOnBigMigratesDown)
{
    // Pin-free task placed on big by sustained load, then the work
    // pattern turns light: it must come back to little.
    Task &t = sched.createTask("t", pureCompute());
    RecordingClient client;
    client.sim = &sim;
    t.setClient(&client);
    t.submitWork(1e12);
    sim.runFor(msToTicks(200));
    ASSERT_EQ(t.core()->type(), CoreType::big);
    // Cut the backlog: drain by consuming everything.
    sched.runner(t.core()->id()).remove(t);
    t.consumeAll();
    t.noteSleeping(sim.now());
    // Light duty cycle now: 0.5 ms of work every 20 ms.
    for (int i = 0; i < 40; ++i) {
        const double rate = perf_model::instRate(
            plat.bigCluster().core(0), pureCompute());
        t.submitWork(rate * 0.0005);
        sim.runFor(msToTicks(20));
    }
    ASSERT_NE(t.lastCoreId(), invalidCoreId);
    // The decayed wakeup load places the now-light task back on the
    // little cluster.
    EXPECT_EQ(plat.core(t.lastCoreId()).type(), CoreType::little);
}

TEST_F(HmpTest, TickTimeDownMigrationFires)
{
    // A task continuously running on a big core at the minimum big
    // frequency contributes load 1024 * (0.8/1.9) ~ 431; with a
    // down-threshold above that, the tick migration pass must kick
    // it back to a little core.
    SchedParams p = baselineSchedParams();
    p.downThreshold = 500;
    p.upMigrationBoostFreq = 0; // keep the big cluster at 0.8 GHz
    Simulation sim2;
    AsymmetricPlatform plat2(sim2, exynos5422Params());
    plat2.littleCluster().freqDomain().setFreqNow(1300000);
    plat2.bigCluster().freqDomain().setFreqNow(800000);
    HmpScheduler sched2(sim2, plat2, p);
    sched2.start();
    Task &t = sched2.createTask("t", WorkClass{0.8, 0.0, 64.0});
    // Saturate the (frozen) load so the task wakes on a big core.
    t.loadTracker().update(1.0, 1.0, 1000);
    t.submitWork(1e12);
    ASSERT_EQ(t.core()->type(), CoreType::big);
    sim2.runFor(msToTicks(500));
    // The load then rebuilds on the fast little core and crosses the
    // up-threshold again: with such synthetic thresholds the task
    // ping-pongs, so assert both directions fired rather than a
    // final resting place.
    EXPECT_GE(sched2.stats().migrationsDown, 1u);
    EXPECT_GE(sched2.stats().migrationsUp, 1u);
    EXPECT_GE(t.typeMigrations(), 2u);
}

TEST_F(HmpTest, FrozenHighLoadWakesOnBig)
{
    Task &t = sched.createTask("t", pureCompute());
    t.loadTracker().update(1.0, 1.0, 1000); // saturate while asleep
    t.submitWork(1e6);
    ASSERT_NE(t.core(), nullptr);
    EXPECT_EQ(t.core()->type(), CoreType::big);
}

TEST_F(HmpTest, PinnedTaskNeverMigrates)
{
    Task &t = sched.createTask("t", pureCompute(), CoreId{1});
    t.submitWork(1e12);
    sim.runFor(msToTicks(300));
    ASSERT_NE(t.core(), nullptr);
    EXPECT_EQ(t.core()->id(), 1u);
    EXPECT_GT(t.loadTracker().value(), params.upThreshold);
    EXPECT_EQ(t.typeMigrations(), 0u);
}

TEST_F(HmpTest, PinnedWakeupOnOfflineCoreBreaksAffinity)
{
    Task &t = sched.createTask("t", pureCompute(), CoreId{1});
    t.submitWork(1e6);
    sim.runFor(msToTicks(100));
    ASSERT_EQ(t.state(), TaskState::sleeping);

    // The pinned core vanishes while the task sleeps (hotplug
    // fault); the wakeup must place it elsewhere instead of
    // crashing, and count the broken affinity.
    ASSERT_TRUE(plat.setCoreOnline(1, false).ok());
    t.submitWork(1e6);
    ASSERT_NE(t.core(), nullptr);
    EXPECT_NE(t.core()->id(), 1u);
    EXPECT_TRUE(t.core()->online());
    EXPECT_EQ(sched.stats().affinityBreaks, 1u);
}

TEST_F(HmpTest, LoadFrozenWhileSleeping)
{
    Task &t = sched.createTask("t", pureCompute());
    t.submitWork(1e12);
    sim.runFor(msToTicks(30));
    sched.runner(t.core()->id()).remove(t);
    t.consumeAll();
    t.noteSleeping(sim.now());
    const double frozen = t.loadTracker().value();
    sim.runFor(msToTicks(500));
    EXPECT_DOUBLE_EQ(t.loadTracker().value(), frozen);
}

TEST_F(HmpTest, BalancerSpreadsBacklogWithinCluster)
{
    // Eight runnable tasks forced awake at the same instant on the
    // little cluster must end up spread across its four cores.
    std::vector<Task *> tasks;
    for (int i = 0; i < 8; ++i) {
        Task &t = sched.createTask(format("t%d", i), pureCompute());
        t.submitWork(1e11);
        tasks.push_back(&t);
    }
    sim.runFor(msToTicks(10));
    std::size_t max_depth = 0;
    std::size_t min_depth = 100;
    for (CoreId id = 0; id < 4; ++id) {
        max_depth = std::max(max_depth, sched.runner(id).depth());
        min_depth = std::min(min_depth, sched.runner(id).depth());
    }
    EXPECT_LE(max_depth - min_depth, 1u);
    EXPECT_EQ(sched.runner(0).depth() + sched.runner(1).depth() +
                  sched.runner(2).depth() + sched.runner(3).depth(),
              8u);
}

TEST_F(HmpTest, WakeupsSpreadAcrossIdleCores)
{
    // Simultaneously woken independent tasks take distinct cores.
    std::vector<Task *> tasks;
    for (int i = 0; i < 4; ++i) {
        Task &t = sched.createTask(format("t%d", i), pureCompute());
        t.submitWork(1e9);
        tasks.push_back(&t);
    }
    std::set<CoreId> cores;
    for (Task *t : tasks)
        cores.insert(t->core()->id());
    EXPECT_EQ(cores.size(), 4u);
}

TEST_F(HmpTest, OfflineCoresAreNeverChosen)
{
    plat.applyCoreConfig({2, 0, "L2"});
    for (int i = 0; i < 6; ++i) {
        Task &t = sched.createTask(format("t%d", i), pureCompute());
        t.submitWork(1e11);
    }
    sim.runFor(msToTicks(300));
    for (CoreId id = 2; id < 8; ++id)
        EXPECT_EQ(sched.runner(id).depth(), 0u) << "core " << id;
}

TEST_F(HmpTest, NoBigCoresMeansNoUpMigration)
{
    plat.applyCoreConfig({4, 0, "L4"});
    Task &t = sched.createTask("t", pureCompute());
    t.submitWork(1e12);
    sim.runFor(msToTicks(300));
    EXPECT_EQ(t.core()->type(), CoreType::little);
    EXPECT_EQ(sched.stats().migrationsUp, 0u);
}

TEST_F(HmpTest, AggressiveParamsMigrateSooner)
{
    // Run two schedulers side by side (separate rigs) and compare
    // the time of the first up-migration.
    auto first_migration_ms = [](const SchedParams &p) -> double {
        Simulation sim2;
        AsymmetricPlatform plat2(sim2, exynos5422Params());
        plat2.littleCluster().freqDomain().setFreqNow(1300000);
        plat2.bigCluster().freqDomain().setFreqNow(1900000);
        HmpScheduler sched2(sim2, plat2, p);
        sched2.start();
        Task &t = sched2.createTask("t", WorkClass{0.8, 0.0, 64.0});
        t.submitWork(1e12);
        for (int ms = 0; ms < 500; ++ms) {
            sim2.runFor(oneMs);
            if (t.core() != nullptr &&
                t.core()->type() == CoreType::big)
                return ms;
        }
        return 1e9;
    };
    const double aggressive =
        first_migration_ms(aggressiveSchedParams());
    const double baseline = first_migration_ms(baselineSchedParams());
    const double conservative =
        first_migration_ms(conservativeSchedParams());
    EXPECT_LT(aggressive, baseline);
    EXPECT_LT(baseline, conservative);
}

TEST_F(HmpTest, SchedParamPresetsMatchPaper)
{
    EXPECT_EQ(baselineSchedParams().upThreshold, 700u);
    EXPECT_EQ(baselineSchedParams().downThreshold, 256u);
    EXPECT_DOUBLE_EQ(baselineSchedParams().loadHalfLifeMs, 32.0);
    EXPECT_EQ(conservativeSchedParams().upThreshold, 850u);
    EXPECT_EQ(conservativeSchedParams().downThreshold, 400u);
    EXPECT_EQ(aggressiveSchedParams().upThreshold, 550u);
    EXPECT_EQ(aggressiveSchedParams().downThreshold, 100u);
    EXPECT_DOUBLE_EQ(doubleHistorySchedParams().loadHalfLifeMs, 64.0);
    EXPECT_DOUBLE_EQ(halfHistorySchedParams().loadHalfLifeMs, 16.0);
}

TEST_F(HmpTest, StatsTickCountAdvances)
{
    sim.runFor(msToTicks(25));
    EXPECT_GE(sched.stats().ticks, 24u);
}

TEST_F(HmpTest, IdleTickStillCountsAndDeclaresItsAccesses)
{
    // With every run queue empty the tick skips its load, migration
    // and balance passes, but it still fires, counts itself and
    // declares its run-queue writes to an attached detector.
    RaceDetector race;
    sim.eventQueue().setRaceDetector(&race);
    const auto ticks = sched.stats().ticks;
    const auto tracked = race.eventsTracked();
    sim.runFor(msToTicks(20));
    EXPECT_EQ(sched.stats().ticks - ticks, 20u);
    EXPECT_EQ(race.eventsTracked() - tracked, 20u);
    sim.eventQueue().setRaceDetector(nullptr);
}

TEST_F(HmpTest, StopHaltsTicking)
{
    sim.runFor(msToTicks(5));
    const auto ticks = sched.stats().ticks;
    sched.stop();
    sim.runFor(msToTicks(50));
    EXPECT_EQ(sched.stats().ticks, ticks);
}
