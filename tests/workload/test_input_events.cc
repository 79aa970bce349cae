/**
 * @file
 * Tests for the scripted and Poisson input-event sources.
 */

#include <gtest/gtest.h>

#include "base/strutil.hh"
#include "platform/platform.hh"
#include "sched/hmp.hh"
#include "sim/simulation.hh"
#include "workload/input_events.hh"

using namespace biglittle;

namespace
{

class InputEventsTest : public ::testing::Test
{
  protected:
    Simulation sim;
    AsymmetricPlatform plat{sim, exynos5422Params()};
    HmpScheduler sched{sim, plat, baselineSchedParams()};
    Task *task = nullptr;
    std::unique_ptr<BurstBehavior> behavior;

    void
    SetUp() override
    {
        plat.littleCluster().freqDomain().setFreqNow(1300000);
        sched.start();
        task = &sched.createTask("ui", WorkClass{0.8, 0.0, 64.0});
        behavior =
            std::make_unique<BurstBehavior>(sim, *task, Rng(1));
    }
};

} // namespace

TEST_F(InputEventsTest, ScriptedFiresAtExactTimes)
{
    std::vector<Tick> drains;
    behavior->setDrainListener(
        [&](BurstBehavior &, Tick now) { drains.push_back(now); });
    ScriptedInputSource source(
        sim, *behavior,
        {{msToTicks(10), 1e5}, {msToTicks(30), 1e5},
         {msToTicks(60), 1e5}});
    source.start();
    EXPECT_EQ(source.total(), 3u);
    sim.runFor(msToTicks(100));
    EXPECT_EQ(source.fired(), 3u);
    ASSERT_EQ(drains.size(), 3u);
    // Each burst (~0.1 ms of work) drains right after its event.
    EXPECT_GE(drains[0], msToTicks(10));
    EXPECT_LT(drains[0], msToTicks(12));
    EXPECT_GE(drains[1], msToTicks(30));
    EXPECT_GE(drains[2], msToTicks(60));
}

TEST_F(InputEventsTest, ScriptedEmptyIsFine)
{
    ScriptedInputSource source(sim, *behavior, {});
    source.start();
    sim.runFor(msToTicks(10));
    EXPECT_EQ(source.fired(), 0u);
}

TEST_F(InputEventsTest, ScriptedRejectsUnsortedEvents)
{
    EXPECT_DEATH(ScriptedInputSource(
                     sim, *behavior,
                     {{msToTicks(30), 1e5}, {msToTicks(10), 1e5}}),
                 "assertion");
}

TEST_F(InputEventsTest, ScriptedPastEventIsClampedToNow)
{
    sim.runFor(msToTicks(50));
    std::vector<Tick> drains;
    behavior->setDrainListener(
        [&](BurstBehavior &, Tick now) { drains.push_back(now); });
    ScriptedInputSource source(
        sim, *behavior,
        {{msToTicks(10), 1e5}, {msToTicks(80), 1e5}});
    source.start();
    sim.runFor(msToTicks(100));
    // The late event fires immediately instead of killing the run;
    // the on-time one keeps its scheduled slot.
    EXPECT_EQ(source.fired(), 2u);
    EXPECT_EQ(source.clamped(), 1u);
    ASSERT_EQ(drains.size(), 2u);
    EXPECT_GE(drains[0], msToTicks(50));
    EXPECT_LT(drains[0], msToTicks(55));
    EXPECT_GE(drains[1], msToTicks(80));
}

TEST_F(InputEventsTest, PoissonRateConverges)
{
    PoissonInputParams params;
    params.meanInterArrival = msToTicks(50);
    params.medianBurst = 1e5;
    PoissonInputSource source(sim, *behavior, params, Rng(7));
    source.start();
    sim.runFor(msToTicks(20000));
    // Expect ~400 events over 20 s at one per 50 ms.
    EXPECT_NEAR(static_cast<double>(source.fired()), 400.0, 60.0);
    EXPECT_EQ(behavior->burstsDone(), source.fired());
}

TEST_F(InputEventsTest, PoissonStopHalts)
{
    PoissonInputParams params;
    params.meanInterArrival = msToTicks(20);
    params.medianBurst = 1e5;
    PoissonInputSource source(sim, *behavior, params, Rng(8));
    source.start();
    sim.runFor(msToTicks(500));
    source.stop();
    const auto count = source.fired();
    EXPECT_GT(count, 0u);
    sim.runFor(msToTicks(500));
    EXPECT_EQ(source.fired(), count);
}

TEST_F(InputEventsTest, PoissonIsDeterministicPerSeed)
{
    auto run_once = [this](std::uint64_t seed) {
        Task &t = sched.createTask(
            format("t%llu", static_cast<unsigned long long>(seed)),
            WorkClass{0.8, 0.0, 64.0});
        BurstBehavior b(sim, t, Rng(seed));
        PoissonInputParams params;
        params.meanInterArrival = msToTicks(30);
        params.medianBurst = 1e5;
        PoissonInputSource source(sim, b, params, Rng(seed));
        source.start();
        sim.runFor(msToTicks(2000));
        source.stop();
        return source.fired();
    };
    const auto a = run_once(11);
    const auto b = run_once(11);
    EXPECT_EQ(a, b);
}

TEST_F(InputEventsTest, PoissonDrivesLoadAndMigration)
{
    // Heavy frequent bursts must eventually push the UI task onto a
    // big core - the end-to-end path the paper's latency apps take.
    plat.bigCluster().freqDomain().setFreqNow(1900000);
    PoissonInputParams params;
    params.meanInterArrival = msToTicks(40);
    params.medianBurst = 60e6;
    PoissonInputSource source(sim, *behavior, params, Rng(9));
    source.start();
    sim.runFor(msToTicks(3000));
    EXPECT_GT(task->runtimeOn(CoreType::big), 0u);
}
