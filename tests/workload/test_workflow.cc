/**
 * @file
 * Tests for the WorkflowDriver: action sequencing, fan-out barriers,
 * think times, and latency measurement.
 */

#include <gtest/gtest.h>

#include "base/strutil.hh"
#include "platform/perf_model.hh"
#include "platform/platform.hh"
#include "sched/hmp.hh"
#include "sim/simulation.hh"
#include "workload/workflow.hh"

using namespace biglittle;

namespace
{

class WorkflowTest : public ::testing::Test
{
  protected:
    Simulation sim;
    AsymmetricPlatform plat{sim, exynos5422Params()};
    HmpScheduler sched{sim, plat, baselineSchedParams()};

    std::unique_ptr<BurstBehavior> ui;
    std::vector<std::unique_ptr<BurstBehavior>> workers;
    std::vector<BurstBehavior *> workerPtrs;

    void
    SetUp() override
    {
        plat.littleCluster().freqDomain().setFreqNow(1300000);
        plat.bigCluster().freqDomain().setFreqNow(1900000);
        sched.start();
        const WorkClass wc{0.8, 0.0, 64.0};
        Task &ui_task = sched.createTask("ui", wc);
        ui = std::make_unique<BurstBehavior>(sim, ui_task, Rng(1));
        for (int i = 0; i < 2; ++i) {
            Task &t = sched.createTask(format("w%d", i), wc);
            workers.push_back(
                std::make_unique<BurstBehavior>(sim, t, Rng(2 + i)));
            workerPtrs.push_back(workers.back().get());
        }
    }

    double
    littleRate()
    {
        return perf_model::instRate(plat.littleCluster().core(0),
                                    WorkClass{0.8, 0.0, 64.0});
    }
};

} // namespace

TEST_F(WorkflowTest, SingleActionCompletes)
{
    std::vector<ActionSpec> actions = {
        {1e6, {2e6, 3e6}, msToTicks(0)},
    };
    WorkflowDriver driver(sim, *ui, workerPtrs, actions, Rng(9), 0.0);
    EXPECT_FALSE(driver.done());
    driver.start();
    sim.runFor(msToTicks(200));
    EXPECT_TRUE(driver.done());
    EXPECT_EQ(driver.actionsCompleted(), 1u);
    EXPECT_GT(driver.latency(), 0u);
}

TEST_F(WorkflowTest, LatencyMatchesCriticalPath)
{
    // One action: ui 1 ms, workers 5 ms and 2 ms in parallel; the
    // latency is the slowest leg (5 ms) as all start together.
    const double r = littleRate();
    std::vector<ActionSpec> actions = {
        {r * 0.001, {r * 0.005, r * 0.002}, msToTicks(0)},
    };
    WorkflowDriver driver(sim, *ui, workerPtrs, actions, Rng(9), 0.0);
    driver.start();
    sim.runFor(msToTicks(100));
    ASSERT_TRUE(driver.done());
    EXPECT_NEAR(static_cast<double>(driver.latency()) /
                    static_cast<double>(oneMs),
                5.0, 0.5);
}

TEST_F(WorkflowTest, ThinkTimeSeparatesActions)
{
    const double r = littleRate();
    std::vector<ActionSpec> actions = {
        {r * 0.001, {0.0, 0.0}, msToTicks(50)},
        {r * 0.001, {0.0, 0.0}, msToTicks(0)},
    };
    WorkflowDriver driver(sim, *ui, workerPtrs, actions, Rng(9), 0.0);
    driver.start();
    sim.runFor(msToTicks(500));
    ASSERT_TRUE(driver.done());
    // ~1 ms + 50 ms think + ~1 ms.
    EXPECT_NEAR(static_cast<double>(driver.latency()) /
                    static_cast<double>(oneMs),
                52.0, 1.0);
}

TEST_F(WorkflowTest, ZeroWorkerEntriesAreSkipped)
{
    std::vector<ActionSpec> actions = {
        {1e6, {0.0, 1e6}, msToTicks(0)},
        {1e6, {}, msToTicks(0)}, // no workers at all
    };
    WorkflowDriver driver(sim, *ui, workerPtrs, actions, Rng(9), 0.0);
    driver.start();
    sim.runFor(msToTicks(500));
    EXPECT_TRUE(driver.done());
    EXPECT_EQ(workers[0]->burstsDone(), 0u);
    EXPECT_EQ(workers[1]->burstsDone(), 1u);
    EXPECT_EQ(ui->burstsDone(), 2u);
}

TEST_F(WorkflowTest, ActionsRunInOrder)
{
    const double r = littleRate();
    std::vector<ActionSpec> actions(
        5, ActionSpec{r * 0.002, {r * 0.002, 0.0}, msToTicks(10)});
    WorkflowDriver driver(sim, *ui, workerPtrs, actions, Rng(9), 0.0);
    driver.start();
    for (int expected = 1; expected <= 5; ++expected) {
        sim.runFor(msToTicks(12));
        EXPECT_EQ(driver.actionsCompleted(),
                  static_cast<std::size_t>(expected));
    }
    EXPECT_TRUE(driver.done());
}

TEST_F(WorkflowTest, JitterPreservesDeterminism)
{
    // Two identical drivers with equal seeds produce identical
    // latencies even with jitter enabled.
    auto run_once = [](std::uint64_t seed) {
        Simulation sim2;
        AsymmetricPlatform plat2(sim2, exynos5422Params());
        plat2.littleCluster().freqDomain().setFreqNow(1300000);
        HmpScheduler sched2(sim2, plat2, baselineSchedParams());
        sched2.start();
        const WorkClass wc{0.8, 0.0, 64.0};
        Task &ui_task = sched2.createTask("ui", wc);
        BurstBehavior ui2(sim2, ui_task, Rng(seed));
        std::vector<ActionSpec> actions(
            4, ActionSpec{5e6, {}, msToTicks(5)});
        WorkflowDriver driver(sim2, ui2, {}, actions, Rng(seed), 0.3);
        driver.start();
        sim2.runFor(msToTicks(1000));
        return driver.latency();
    };
    EXPECT_EQ(run_once(11), run_once(11));
    EXPECT_NE(run_once(11), run_once(12));
}

TEST_F(WorkflowTest, LatencyBeforeDoneAsserts)
{
    std::vector<ActionSpec> actions = {{1e9, {}, 0}};
    WorkflowDriver driver(sim, *ui, workerPtrs, actions, Rng(9));
    driver.start();
    EXPECT_DEATH((void)driver.latency(), "assertion");
}

TEST(WorkerSplitDeathTest, MoreBurstsThanCapacityPanics)
{
    static_assert(WorkerSplit::capacity < 9);
    EXPECT_DEATH(WorkerSplit({1, 2, 3, 4, 5, 6, 7, 8, 9}), "assertion");
}
