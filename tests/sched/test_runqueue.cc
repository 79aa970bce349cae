/**
 * @file
 * Tests for the per-core execution engine: dispatch, round-robin
 * timeslicing, migration mid-slice, frequency-change recomputation,
 * and core busy-flag maintenance.
 */

#include "base/strutil.hh"
#include "sched_fixture.hh"

using namespace biglittle;
using namespace biglittle::test;

using RunQueueTest = SchedFixture;

TEST_F(RunQueueTest, IdleCoreHasEmptyQueue)
{
    const CoreRunner &rq = sched.runner(0);
    EXPECT_EQ(rq.depth(), 0u);
    EXPECT_EQ(rq.running(), nullptr);
    EXPECT_FALSE(plat.core(0).busy());
}

TEST_F(RunQueueTest, EnqueueStartsExecutionAndSetsBusy)
{
    Task &t = sched.createTask("t", pureCompute(), CoreId{0});
    t.submitWork(1e8);
    CoreRunner &rq = sched.runner(0);
    EXPECT_EQ(rq.running(), &t);
    EXPECT_EQ(rq.depth(), 1u);
    EXPECT_TRUE(plat.core(0).busy());
}

TEST_F(RunQueueTest, CoreGoesIdleAfterDrain)
{
    Task &t = sched.createTask("t", pureCompute(), CoreId{0});
    t.submitWork(1e6);
    sim.runFor(msToTicks(50));
    EXPECT_FALSE(plat.core(0).busy());
    EXPECT_EQ(sched.runner(0).depth(), 0u);
    EXPECT_EQ(t.state(), TaskState::sleeping);
}

TEST_F(RunQueueTest, TwoTasksShareViaRoundRobin)
{
    Task &a = sched.createTask("a", pureCompute(), CoreId{0});
    Task &b = sched.createTask("b", pureCompute(), CoreId{0});
    a.submitWork(1e9);
    b.submitWork(1e9);
    CoreRunner &rq = sched.runner(0);
    EXPECT_EQ(rq.depth(), 2u);
    EXPECT_EQ(rq.running(), &a);
    // After one timeslice, b gets the core.
    sim.runFor(params.timeslice + oneMs);
    EXPECT_EQ(rq.running(), &b);
    EXPECT_EQ(a.state(), TaskState::queued);
    // And it rotates back.
    sim.runFor(params.timeslice);
    EXPECT_EQ(rq.running(), &a);
}

TEST_F(RunQueueTest, SharedCoreSplitsThroughputFairly)
{
    Task &a = sched.createTask("a", pureCompute(), CoreId{0});
    Task &b = sched.createTask("b", pureCompute(), CoreId{0});
    a.submitWork(1e9);
    b.submitWork(1e9);
    sim.runFor(msToTicks(600));
    sched.runner(0).chargeRunning();
    const double ra = a.instructionsRetired();
    const double rb = b.instructionsRetired();
    EXPECT_GT(ra, 0.0);
    EXPECT_NEAR(ra / rb, 1.0, 0.05);
    // Combined throughput matches one core's rate.
    const double rate = perf_model::instRate(plat.core(0),
                                             pureCompute());
    EXPECT_NEAR(ra + rb, rate * 0.6, rate * 0.6 * 0.02);
}

TEST_F(RunQueueTest, FreqChangeMidSliceAdjustsRate)
{
    plat.littleCluster().freqDomain().setFreqNow(500000);
    Task &t = sched.createTask("t", pureCompute(), CoreId{0});
    RecordingClient client;
    client.sim = &sim;
    t.setClient(&client);

    const double slow_rate =
        perf_model::instRateAt(plat.core(0), 500000, pureCompute());
    const double fast_rate =
        perf_model::instRateAt(plat.core(0), 1300000, pureCompute());
    // Work sized to 20 ms at the slow rate.
    t.submitWork(slow_rate * 0.020);
    sim.runFor(msToTicks(10)); // half done at slow rate
    plat.littleCluster().freqDomain().setFreqNow(1300000);
    sim.runFor(msToTicks(20));
    ASSERT_EQ(client.drains.size(), 1u);
    // Remaining half finishes at the fast rate.
    const double expected_ms =
        10.0 + (slow_rate * 0.010) / fast_rate * 1e3;
    EXPECT_NEAR(static_cast<double>(client.drains[0]) / oneMs,
                expected_ms, 0.4);
}

TEST_F(RunQueueTest, RemoveRunningTaskStartsNext)
{
    Task &a = sched.createTask("a", pureCompute(), CoreId{0});
    Task &b = sched.createTask("b", pureCompute(), CoreId{0});
    a.submitWork(1e9);
    b.submitWork(1e9);
    CoreRunner &rq0 = sched.runner(0);
    CoreRunner &rq1 = sched.runner(1);
    ASSERT_EQ(rq0.running(), &a);
    const double before = a.pendingInstructions();
    sim.runFor(oneMs);
    rq0.remove(a);
    EXPECT_LT(a.pendingInstructions(), before); // partial charge
    EXPECT_EQ(rq0.running(), &b);
    rq1.enqueue(a);
    EXPECT_EQ(rq1.running(), &a);
}

TEST_F(RunQueueTest, RemoveWaitingTaskKeepsRunner)
{
    Task &a = sched.createTask("a", pureCompute(), CoreId{0});
    Task &b = sched.createTask("b", pureCompute(), CoreId{0});
    a.submitWork(1e9);
    b.submitWork(1e9);
    CoreRunner &rq = sched.runner(0);
    ASSERT_EQ(rq.waiting().size(), 1u);
    rq.remove(b);
    EXPECT_EQ(rq.running(), &a);
    EXPECT_TRUE(rq.waiting().empty());
}

TEST_F(RunQueueTest, LoadSumAggregatesQueuedTasks)
{
    Task &a = sched.createTask("a", pureCompute(), CoreId{0});
    Task &b = sched.createTask("b", pureCompute(), CoreId{0});
    a.submitWork(1e9);
    b.submitWork(1e9);
    sim.runFor(msToTicks(50));
    const double sum = sched.runner(0).loadSum();
    EXPECT_NEAR(sum,
                a.loadTracker().value() + b.loadTracker().value(),
                1e-9);
    EXPECT_GT(sum, 0.0);
}

TEST_F(RunQueueTest, SlicesAreCounted)
{
    Task &a = sched.createTask("a", pureCompute(), CoreId{0});
    a.submitWork(1e9);
    sim.runFor(msToTicks(100));
    EXPECT_GE(sched.runner(0).slicesDispatched(), 1u);
}

TEST_F(RunQueueTest, ManyTasksAllComplete)
{
    std::vector<RecordingClient> clients(6);
    std::vector<Task *> tasks;
    for (int i = 0; i < 6; ++i) {
        Task &t = sched.createTask(format("t%d", i), pureCompute(),
                                   CoreId{0});
        clients[i].sim = &sim;
        t.setClient(&clients[i]);
        t.submitWork(2e6);
        tasks.push_back(&t);
    }
    sim.runFor(msToTicks(200));
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(clients[i].drains.size(), 1u) << i;
        EXPECT_EQ(tasks[i]->state(), TaskState::sleeping);
    }
    EXPECT_FALSE(plat.core(0).busy());
}
