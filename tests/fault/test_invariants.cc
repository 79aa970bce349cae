/**
 * @file
 * Tests for the InvariantChecker: a healthy system passes every
 * sweep, and manufactured bad states are flagged (without
 * crashing).
 */

#include <gtest/gtest.h>

#include "fault/invariants.hh"
#include "platform/platform.hh"
#include "platform/power.hh"
#include "sched/hmp.hh"
#include "sim/simulation.hh"

using namespace biglittle;

namespace
{

WorkClass
pureCompute()
{
    return WorkClass{0.8, 0.0, 64.0};
}

class InvariantTest : public ::testing::Test
{
  protected:
    Simulation sim;
    AsymmetricPlatform plat{sim, exynos5422Params()};
    HmpScheduler sched{sim, plat, baselineSchedParams()};
    PowerModel power{plat};

    void
    SetUp() override
    {
        plat.littleCluster().freqDomain().setFreqNow(1300000);
        plat.bigCluster().freqDomain().setFreqNow(1900000);
    }
};

} // namespace

TEST_F(InvariantTest, HealthyRunHasNoViolations)
{
    InvariantChecker checker(sim, plat, &sched, &power);
    sched.setObserver(&checker);
    sched.start();
    checker.start();
    sched.createTask("a", pureCompute()).submitWork(1e10);
    sched.createTask("b", pureCompute()).submitWork(5e9);
    sim.runFor(msToTicks(500));

    EXPECT_GT(checker.checks(), 0u);
    EXPECT_EQ(checker.violationCount(), 0u);
    EXPECT_TRUE(checker.checkNow().ok());
}

TEST_F(InvariantTest, FlagsAllLittleCoresOffline)
{
    InvariantChecker checker(sim, plat, &sched, &power);

    // Bypass AsymmetricPlatform::setCoreOnline (which would refuse)
    // to manufacture the state the checker must catch.
    for (std::size_t i = 0; i < 4; ++i)
        plat.core(i).setOnline(false);

    const Status st = checker.checkNow();
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::internal);
    EXPECT_GE(checker.violationCount(), 1u);
    ASSERT_FALSE(checker.violations().empty());
    EXPECT_NE(checker.violations().front().what.find("little"),
              std::string::npos);
}

TEST_F(InvariantTest, NoLittleCoreIsLegalWithoutBootRule)
{
    PlatformParams p = exynos5422Params();
    p.enforceBootCore = false;
    Simulation sim2;
    AsymmetricPlatform plat2(sim2, p);
    InvariantChecker checker(sim2, plat2, nullptr, nullptr);

    for (std::size_t i = 0; i < 4; ++i)
        plat2.core(i).setOnline(false);
    EXPECT_TRUE(checker.checkNow().ok());
}

TEST_F(InvariantTest, FlagsOfflinePlacement)
{
    InvariantChecker checker(sim, plat, &sched, &power);
    sched.start();
    Task &t = sched.createTask("t", pureCompute());

    const Core &offline = plat.core(7);
    plat.core(7).setOnline(false);
    checker.onWakeup(t, offline);
    EXPECT_EQ(checker.violationCount(), 1u);
    EXPECT_NE(checker.violations().front().what.find("offline"),
              std::string::npos);
}

TEST_F(InvariantTest, FlagsUndrainedSleep)
{
    InvariantChecker checker(sim, plat, &sched, &power);
    sched.start();
    Task &t = sched.createTask("t", pureCompute());
    t.submitWork(1e9);
    checker.onSleep(t); // pending work: not a legal sleep
    EXPECT_EQ(checker.violationCount(), 1u);
}

TEST_F(InvariantTest, RecordingIsCappedButCountingIsNot)
{
    InvariantParams ip;
    ip.maxRecorded = 2;
    InvariantChecker checker(sim, plat, &sched, &power, ip);
    sched.start();
    Task &t = sched.createTask("t", pureCompute());
    t.submitWork(1e9);
    for (int i = 0; i < 5; ++i)
        checker.onSleep(t);
    EXPECT_EQ(checker.violationCount(), 5u);
    EXPECT_EQ(checker.violations().size(), 2u);
}

TEST_F(InvariantTest, EnergyAndRunqueueSweepStaysClean)
{
    InvariantChecker checker(sim, plat, &sched, &power);
    sched.setObserver(&checker);
    sched.start();
    checker.start();
    Task &t = sched.createTask("t", pureCompute());
    t.submitWork(2e9);
    // Drive through wakeup / migration / drain under the sweep.
    for (int i = 0; i < 20; ++i) {
        sim.runFor(msToTicks(25));
        if (t.drained())
            t.submitWork(2e9);
    }
    EXPECT_EQ(checker.violationCount(), 0u);
}
