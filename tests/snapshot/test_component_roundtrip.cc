/**
 * @file
 * A checkpoint keeps only each section's digest: resume and rollback
 * re-execute to the checkpoint tick and compare the digests.  So the
 * property a section serializer must have is run stability - two
 * identical runs serialize identical bytes - and the
 * Deserializer that checkpoint and trace decoding rest on must fail
 * softly on short input.
 */

#include <gtest/gtest.h>

#include "base/serialize.hh"
#include "platform/platform.hh"
#include "sched/hmp.hh"
#include "sim/simulation.hh"
#include "workload/app_model.hh"
#include "workload/apps.hh"

using namespace biglittle;

namespace
{

/** A live platform + scheduler + app, partway through a run. */
class LiveRigRoundTrip : public ::testing::Test
{
  protected:
    Simulation sim;
    AsymmetricPlatform plat{sim, exynos5422Params()};
    HmpScheduler sched{sim, plat, baselineSchedParams()};

    void
    runApp(const AppSpec &spec, Tick duration)
    {
        sched.start();
        instance = std::make_unique<AppInstance>(sim, sched, spec);
        instance->start();
        sim.runFor(duration);
    }

    std::unique_ptr<AppInstance> instance;
};

} // namespace

TEST_F(LiveRigRoundTrip, EventQueueDigestIsRunStable)
{
    // The queue serializes a digest of its pending closures; two
    // identical runs must serialize identical bytes.
    runApp(eternityWarrior2App(), msToTicks(250));
    Serializer a;
    sim.eventQueue().serialize(a);

    Simulation sim2;
    AsymmetricPlatform plat2{sim2, exynos5422Params()};
    HmpScheduler sched2{sim2, plat2, baselineSchedParams()};
    sched2.start();
    AppInstance instance2(sim2, sched2, eternityWarrior2App());
    instance2.start();
    sim2.runFor(msToTicks(250));
    Serializer b;
    sim2.eventQueue().serialize(b);

    EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(Deserializer, OverReadIsRecoverableNotFatal)
{
    Serializer s;
    s.putU64(5);
    Deserializer d(s.bytes());
    EXPECT_EQ(d.getU64(), 5u);
    EXPECT_TRUE(d.ok());
    EXPECT_EQ(d.getU64(), 0u); // past the end: zero, not a crash
    EXPECT_FALSE(d.ok());
    EXPECT_EQ(d.getString(), ""); // stays failed and harmless
}
