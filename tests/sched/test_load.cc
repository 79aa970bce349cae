/**
 * @file
 * Tests for the HMP load tracker: convergence, the 32 ms half-life
 * of the paper, frequency-invariant scaling, and history-weight
 * variants.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sched/load.hh"

using namespace biglittle;

TEST(LoadTracker, StartsAtZero)
{
    LoadTracker t(32.0);
    EXPECT_DOUBLE_EQ(t.value(), 0.0);
}

TEST(LoadTracker, ConvergesToFullScale)
{
    LoadTracker t(32.0);
    t.update(1.0, 1.0, 1000);
    EXPECT_NEAR(t.value(), LoadTracker::fullScale, 0.01);
}

TEST(LoadTracker, ConvergesToFractionOfFullScale)
{
    LoadTracker t(32.0);
    t.update(0.5, 1.0, 1000);
    EXPECT_NEAR(t.value(), 512.0, 0.01);
}

TEST(LoadTracker, FrequencyScalingReducesContribution)
{
    // A task fully busy on a half-speed clock converges to 512: the
    // "normalized by the current clock frequency" rule of Alg. 1.
    LoadTracker t(32.0);
    t.update(1.0, 0.5, 1000);
    EXPECT_NEAR(t.value(), 512.0, 0.01);
}

TEST(LoadTracker, HalfLifeIsHonored)
{
    LoadTracker t(32.0);
    t.update(1.0, 1.0, 2000); // saturate
    const double start = t.value();
    t.update(0.0, 1.0, 32); // decay for one half-life
    EXPECT_NEAR(t.value(), start / 2.0, 0.5);
}

TEST(LoadTracker, PaperWeightExample)
{
    // "the 1ms-period load generated 32ms ago will be weighted by
    // 50%": a single unit contribution decays to half in 32 periods.
    LoadTracker t(32.0);
    t.update(1.0, 1.0); // one period of load
    const double initial = t.value();
    t.update(0.0, 1.0, 32);
    EXPECT_NEAR(t.value(), initial / 2.0, 1e-9);
}

TEST(LoadTracker, ShorterHalfLifeReactsFaster)
{
    LoadTracker fast(16.0), slow(64.0);
    for (int i = 0; i < 20; ++i) {
        fast.update(1.0, 1.0);
        slow.update(1.0, 1.0);
    }
    const double fast_peak = fast.value();
    const double slow_peak = slow.value();
    EXPECT_GT(fast_peak, slow_peak);
    // And decays faster too, relative to its own peak.
    for (int i = 0; i < 20; ++i) {
        fast.update(0.0, 1.0);
        slow.update(0.0, 1.0);
    }
    EXPECT_LT(fast.value() / fast_peak, slow.value() / slow_peak);
}

TEST(LoadTracker, DecayMatchesZeroContributionUpdates)
{
    LoadTracker a(32.0), b(32.0);
    a.update(1.0, 1.0, 100);
    b.update(1.0, 1.0, 100);
    a.decay(17.0);
    b.update(0.0, 1.0, 17);
    EXPECT_NEAR(a.value(), b.value(), 1e-9);
}

TEST(LoadTracker, FractionalDecay)
{
    LoadTracker t(32.0);
    t.update(1.0, 1.0, 100);
    const double before = t.value();
    t.decay(32.0);
    EXPECT_NEAR(t.value(), before / 2.0, 1e-6);
    t.decay(0.0);
    EXPECT_NEAR(t.value(), before / 2.0, 1e-6);
}

TEST(LoadTracker, ResetZeroes)
{
    LoadTracker t(32.0);
    t.update(1.0, 1.0, 100);
    t.reset();
    EXPECT_DOUBLE_EQ(t.value(), 0.0);
}

TEST(LoadTracker, MultiPeriodEqualsRepeatedSinglePeriods)
{
    LoadTracker a(32.0), b(32.0);
    a.update(0.7, 0.9, 50);
    for (int i = 0; i < 50; ++i)
        b.update(0.7, 0.9);
    EXPECT_NEAR(a.value(), b.value(), 1e-9);
}

TEST(LoadTracker, ValueNeverExceedsFullScale)
{
    LoadTracker t(32.0);
    for (int i = 0; i < 10000; ++i) {
        t.update(1.0, 1.0);
        ASSERT_LE(t.value(), LoadTracker::fullScale + 1e-9);
    }
}

TEST(LoadTrackerDeathTest, RejectsOutOfRangeInputs)
{
    LoadTracker t(32.0);
    EXPECT_DEATH(t.update(1.5, 1.0), "assertion");
    EXPECT_DEATH(t.update(-0.1, 1.0), "assertion");
    EXPECT_DEATH(t.update(0.5, 0.0), "assertion");
    EXPECT_DEATH(t.update(0.5, 1.5), "assertion");
}

/** Property: fixed point equals fraction*scale*1024 for any inputs. */
class LoadFixedPoint
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(LoadFixedPoint, ConvergesToProduct)
{
    const auto [fraction, scale] = GetParam();
    LoadTracker t(32.0);
    t.update(fraction, scale, 3000);
    EXPECT_NEAR(t.value(), 1024.0 * fraction * scale, 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Points, LoadFixedPoint,
    ::testing::Values(std::pair{1.0, 1.0}, std::pair{1.0, 0.684},
                      std::pair{0.3, 1.0}, std::pair{0.5, 0.385},
                      std::pair{0.0, 1.0}));
