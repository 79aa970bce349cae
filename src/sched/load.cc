#include "sched/load.hh"

#include <cmath>

#include "base/logging.hh"
#include "base/serialize.hh"

namespace biglittle
{

LoadTracker::LoadTracker(double half_life_ms)
    : halfLifeMs(half_life_ms), decayFactor(decayFor(half_life_ms))
{
}

double
LoadTracker::decayFor(double half_life_ms)
{
    BL_ASSERT(half_life_ms > 0.0);
    return std::exp2(-1.0 / half_life_ms);
}

void
LoadTracker::update(double runnable_fraction, double freq_scale,
                    std::uint32_t periods)
{
    accrue(static_cast<double>(periods), runnable_fraction,
           freq_scale);
}

void
LoadTracker::accrue(double periods, double contribution,
                    double freq_scale)
{
    BL_ASSERT(periods >= 0.0);
    BL_ASSERT(contribution >= 0.0 && contribution <= 1.0);
    BL_ASSERT(freq_scale > 0.0 && freq_scale <= 1.0);
    const double target = fullScale * contribution * freq_scale;
    // Most accruals cover exactly one tick; pow(y, 1) is y exactly.
    const double keep =
        periods == 1.0 ? decayFactor : std::pow(decayFactor, periods);
    load = load * keep + target * (1.0 - keep);
}

void
LoadTracker::decay(double periods)
{
    BL_ASSERT(periods >= 0.0);
    load *= std::pow(decayFactor, periods);
}

void
LoadTracker::reset()
{
    load = 0.0;
}

void
LoadTracker::serialize(Serializer &s) const
{
    s.putDouble(halfLifeMs);
    s.putDouble(load);
}

} // namespace biglittle
