#include "governor/simple_governors.hh"

#include <cmath>

#include "base/logging.hh"
#include "base/serialize.hh"

namespace biglittle
{

PerformanceGovernor::PerformanceGovernor(Simulation &sim_in,
                                         Cluster &cluster_in)
    : Governor(sim_in, cluster_in, "performance")
{
}

FreqKHz
PerformanceGovernor::initialFreq() const
{
    return clusterRef.freqDomain().maxFreq();
}

void
PerformanceGovernor::sample(Tick)
{
    clusterUtilization(); // keep the window bookkeeping warm
    request(clusterRef.freqDomain().maxFreq());
}

PowersaveGovernor::PowersaveGovernor(Simulation &sim_in,
                                     Cluster &cluster_in)
    : Governor(sim_in, cluster_in, "powersave")
{
}

void
PowersaveGovernor::sample(Tick)
{
    clusterUtilization();
    request(clusterRef.freqDomain().minFreq());
}

UserspaceGovernor::UserspaceGovernor(Simulation &sim_in,
                                     Cluster &cluster_in, FreqKHz freq)
    : Governor(sim_in, cluster_in, "userspace"), heldFreq(freq)
{
}

void
UserspaceGovernor::setFreq(FreqKHz freq)
{
    heldFreq = freq;
    clusterRef.freqDomain().setFreqNow(freq);
}

void
UserspaceGovernor::serializePolicy(Serializer &s) const
{
    s.putU32(heldFreq);
}

void
UserspaceGovernor::sample(Tick)
{
    clusterUtilization();
}

OndemandGovernor::OndemandGovernor(Simulation &sim_in,
                                   Cluster &cluster_in,
                                   const OndemandParams &params)
    : Governor(sim_in, cluster_in, "ondemand"), op(params)
{
    BL_ASSERT(op.upThreshold > 0.0 && op.upThreshold <= 100.0);
    BL_ASSERT(op.scalingMargin > 0.0);
}

void
OndemandGovernor::sample(Tick)
{
    const double util = clusterUtilization() * 100.0;
    FreqDomain &domain = clusterRef.freqDomain();
    if (util >= op.upThreshold) {
        request(domain.maxFreq());
        return;
    }
    const auto target = static_cast<FreqKHz>(std::ceil(
        static_cast<double>(domain.currentFreq()) * util /
        op.scalingMargin));
    request(target);
}

ConservativeGovernor::ConservativeGovernor(
    Simulation &sim_in, Cluster &cluster_in,
    const ConservativeParams &params)
    : Governor(sim_in, cluster_in, "conservative"), cp(params)
{
    BL_ASSERT(cp.upThreshold > cp.downThreshold);
    BL_ASSERT(cp.freqStepFraction > 0.0 &&
              cp.freqStepFraction <= 1.0);
    step = static_cast<FreqKHz>(
        cp.freqStepFraction *
        static_cast<double>(cluster_in.freqDomain().maxFreq()));
}

void
ConservativeGovernor::sample(Tick)
{
    const double util = clusterUtilization() * 100.0;
    FreqDomain &domain = clusterRef.freqDomain();
    const FreqKHz freq = domain.currentFreq();
    if (util >= cp.upThreshold) {
        request(freq + step);
    } else if (util <= cp.downThreshold && freq > domain.minFreq()) {
        // requestFreq rounds up, so resolve the step-down target to
        // the highest OPP at or below (freq - step) ourselves.
        const FreqKHz want =
            freq > step ? freq - step : domain.minFreq();
        FreqKHz target = domain.minFreq();
        for (const Opp &opp : domain.opps()) {
            if (opp.freq <= want)
                target = opp.freq;
        }
        request(target);
    }
}

SchedutilGovernor::SchedutilGovernor(Simulation &sim_in,
                                     Cluster &cluster_in,
                                     const SchedutilParams &params)
    : Governor(sim_in, cluster_in, "schedutil"), sp(params)
{
    BL_ASSERT(sp.margin >= 1.0);
}

void
SchedutilGovernor::sample(Tick)
{
    // schedutil's util is capacity-invariant: busy fraction at the
    // current frequency scaled to the maximum capacity.
    const double busy = clusterUtilization();
    FreqDomain &domain = clusterRef.freqDomain();
    const double cap_util = busy *
        static_cast<double>(domain.currentFreq()) /
        static_cast<double>(domain.maxFreq());
    const auto target = static_cast<FreqKHz>(std::ceil(
        sp.margin * cap_util *
        static_cast<double>(domain.maxFreq())));
    request(target);
}

} // namespace biglittle
