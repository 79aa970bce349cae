#include "governor/interactive.hh"

#include <cmath>

#include "base/logging.hh"
#include "base/serialize.hh"

namespace biglittle
{

InteractiveParams
defaultInteractiveParams()
{
    return InteractiveParams{};
}

InteractiveParams
interval60Params()
{
    InteractiveParams p;
    p.samplingRate = msToTicks(60);
    p.name = "interactive-60ms";
    return p;
}

InteractiveParams
interval100Params()
{
    InteractiveParams p;
    p.samplingRate = msToTicks(100);
    p.name = "interactive-100ms";
    return p;
}

InteractiveParams
highTargetLoadParams()
{
    InteractiveParams p;
    p.targetLoad = 80.0;
    p.goHispeedLoad = 95.0;
    p.name = "interactive-target80";
    return p;
}

InteractiveParams
lowTargetLoadParams()
{
    InteractiveParams p;
    p.targetLoad = 60.0;
    p.goHispeedLoad = 75.0;
    p.name = "interactive-target60";
    return p;
}

InteractiveGovernor::InteractiveGovernor(Simulation &sim_in,
                                         Cluster &cluster_in,
                                         const InteractiveParams &params)
    : Governor(sim_in, cluster_in, params.name), ip(params)
{
    BL_ASSERT(ip.targetLoad > 0.0 && ip.targetLoad <= 100.0);
    BL_ASSERT(ip.samplingRate > 0);
    const FreqDomain &domain = cluster_in.freqDomain();
    const auto want = static_cast<FreqKHz>(
        ip.hispeedFraction * static_cast<double>(domain.maxFreq()));
    // Resolve to the lowest OPP at or above the requested fraction.
    hispeed = domain.maxFreq();
    for (const Opp &opp : domain.opps()) {
        if (opp.freq >= want) {
            hispeed = opp.freq;
            break;
        }
    }
}

Tick
InteractiveGovernor::samplingPeriod() const
{
    return ip.samplingRate;
}

void
InteractiveGovernor::sample(Tick)
{
    const double util = clusterUtilization() * 100.0;
    FreqDomain &domain = clusterRef.freqDomain();
    const FreqKHz freq = domain.currentFreq();

    // Capacity needed to hold the observed load at targetLoad%.
    const auto target_freq = static_cast<FreqKHz>(std::ceil(
        static_cast<double>(freq) * util / ip.targetLoad));

    if (util >= ip.goHispeedLoad && freq < hispeed) {
        ++jumps;
        request(std::max(hispeed, target_freq));
        return;
    }
    request(target_freq);
}

void
InteractiveGovernor::serializePolicy(Serializer &s) const
{
    s.putU64(jumps);
}

} // namespace biglittle
