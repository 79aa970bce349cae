#include "governor/governor.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/serialize.hh"

namespace biglittle
{

Governor::Governor(Simulation &sim_in, Cluster &cluster_in,
                   std::string name_in)
    : sim(sim_in), clusterRef(cluster_in),
      governorName(std::move(name_in))
{
}

FreqKHz
Governor::initialFreq() const
{
    return clusterRef.freqDomain().minFreq();
}

void
Governor::start()
{
    clusterRef.freqDomain().setFreqNow(initialFreq());
    lastSampleTick = sim.now();
    lastBusyTicks.assign(clusterRef.coreCount(), 0);
    clusterRef.sync();
    for (std::size_t i = 0; i < clusterRef.coreCount(); ++i)
        lastBusyTicks[i] = clusterRef.core(i).busyTicks();
    if (samplerTask == nullptr) {
        policyCell = clusterRef.name() + "." + governorName;
        samplerTask = &sim.addPeriodic(
            samplingPeriod(), [this](Tick now) { onSample(now); },
            offsetPriority(EventPriority::governor,
                           clusterRef.core(0).id(), clusterSlots),
            policyCell + ".sample");
    }
    samplerTask->setPeriod(samplingPeriod());
    samplerTask->start();
}

void
Governor::stop()
{
    if (samplerTask != nullptr)
        samplerTask->cancel();
}

void
Governor::onSample(Tick now)
{
    sim.noteRead(clusterRef.name(), "busy");
    sim.noteWrite(policyCell, "policy");
    ++sampleCount;
    sample(now);
}

void
Governor::request(FreqKHz target)
{
    const Status st = clusterRef.freqDomain().requestFreq(target);
    if (!st.ok()) {
        ++deniedCount;
        debugLog("%s governor: %s; retrying next sample",
                 governorName.c_str(), st.message().c_str());
    }
}

double
Governor::clusterUtilization()
{
    const Tick now = sim.now();
    const Tick elapsed = now - lastSampleTick;
    lastSampleTick = now;
    if (elapsed == 0)
        return 0.0;
    clusterRef.sync();
    double max_util = 0.0;
    for (std::size_t i = 0; i < clusterRef.coreCount(); ++i) {
        const Core &core = clusterRef.core(i);
        const Tick busy = core.busyTicks();
        const Tick delta = busy - lastBusyTicks[i];
        lastBusyTicks[i] = busy;
        if (!core.online())
            continue;
        max_util = std::max(
            max_util, static_cast<double>(delta) /
                          static_cast<double>(elapsed));
    }
    return std::min(1.0, max_util);
}

void
Governor::serialize(Serializer &s) const
{
    s.putU64(sampleCount);
    s.putU64(deniedCount);
    s.putU64(lastSampleTick);
    s.putU64(lastBusyTicks.size());
    for (const Tick busy : lastBusyTicks)
        s.putU64(busy);
    serializePolicy(s);
}

void
Governor::serializePolicy(Serializer &) const
{
}

} // namespace biglittle
