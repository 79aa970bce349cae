#include "platform/core.hh"

#include "base/logging.hh"
#include "base/serialize.hh"
#include "platform/cluster.hh"

namespace biglittle
{

Core::Core(Simulation &sim_in, CoreId id, CoreType type,
           const CorePerfParams &perf_in, FreqDomain &domain_in,
           Cluster &cluster_in, std::string name_in)
    : sim(sim_in), coreId(id), coreType(type), perf(perf_in),
      domain(domain_in), parent(cluster_in), coreName(std::move(name_in)),
      lastUpdate(sim_in.now()), idleSpanStart(sim_in.now()),
      gateAfter(cluster_in.params().power.gateAfter)
{
}

Tick
Core::currentIdleSpan() const
{
    if (isBusy || !isOnline)
        return 0;
    return sim.now() - idleSpanStart;
}

void
Core::accountTo(Tick now)
{
    BL_ASSERT(now >= lastUpdate);
    const Tick dt = now - lastUpdate;
    lastUpdate = now;
    if (dt == 0 || !isOnline)
        return;
    const double dt_sec = ticksToSeconds(dt);
    const Opp &opp = domain.currentOpp();
    const double volts = static_cast<double>(opp.voltage) / 1000.0;
    onlineTotal += dt;
    if (isBusy) {
        busyTotal += dt;
        busyByFreq.add(opp.freq, static_cast<double>(dt));
        dynW += dt_sec * volts * volts * kHzToGHz(opp.freq);
        staticBusyW += dt_sec * volts;
    } else {
        // Split the idle interval by position within the current
        // idle span: the first gateAfter of a span is clock-gated
        // WFI, the remainder is power gated.
        const Tick span_before = (now - dt) - idleSpanStart;
        const Tick wfi_left =
            span_before < gateAfter ? gateAfter - span_before : 0;
        const Tick wfi_dt = dt < wfi_left ? dt : wfi_left;
        idleWfiW += ticksToSeconds(wfi_dt) * volts;
        idleGatedW += ticksToSeconds(dt - wfi_dt) * volts;
    }
}

void
Core::sync()
{
    accountTo(sim.now());
}

void
Core::preFreqChange()
{
    sync();
}

void
Core::setOnline(bool online)
{
    if (online == isOnline)
        return;
    if (!online && isBusy)
        panic("core %s hotplugged off while busy", coreName.c_str());
    parent.preCoreStateChange();
    sync();
    isOnline = online;
    if (isOnline && !isBusy)
        idleSpanStart = sim.now();
}

void
Core::setBusy(bool busy)
{
    if (busy == isBusy)
        return;
    if (busy && !isOnline)
        panic("core %s marked busy while offline", coreName.c_str());
    parent.preCoreStateChange();
    sync();
    isBusy = busy;
    if (!isBusy)
        idleSpanStart = sim.now();
}

void
Core::serialize(Serializer &s) const
{
    s.putBool(isOnline);
    s.putBool(isBusy);
    s.putU64(lastUpdate);
    s.putU64(busyTotal);
    s.putU64(onlineTotal);
    s.putU64(idleSpanStart);
    busyByFreq.serialize(s);
    s.putDouble(dynW);
    s.putDouble(staticBusyW);
    s.putDouble(idleWfiW);
    s.putDouble(idleGatedW);
}

} // namespace biglittle
