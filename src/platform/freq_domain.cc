#include "platform/freq_domain.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/serialize.hh"
#include "base/strutil.hh"

namespace biglittle
{

FreqDomain::FreqDomain(Simulation &sim_in, std::string name_in,
                       std::vector<Opp> opps_in, Tick transition_latency)
    : sim(sim_in), domainName(std::move(name_in)),
      table(std::move(opps_in)), latency(transition_latency),
      ceilingIndex(table.empty() ? 0 : table.size() - 1),
      pendingIndex(table.size()),
      applyEvent([this] { applyPending(); }, EventPriority::dvfsApply,
                 domainName + ".dvfs-apply")
{
    BL_ASSERT(!table.empty());
    for (std::size_t i = 1; i < table.size(); ++i)
        BL_ASSERT(table[i].freq > table[i - 1].freq);
}

double
FreqDomain::currentVolts() const
{
    return static_cast<double>(currentOpp().voltage) / 1000.0;
}

std::size_t
FreqDomain::indexFor(FreqKHz target) const
{
    for (std::size_t i = 0; i <= ceilingIndex; ++i) {
        if (table[i].freq >= target)
            return i;
    }
    return ceilingIndex;
}

void
FreqDomain::setCeiling(FreqKHz ceiling)
{
    sim.noteWrite(domainName, "ceiling");
    std::size_t index = 0;
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (table[i].freq <= ceiling)
            index = i;
    }
    ceilingIndex = index;
    if (curIndex > ceilingIndex)
        setFreqNow(table[ceilingIndex].freq);
    if (pendingIndex < table.size() && pendingIndex > ceilingIndex)
        pendingIndex = ceilingIndex;
}

Status
FreqDomain::requestFreq(FreqKHz target)
{
    // A pinned domain refuses before the fault gate so quarantining
    // a DVFS path also stops charging the injector's random stream
    // for requests that can no longer land.
    if (isPinned) {
        ++pinnedRefused;
        return unavailable(format(
            "%s: domain is pinned at %u kHz", domainName.c_str(),
            currentFreq()));
    }
    sim.noteWrite(domainName, "pending");
    const std::size_t index = indexFor(target);
    if (index == curIndex) {
        // Cancel any pending change that would move us away.
        if (applyEvent.scheduled())
            sim.eventQueue().deschedule(applyEvent);
        pendingIndex = table.size();
        return okStatus();
    }
    if (pendingIndex == index && applyEvent.scheduled())
        return okStatus();
    Tick effective_latency = latency;
    if (faultGate) {
        switch (faultGate(table[index].freq)) {
          case DvfsFaultAction::allow:
            break;
          case DvfsFaultAction::deny:
            ++deniedCount;
            return unavailable(format(
                "%s: transition to %u kHz denied",
                domainName.c_str(), table[index].freq));
          case DvfsFaultAction::delay:
            ++delayedCount;
            effective_latency += faultExtraLatency;
            break;
        }
    }
    pendingIndex = index;
    if (effective_latency == 0) {
        applyPending();
        return okStatus();
    }
    sim.eventQueue().reschedule(applyEvent,
                                sim.now() + effective_latency);
    return okStatus();
}

void
FreqDomain::setFaultGate(FaultGate gate, Tick extra_latency)
{
    faultGate = std::move(gate);
    faultExtraLatency = extra_latency;
}

void
FreqDomain::setPinned(FreqKHz freq)
{
    if (freq != 0)
        setFreqNow(freq);
    else if (applyEvent.scheduled()) {
        // Freeze at the current OPP: drop the in-flight transition.
        sim.eventQueue().deschedule(applyEvent);
        pendingIndex = table.size();
    }
    isPinned = true;
    warn("%s: pinned at %u kHz", domainName.c_str(), currentFreq());
}

void
FreqDomain::setFreqNow(FreqKHz target)
{
    if (applyEvent.scheduled())
        sim.eventQueue().deschedule(applyEvent);
    pendingIndex = table.size();
    applyIndex(indexFor(target));
}

void
FreqDomain::applyPending()
{
    sim.noteWrite(domainName, "pending");
    if (pendingIndex >= table.size())
        return;
    const std::size_t index = pendingIndex;
    pendingIndex = table.size();
    applyIndex(index);
}

void
FreqDomain::applyIndex(std::size_t index)
{
    sim.noteRead(domainName, "freq");
    if (index == curIndex)
        return;
    sim.noteWrite(domainName, "freq");
    const Opp old = table[curIndex];
    const Opp next = table[index];
    for (const auto &listener : listeners)
        listener(old, next);
    curIndex = index;
    ++transitionCount;
}

void
FreqDomain::addListener(ChangeListener listener)
{
    BL_ASSERT(listener != nullptr);
    listeners.push_back(std::move(listener));
}

void
FreqDomain::serialize(Serializer &s) const
{
    s.putU64(curIndex);
    s.putU64(ceilingIndex);
    s.putU64(pendingIndex);
    s.putBool(applyEvent.scheduled());
    s.putU64(applyEvent.scheduled() ? applyEvent.when() : 0);
    s.putU64(transitionCount);
    s.putU64(deniedCount);
    s.putU64(delayedCount);
}

} // namespace biglittle
