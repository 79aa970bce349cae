/**
 * @file
 * FreqDomain: per-cluster DVFS.
 *
 * Mirrors the target platform's constraint that each core type shares
 * a single clock: a frequency request selects the lowest OPP at or
 * above the request, and (optionally) becomes effective only after
 * the hardware transition latency.  Listeners (the owning cluster)
 * are told immediately before the change so they can close their
 * time-energy accounting at the old operating point.
 */

#ifndef BIGLITTLE_PLATFORM_FREQ_DOMAIN_HH
#define BIGLITTLE_PLATFORM_FREQ_DOMAIN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/status.hh"
#include "base/types.hh"
#include "platform/params.hh"
#include "sim/simulation.hh"

namespace biglittle
{

class Serializer;

/**
 * What a fault gate decides about one DVFS request: let it through,
 * refuse it outright (the regulator/firmware rejected it), or apply
 * it late (a slow or contended transition).
 */
enum class DvfsFaultAction
{
    allow,
    deny,
    delay,
};

/** One shared clock/voltage domain (a big.LITTLE cluster). */
class FreqDomain
{
  public:
    /** Called just before a change with (old OPP, new OPP). */
    using ChangeListener = std::function<void(const Opp &, const Opp &)>;

    /** Consulted per request with the resolved target frequency. */
    using FaultGate = std::function<DvfsFaultAction(FreqKHz)>;

    /**
     * @param sim time source and event scheduling
     * @param name diagnostic name
     * @param opps ascending-frequency OPP table (non-empty)
     * @param transition_latency delay before a request takes effect
     */
    FreqDomain(Simulation &sim, std::string name, std::vector<Opp> opps,
               Tick transition_latency);

    /** Current effective OPP. */
    const Opp &currentOpp() const { return table[curIndex]; }

    /** Current effective frequency. */
    FreqKHz currentFreq() const { return table[curIndex].freq; }

    /** Current supply voltage in volts. */
    double currentVolts() const;

    /** Lowest available frequency. */
    FreqKHz minFreq() const { return table.front().freq; }

    /** Highest available frequency. */
    FreqKHz maxFreq() const { return table.back().freq; }

    /** Full OPP table, ascending. */
    const std::vector<Opp> &opps() const { return table; }

    /**
     * Request frequency @p target; the effective OPP becomes the
     * lowest OPP >= target (the highest OPP if target is above max).
     * The change lands after the transition latency; a newer request
     * supersedes a pending one.  A request equal to the current and
     * pending state is a no-op.
     *
     * Returns unavailable() when an installed fault gate denies the
     * transition; the domain then stays at its current (valid) OPP
     * and the caller is expected to retry on its next sample.
     */
    [[nodiscard]] Status requestFreq(FreqKHz target);

    /** Apply a frequency immediately (hotplug/test/reset paths). */
    void setFreqNow(FreqKHz target);

    /**
     * Clamp the domain to at most @p ceiling (thermal throttling).
     * Takes effect immediately if the current frequency exceeds it;
     * later requests are clamped until the ceiling is raised.  Pass
     * maxFreq() to remove the cap.
     */
    void setCeiling(FreqKHz ceiling);

    /** Current thermal/administrative ceiling. */
    FreqKHz ceiling() const { return table[ceilingIndex].freq; }

    /**
     * Pin the domain at @p freq (0 pins at the current frequency):
     * the supervisor's quarantine action for a misbehaving DVFS path.
     * The pin is applied immediately (bypassing the fault gate, like
     * any setFreqNow) and from then on every requestFreq() is refused
     * with unavailable(), so governors degrade to their deny path.
     * A one-way latch; deliberately not serialized — it is
     * reconstructed by replaying the supervisor's recovery script.
     */
    void setPinned(FreqKHz freq);

    /** Whether the domain is pinned (requests refused). */
    bool pinned() const { return isPinned; }

    /** Requests refused because the domain is pinned. */
    std::uint64_t pinnedRefusals() const { return pinnedRefused; }

    /** Register a pre-change listener. */
    void addListener(ChangeListener listener);

    /**
     * Install (or, with an empty function, remove) a fault gate that
     * screens every requestFreq().  Delayed transitions land after
     * latency + @p extra_latency.  setFreqNow() bypasses the gate:
     * it is the hotplug/test/reset path.
     */
    void setFaultGate(FaultGate gate, Tick extra_latency = 0);

    /** Requests refused by the fault gate. */
    std::uint64_t deniedRequests() const { return deniedCount; }

    /** Requests the fault gate applied late. */
    std::uint64_t delayedRequests() const { return delayedCount; }

    /** Number of completed frequency transitions. */
    std::uint64_t transitions() const { return transitionCount; }

    const std::string &name() const { return domainName; }

    /**
     * Write the domain's mutable state: current/ceiling/pending OPP
     * indices, the tick a pending transition lands at, and the
     * transition/fault counters.
     */
    void serialize(Serializer &s) const;

  private:
    Simulation &sim;
    std::string domainName; // ablint:allow(serialize-coverage): construction-time config (covers table)
    std::vector<Opp> table;
    Tick latency; // ablint:allow(serialize-coverage): construction-time config
    std::size_t curIndex = 0;
    std::size_t ceilingIndex;

    /** Index of a pending request, or size() when none. */
    std::size_t pendingIndex;
    CallbackEvent applyEvent;

    // ablint:allow(serialize-coverage): callback wiring, re-registered at construction
    std::vector<ChangeListener> listeners;
    std::uint64_t transitionCount = 0;

    FaultGate faultGate; // ablint:allow(serialize-coverage): fault wiring re-installed by the injector on rebuild (covers faultExtraLatency)
    Tick faultExtraLatency = 0;
    std::uint64_t deniedCount = 0;
    std::uint64_t delayedCount = 0;

    bool isPinned = false; // ablint:allow(serialize-coverage): pin re-applied by config replay; refusal counter is diagnostic
    std::uint64_t pinnedRefused = 0;

    std::size_t indexFor(FreqKHz target) const;
    void applyIndex(std::size_t index);
    void applyPending();
};

} // namespace biglittle

#endif // BIGLITTLE_PLATFORM_FREQ_DOMAIN_HH
