/**
 * @file
 * Core: one logical CPU with exact event-driven time/energy
 * accounting.
 *
 * A core is either online or offline (hotplug) and, while online,
 * either busy (running at least one task) or idle (WFI).  Every state
 * or frequency transition closes the accounting interval at the old
 * operating point, so busy-time-by-frequency residency (Figs. 9/10)
 * and the energy weights used by the power model are exact, with no
 * sampling error.
 */

#ifndef BIGLITTLE_PLATFORM_CORE_HH
#define BIGLITTLE_PLATFORM_CORE_HH

#include <string>

#include "base/histogram.hh"
#include "base/types.hh"
#include "platform/freq_domain.hh"
#include "platform/params.hh"
#include "sim/simulation.hh"

namespace biglittle
{

class Cluster;

/** One logical CPU. */
class Core
{
  public:
    Core(Simulation &sim, CoreId id, CoreType type,
         const CorePerfParams &perf, FreqDomain &domain,
         Cluster &cluster, std::string name);

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    CoreId id() const { return coreId; }
    CoreType type() const { return coreType; }
    const std::string &name() const { return coreName; }
    const CorePerfParams &perfParams() const { return perf; }
    FreqDomain &freqDomain() { return domain; }
    const FreqDomain &freqDomain() const { return domain; }
    Cluster &cluster() { return parent; }
    const Cluster &cluster() const { return parent; }

    bool online() const { return isOnline; }
    bool busy() const { return isBusy; }

    /**
     * Whether the core has been quarantined (hotplugged out for good
     * by a supervisor after persistent faults).  A one-way latch: the
     * platform refuses to bring a quarantined core back online, so
     * neither the fault injector's replug nor a core-config sweep can
     * revive failing silicon.  Deliberately not serialized: the flag
     * is reconstructed by replaying the supervisor's recovery script,
     * keeping checkpoint bytes identical across attempts.
     */
    bool quarantined() const { return isQuarantined; }

    /** Latch the quarantine flag (there is no way back). */
    void markQuarantined() { isQuarantined = true; }

    /**
     * Hotplug the core.  Going offline requires the core to be idle
     * (the scheduler must have migrated its tasks away first).
     */
    void setOnline(bool online);

    /** Mark the core busy (>=1 runnable task) or idle. */
    void setBusy(bool busy);

    /** Close the accounting interval at the current time. */
    void sync();

    /** Called by the cluster just before the domain changes OPP. */
    void preFreqChange();

    /** Total ticks spent busy since construction. */
    Tick busyTicks() const { return busyTotal; }

    /** Total ticks spent online since construction. */
    Tick onlineTicks() const { return onlineTotal; }

    /** Busy ticks keyed by the frequency (kHz) they ran at. */
    const DiscreteHistogram &busyTicksByFreq() const { return busyByFreq; }

    /** Integral of V^2 * f_GHz over busy seconds (dynamic energy). */
    double dynWeight() const { return dynW; }

    /** Integral of V over online-and-busy seconds. */
    double staticBusyWeight() const { return staticBusyW; }

    /** Integral of V over online-and-idle seconds (all states). */
    double staticIdleWeight() const { return idleWfiW + idleGatedW; }

    /** Integral of V over idle seconds spent in clock-gated WFI. */
    double idleWfiWeight() const { return idleWfiW; }

    /** Integral of V over idle seconds spent power gated. */
    double idleGatedWeight() const { return idleGatedW; }

    /**
     * Length of the current continuous idle span (0 while busy or
     * offline); instantaneous power picks the C-state from it.
     */
    Tick currentIdleSpan() const;

    /**
     * Write all mutable accounting state.  Call sync() first so the
     * open interval is closed at the current tick; two runs in the
     * same state then produce identical bytes.
     */
    void serialize(Serializer &s) const;

  private:
    Simulation &sim;
    CoreId coreId; // ablint:allow(serialize-coverage): identity fixed at construction
    CoreType coreType;
    CorePerfParams perf;
    FreqDomain &domain;
    Cluster &parent;
    // ablint:allow(serialize-coverage): identity fixed at construction
    std::string coreName;

    bool isOnline = true;
    bool isBusy = false;
    // ablint:allow(serialize-coverage): re-latched by the supervisor's quarantine record on rebuild
    bool isQuarantined = false;
    Tick lastUpdate = 0;

    Tick busyTotal = 0;
    Tick onlineTotal = 0;
    Tick idleSpanStart = 0; ///< start of the current idle span
    DiscreteHistogram busyByFreq;
    double dynW = 0.0;
    double staticBusyW = 0.0;
    double idleWfiW = 0.0;
    double idleGatedW = 0.0;
    // ablint:allow(serialize-coverage): fixed at construction from params
    Tick gateAfter; ///< WFI -> gated promotion delay (from params)

    void accountTo(Tick now);
};

} // namespace biglittle

#endif // BIGLITTLE_PLATFORM_CORE_HH
