/**
 * @file
 * FaultInjector: deterministic, seeded perturbation of a running
 * platform, in the spirit of chaos testing for mobile SoCs.
 *
 * The injector drives four fault classes through the event queue:
 *
 *  - hotplug: a random non-boot core is evacuated and taken offline
 *    for a down time, then brought back (a thermally-parked or
 *    firmware-failed CPU);
 *  - DVFS: frequency-transition requests are probabilistically
 *    denied or delayed (a busy regulator / slow firmware mailbox);
 *  - thermal: a sensor spike is injected into a cluster's thermal
 *    throttle (a bad sample biasing the IPA loop);
 *  - task stall: a random thread receives a burst of extra work (a
 *    lock-contention or retry stall delaying its deadline).
 *
 * All draws come from one seeded Rng, so a fault schedule is exactly
 * reproducible, and every perturbation goes through the public
 * Status-returning degradation paths - a refused fault (e.g. the
 * hotplug rule protecting the last little core) is counted, never
 * forced.
 */

#ifndef BIGLITTLE_FAULT_FAULT_HH
#define BIGLITTLE_FAULT_FAULT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/random.hh"
#include "base/types.hh"
#include "platform/freq_domain.hh"
#include "sim/simulation.hh"

namespace biglittle
{

class AsymmetricPlatform;
class HmpScheduler;
class Serializer;
class ThermalThrottle;

/**
 * The injected fault classes, as an addressable enum so a supervisor
 * can disable one class (the last rung of the escalation ladder)
 * without touching the others.
 */
enum class FaultClass : std::uint32_t
{
    hotplug = 0,
    dvfs = 1,
    thermal = 2,
    taskStall = 3,
    crash = 4,
    invariantBreak = 5,
};

constexpr std::uint32_t faultClassCount = 6;

/** Stable lower-case name ("task-stall"). */
const char *faultClassName(FaultClass cls);

/**
 * Which component a supervisor should quarantine when faults of a
 * class keep recurring after its retry budget: the implicated core
 * (crash, hotplug), the implicated frequency domain (dvfs), or -
 * when no single component is to blame - the fault class itself.
 */
enum class QuarantineKind
{
    core,
    freqDomain,
    faultClass,
};

/** Escalation target for persistent faults of @p cls. */
QuarantineKind quarantineFor(FaultClass cls);

/**
 * An unrecoverable fault the injector has raised: the simulated
 * equivalent of a kernel oops on the named core.  Unsupervised runs
 * die on it; a supervisor rolls back and retries instead.
 */
struct PendingFatal
{
    bool armed = false;
    Tick at = 0; ///< tick the fault fired
    CoreId core = invalidCoreId; ///< implicated core
    bool persistent = false; ///< recurs until the core is quarantined
};

/** Rates and magnitudes of the injected fault classes. */
struct FaultParams
{
    bool enabled = false;

    /** Seed of the injector's private random stream. */
    std::uint64_t seed = 1;

    /** Resolution at which fault arrivals are drawn. */
    Tick drawPeriod = msToTicks(10);

    // hotplug
    double hotplugRatePerSec = 0.0; ///< off events per second
    Tick hotplugDownTime = msToTicks(250); ///< offline duration

    // DVFS
    double dvfsDenyProb = 0.0; ///< per-request denial probability
    double dvfsDelayProb = 0.0; ///< per-request delay probability
    Tick dvfsExtraLatency = usToTicks(500); ///< added when delayed

    // thermal
    double thermalSpikeRatePerSec = 0.0;
    double thermalSpikeC = 20.0; ///< sensor spike magnitude

    // task stall
    double taskStallRatePerSec = 0.0;
    double taskStallInstructions = 3e6; ///< extra work per stall

    // crash (unrecoverable fault on a random online core)
    double crashRatePerSec = 0.0;

    /**
     * Deterministic persistent crash: from this tick on, every fault
     * draw raises an unrecoverable fault attributed to
     * persistentCrashCore while that core is online — the "core with
     * failing silicon" a supervisor can only survive by quarantining
     * it.  0 disables.
     */
    Tick persistentCrashAt = 0;
    CoreId persistentCrashCore = invalidCoreId;

    // injected invariant break (reported through the violation sink)
    double invariantBreakRatePerSec = 0.0;
};

/**
 * The baseline fault profile scaled by @p rate (0 disables all
 * classes): the knob the resilience bench sweeps.
 */
FaultParams scaledFaultParams(double rate, std::uint64_t seed = 1);

/** Counters of injected (and refused) perturbations. */
struct FaultStats
{
    std::uint64_t hotplugOff = 0;
    std::uint64_t hotplugOn = 0;
    std::uint64_t hotplugRejected = 0; ///< refused by platform/sched
    std::uint64_t dvfsDenied = 0;
    std::uint64_t dvfsDelayed = 0;
    std::uint64_t thermalSpikes = 0;
    std::uint64_t taskStalls = 0;
    std::uint64_t crashes = 0; ///< unrecoverable faults raised
    std::uint64_t invariantBreaks = 0; ///< injected sweep failures
    std::uint64_t suppressed = 0; ///< draws skipped: class disabled

    /** All perturbations that actually landed. */
    std::uint64_t
    totalInjected() const
    {
        return hotplugOff + hotplugOn + dvfsDenied + dvfsDelayed +
               thermalSpikes + taskStalls + crashes + invariantBreaks;
    }
};

/** Schedules perturbations of a platform through the event queue. */
class FaultInjector
{
  public:
    FaultInjector(Simulation &sim, AsymmetricPlatform &platform,
                  HmpScheduler &sched, const FaultParams &params);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    ~FaultInjector();

    /** Register a thermal throttle as a sensor-spike target. */
    void addThermal(ThermalThrottle *throttle);

    /** Install the DVFS gates and begin drawing fault arrivals. */
    void start();

    /** Stop injecting (cores already offline still come back). */
    void stop();

    const FaultParams &params() const { return fp; }
    const FaultStats &stats() const { return faultStats; }

    // ---- recovery hooks (used by the supervised run loop) ----

    /**
     * Stop drawing faults of one class: the supervisor's
     * disable-the-failing-behavior quarantine action.  The skipped
     * draws still consume the same random numbers, so disabling a
     * class never perturbs the schedule of the remaining classes.
     */
    void disableClass(FaultClass cls);

    bool classDisabled(FaultClass cls) const
    {
        return (disabledMask &
                (1u << static_cast<std::uint32_t>(cls))) != 0;
    }

    /**
     * Restart the injector's stream from @p seed: the bounded
     * perturbation a supervisor applies on rollback-retry so a
     * transient fault schedule is re-drawn.
     */
    void reseed(std::uint64_t seed);

    /**
     * Route injected invariant breaks into the checker (or any other
     * sink); without a sink the class never fires.
     */
    void setViolationSink(std::function<void(const std::string &)> sink)
    {
        violationSink = std::move(sink);
    }

    /**
     * The armed unrecoverable fault, if any.  The run loop polls this
     * at chunk boundaries: unsupervised runs die, supervised runs
     * hand it to the recovery state machine.
     */
    const PendingFatal &pendingFatal() const { return pendingCrash; }

    /** Disarm the pending fault (the run loop consumed it). */
    void clearPendingFatal() { pendingCrash = PendingFatal{}; }

    /**
     * Write the injector's random stream and counters.  The recovery
     * overlays (disabled classes, pending fatal) are deliberately
     * not serialized: they are reconstructed by replaying the
     * supervisor's timed recovery script, which keeps checkpoint
     * bytes identical across attempts (docs/ROBUSTNESS.md §8).
     */
    void serialize(Serializer &s) const;

  private:
    Simulation &sim;
    AsymmetricPlatform &plat;
    HmpScheduler &sched;
    FaultParams fp;
    Rng rng;

    PeriodicTask *drawTask = nullptr;
    std::vector<ThermalThrottle *> throttles;
    // ablint:allow(serialize-coverage): gates reinstalled from FaultParams on rebuild
    bool gatesInstalled = false;
    FaultStats faultStats;

    std::uint32_t disabledMask = 0; // ablint:allow(serialize-coverage): rebuilt injector re-arms via supervisor replay (covers pendingCrash)
    PendingFatal pendingCrash;
    std::function<void(const std::string &)> violationSink;

    void draw(Tick now);
    void injectHotplug();
    void injectThermalSpike();
    void injectTaskStall();
    void injectCrash(Tick now);
    void checkPersistentCrash(Tick now);
    void injectInvariantBreak(Tick now);
    DvfsFaultAction gateDecision();
};

} // namespace biglittle

#endif // BIGLITTLE_FAULT_FAULT_HH
