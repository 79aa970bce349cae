/**
 * @file
 * Recovery vocabulary: the types the supervised-execution state
 * machine (src/supervise) and the run loop (src/core) share.
 *
 * A supervised run that fails does not die; it rolls back to its
 * last good checkpoint and retries with a bounded, deterministic
 * perturbation.  Every decision the supervisor makes is expressed as
 * a timed RecoveryAction appended to a *script*: the ordered list of
 * (tick, action) pairs replayed by every subsequent attempt, so a
 * later rollback's verified fast-forward reconstructs exactly the
 * state the earlier attempt left behind.  The full decision record
 * is a RecoveryReport, which is a pure function of the run's master
 * seed: two supervised runs with the same seed produce byte-identical
 * reports (docs/ROBUSTNESS.md section 8).
 */

#ifndef BIGLITTLE_BASE_RECOVERY_HH
#define BIGLITTLE_BASE_RECOVERY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"

namespace biglittle
{

/** What one scripted recovery action does when its tick arrives. */
enum class RecoveryActionKind
{
    /** Reseed the fault injector's stream with arg (seed). */
    perturbFaultRng,

    /** Switch the event queue to shuffle tie-break, seed = arg. */
    perturbTieBreak,

    /**
     * Evacuate core arg and take it offline permanently: the
     * platform refuses to bring a quarantined core back, so neither
     * the fault injector's replug nor a later policy can revive it.
     */
    quarantineCore,

    /**
     * Pin cluster arg's frequency domain at arg2 kHz (0 = the
     * domain's current frequency): governor requests are refused
     * from then on, isolating a misbehaving DVFS path.
     */
    pinFreqDomain,

    /** Stop injecting fault class arg (FaultClass as integer). */
    disableFaultClass,
};

/** Stable lower-case name ("quarantine-core"). */
const char *recoveryActionKindName(RecoveryActionKind kind);

/**
 * One timed recovery decision.  Actions apply when the simulation
 * reaches atTick (chunk-aligned, after resume verification at that
 * tick), in script order; an attempt resuming past atTick applies
 * the action during its fast-forward at exactly the same tick, which
 * keeps re-execution byte-identical to the attempt that introduced
 * it.
 */
struct RecoveryAction
{
    Tick atTick = 0;
    RecoveryActionKind kind = RecoveryActionKind::perturbFaultRng;
    std::uint64_t arg = 0;
    std::uint64_t arg2 = 0;

    /** Human-readable provenance ("crash@cpu5 attempt 2"). */
    std::string detail;

    /** "quarantine-core(5)@12000000 # detail" */
    std::string describe() const;
};

/** Why a supervised attempt was declared failed. */
enum class RecoveryTrigger
{
    none,
    fatalFault, ///< injector raised an unrecoverable fault
    invariantViolation, ///< periodic invariant sweep failed
    watchdogStall, ///< wall-clock watchdog tripped
    resumeDivergence, ///< fast-forward state mismatched checkpoint
};

/** Stable lower-case name ("invariant-violation"). */
const char *recoveryTriggerName(RecoveryTrigger trigger);

/** One incident -> decision record in the report. */
struct RecoveryEvent
{
    std::uint32_t attempt = 0; ///< attempt that failed (1-based)
    RecoveryTrigger trigger = RecoveryTrigger::none;

    /** Stable incident signature ("fatal-fault:cpu5"). */
    std::string incident;

    Tick failedAt = 0; ///< simulated tick of the failure
    Tick rollbackTo = 0; ///< checkpoint tick resumed from (0 = fresh)

    /** Actions appended to the script in response. */
    std::vector<RecoveryAction> actions;
};

/** How a supervised run ended. */
enum class RecoveryOutcome
{
    clean, ///< first attempt succeeded, nothing to recover
    recovered, ///< retries were needed; full capability retained
    degraded, ///< finished, but with quarantined components
    failed, ///< retry budget exhausted and the run still failing
};

/** Stable lower-case name ("degraded"). */
const char *recoveryOutcomeName(RecoveryOutcome outcome);

/**
 * The supervised run's structured decision record.  Deterministic:
 * built only from simulated ticks, seeds, and incident signatures,
 * never from wall-clock or host state, so one master seed yields one
 * byte-exact report.
 */
struct RecoveryReport
{
    RecoveryOutcome outcome = RecoveryOutcome::clean;
    std::uint32_t attempts = 1; ///< runs launched (>= 1)
    std::uint32_t retries = 0; ///< rollback-retry cycles
    std::uint32_t quarantines = 0; ///< quarantine actions taken
    std::vector<RecoveryEvent> events;

    /** fnv1a64 over the final run's per-section state digests. */
    std::uint64_t finalStateDigest = 0;

    /** Multi-line, stable rendering (one line per event). */
    std::string toString() const;

    /** fnv1a64 of toString(): one number to compare two reports. */
    std::uint64_t digest() const;
};

} // namespace biglittle

#endif // BIGLITTLE_BASE_RECOVERY_HH
