/**
 * @file
 * Supervisor: the recovery state machine around Experiment::runApp.
 *
 * A supervised run never simply dies.  Each attempt executes with
 * failure interception enabled (cfg.recovery.supervised); when the
 * run loop stops on an unrecoverable fault, an invariant-sweep
 * failure, a watchdog trip, or resume divergence, the Supervisor
 * decides — deterministically — how to continue:
 *
 *   retry   roll back to a good checkpoint (exponentially further
 *           back on repeats of the same incident) and re-run with a
 *           bounded, seed-derived perturbation: the fault injector's
 *           stream is re-drawn and, for stalls, the event queue's
 *           tie-break permuted;
 *   quarantine   when an incident survives its per-incident retry
 *           budget (or the total budget is spent), remove the
 *           offending component: hotplug the faulty core out for
 *           good, pin the stuck frequency domain, or disable the
 *           failing fault class — and continue in degraded mode;
 *   fail    when even quarantine does not cure the incident.
 *
 * The budgets are fixed (supervisor.cc): 2 retries per incident and
 * 8 in all.  Rollback targets never touch the disk: each attempt
 * keeps its periodic checkpoints in memory, the supervisor holds the
 * newest one per tick, and the next attempt re-executes to the
 * chosen tick and compares its section digests against it.
 *
 * Every decision is a timed RecoveryAction appended to the config's
 * recovery script and replayed by all later attempts at the same
 * tick, which keeps verified fast-forward byte-identical across
 * attempts.  The full decision record is the RecoveryReport: a pure
 * function of the master seed, so two supervised runs with the same
 * seed produce byte-identical reports and final state digests
 * (docs/ROBUSTNESS.md §8).
 */

#ifndef BIGLITTLE_SUPERVISE_SUPERVISOR_HH
#define BIGLITTLE_SUPERVISE_SUPERVISOR_HH

#include <cstdint>
#include <string>

#include "base/recovery.hh"
#include "core/experiment.hh"

namespace biglittle
{

/** The supervised run's outcome: final metrics + decision record. */
struct SupervisedRunResult
{
    /** The final attempt's full result (failed=false unless the
     *  supervisor gave up). */
    AppRunResult run;

    /** Every recovery decision, in order. */
    RecoveryReport report;
};

/** Wraps Experiment::runApp in the rollback-retry state machine. */
class Supervisor
{
  public:
    explicit Supervisor(ExperimentConfig config);

    /**
     * Run @p app under supervision.  Returns the final attempt's
     * result and the recovery report; result.run.failed is true only
     * when the escalation ladder was exhausted.
     */
    SupervisedRunResult run(const AppSpec &app);

  private:
    ExperimentConfig baseCfg;
};

/**
 * fnv1a64 fingerprint of a run's per-section end-state digests: the
 * one number two supervised runs of the same seed must agree on.
 */
std::uint64_t finalStateDigest(const AppRunResult &result);

} // namespace biglittle

#endif // BIGLITTLE_SUPERVISE_SUPERVISOR_HH
