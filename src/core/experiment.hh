/**
 * @file
 * Experiment: the one-stop harness that assembles a platform, the
 * HMP scheduler, per-cluster governors and the measurement
 * instruments, runs a workload, and returns every metric the paper's
 * tables and figures need.  All bench binaries and examples are thin
 * wrappers over this class.
 */

#ifndef BIGLITTLE_CORE_EXPERIMENT_HH
#define BIGLITTLE_CORE_EXPERIMENT_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/recovery.hh"
#include "base/types.hh"
#include "core/efficiency.hh"
#include "core/freq_residency.hh"
#include "core/state_sampler.hh"
#include "core/tlp.hh"
#include "fault/fault.hh"
#include "fault/invariants.hh"
#include "governor/interactive.hh"
#include "platform/params.hh"
#include "platform/power.hh"
#include "platform/thermal.hh"
#include "sched/sched_params.hh"
#include "sim/eventq.hh"
#include "snapshot/checkpoint.hh"
#include "snapshot/watchdog.hh"
#include "workload/app_model.hh"
#include "workload/spec.hh"

namespace biglittle
{

/** Which frequency policy each cluster runs. */
enum class GovernorKind
{
    interactive, ///< Algorithm 2, the platform default
    performance,
    powersave,
    ondemand,
    conservative, ///< stepwise ondemand variant
    schedutil, ///< modern capacity-driven policy
    userspace, ///< fixed frequency (Figs. 2/3/6)
};

/** Human-readable governor name. */
const char *governorKindName(GovernorKind kind);

/** Checkpoint / trace / resume controls of one run. */
struct SnapshotParams
{
    /** Simulated ticks between automatic checkpoints (0 = off). */
    Tick checkpointEvery = 0;

    /** Directory the periodic checkpoints are written to. */
    std::string checkpointDir = ".";

    /**
     * Resume from this checkpoint: the run deterministically
     * re-executes up to the checkpoint's tick, compares every live
     * section digest against the file, and then continues.  A
     * mismatch ends the run with a failed result (trigger
     * resume-divergence) naming the differing section.  Requires the
     * same config, app, and seeds that produced the checkpoint.
     */
    std::string resumePath;

    /** Record the serviced-event trace to this file. */
    std::string recordTracePath;

    /**
     * Compare this run's serviced events against a recorded trace
     * and report the first diverging event.  The run is recorded
     * and compared once it ends, so this combines with
     * recordTracePath (even the same path: the reference is read
     * before the new trace is written).
     */
    std::string replayTracePath;
};

/**
 * abrace race detection and permuted tie-break controls of one run
 * (sim/abrace.hh, docs/DETERMINISM.md).
 */
struct RaceParams
{
    /**
     * Attach a RaceDetector to the run's event queue: every
     * instrumented handler's noteRead/noteWrite calls are recorded
     * and same-(tick, priority) access conflicts between unordered
     * events are reported in AppRunResult::raceReport.
     */
    bool detect = false;

    /**
     * Service order within each same-(tick, priority) batch.  `fifo`
     * is the production order; `lifo`/`shuffle` rerun the simulation
     * under a different-but-valid order so end-state digests can be
     * compared (compareStateDigests) to prove order independence.
     */
    TieBreak tieBreak = TieBreak::fifo;

    /** Seed of the `shuffle` tie-break's private generator. */
    std::uint64_t shuffleSeed = 1;

    /**
     * Unread: abrace has no suppression baseline any more.  It stays
     * declared only because perfbench/rig.cc's mirrored() check names
     * it; both go together in the next change to the benchmark.
     */
    std::string baselinePath;
};

/** Checkpoint overhead of one run. */
struct CheckpointStats
{
    std::uint64_t count = 0; ///< checkpoints taken
    std::uint64_t bytes = 0; ///< total encoded bytes
    double writeMs = 0.0; ///< wall time spent serializing + writing
    std::string lastPath; ///< most recent checkpoint file

    /**
     * Supervised runs write no files: every checkpoint is kept here
     * instead, oldest first, for Supervisor::run to take over as a
     * rollback target.
     */
    std::vector<Checkpoint> kept;
};

/**
 * Supervised-execution controls of one run (docs/ROBUSTNESS.md §8).
 * The Supervisor (src/supervise) populates these; plain runs leave
 * them defaulted and keep the historical die-on-failure behavior.
 */
struct RecoveryParams
{
    /**
     * Intercept failures (unrecoverable faults, invariant-sweep
     * failures, watchdog trips, resume divergence) instead of dying:
     * the run loop stops at the next chunk boundary and reports the
     * failure in AppRunResult so a supervisor can roll back and
     * retry.
     */
    bool supervised = false;

    /**
     * Roll back to this checkpoint: the run re-executes to its tick
     * and compares every section digest, exactly as a file resume
     * does.  Replaces snapshot.resumePath when set.
     */
    std::optional<Checkpoint> rollback;

    /**
     * Timed recovery actions, in append order.  Each action is
     * applied at the first chunk boundary at or after its atTick —
     * after resume verification and the boundary's checkpoint write,
     * so a checkpoint at tick T never bakes in same-tick actions and
     * every attempt replaying the same script reconstructs
     * byte-identical state (docs/ROBUSTNESS.md §8).
     */
    std::vector<RecoveryAction> script;
};

/** Everything that defines one experimental condition. */
struct ExperimentConfig
{
    PlatformParams platform = exynos5422Params();
    SchedParams sched = baselineSchedParams();
    GovernorKind governor = GovernorKind::interactive;
    InteractiveParams interactive = defaultInteractiveParams();

    /** Fixed frequencies for GovernorKind::userspace (0 = min). */
    FreqKHz userspaceLittleFreq = 0;
    FreqKHz userspaceBigFreq = 0;

    /** Online core combination (Figs. 7/8). */
    CoreConfig coreConfig = {4, 4, "L4+B4"};

    /**
     * Thermal throttling of each cluster (a single big core can
     * sustain max frequency; parallel big-cluster bursts settle near
     * 1.0-1.4 GHz, as real phones do).
     */
    bool thermalEnabled = true;
    ThermalParams thermal;

    /**
     * Fault injection (disabled by default).  When enabled the run
     * also carries an InvariantChecker wired as the scheduler
     * observer, and the result reports injected-fault counts plus
     * any invariant violations.
     */
    FaultParams fault;

    /** Characterization sampling window (the paper's 10 ms). */
    Tick sampleWindow = msToTicks(10);

    /** Cap for latency apps that never finish (safety net). */
    Tick maxSimTime = msToTicks(300000);

    /**
     * Master seed for the run's named random streams.  0 (the
     * default) keeps the legacy behavior - each subsystem uses the
     * seed its own spec carries - which preserves the calibrated
     * reference results.  Nonzero derives every stream (app
     * behaviors, fault injector, kernels) independently from this
     * one value via deriveStreamSeed(), so one number reproduces a
     * whole run and no two subsystems share a stream.
     */
    std::uint64_t masterSeed = 0;

    /** Checkpoint / trace / resume controls. */
    SnapshotParams snapshot;

    /** Wall-clock stall/runaway monitor. */
    WatchdogParams watchdog;

    /** abrace race detection / permuted tie-break controls. */
    RaceParams race;

    /** Supervised-execution controls (src/supervise). */
    RecoveryParams recovery;

    std::string label = "default";
};

/** Per-task summary captured at the end of a run. */
struct TaskSummary
{
    std::string name;
    double instructionsRetired = 0.0;
    Tick littleRuntime = 0;
    Tick bigRuntime = 0;
    std::uint64_t typeMigrations = 0;

    /** Share of execution time spent on big cores, in percent. */
    double
    bigSharePct() const
    {
        const Tick total = littleRuntime + bigRuntime;
        return total == 0 ? 0.0
                          : 100.0 * static_cast<double>(bigRuntime) /
                                static_cast<double>(total);
    }
};

/** All metrics of one application run. */
struct AppRunResult
{
    std::string app;
    std::string configLabel;
    AppMetric metric = AppMetric::fps;

    Tick simulatedTime = 0;
    bool completed = false; ///< latency apps: script finished in time

    // performance
    Tick latency = 0; ///< latency apps
    double avgFps = 0.0; ///< fps apps
    double minFps = 0.0; ///< fps apps: worst 1-second window
    std::uint64_t frames = 0;

    // power/energy
    EnergyBreakdown energy;
    double avgPowerMw = 0.0;

    // characterization
    TlpReport tlp;
    EfficiencyReport efficiency;
    FreqResidency littleResidency;
    FreqResidency bigResidency;
    SchedStats sched;
    std::vector<TaskSummary> tasks; ///< per-thread breakdown

    // robustness (populated when cfg.fault.enabled)
    FaultStats faults;
    std::uint64_t invariantViolations = 0;
    /** Final invariant sweep's summary; empty when the run is
     *  invariant-clean. */
    std::string invariantSummary;

    // determinism / recovery (populated when cfg.snapshot used)
    CheckpointStats checkpoints;
    Tick resumedFrom = 0; ///< checkpoint tick the run resumed at
    bool traceDiverged = false;
    std::string divergenceReport; ///< first-diverging-event details

    // supervision (populated when cfg.recovery.supervised, plus
    // resume-divergence reporting on plain runs)
    bool failed = false; ///< the run loop intercepted a failure
    RecoveryTrigger failureTrigger = RecoveryTrigger::none;
    std::string failureIncident; ///< stable signature ("fatal-fault:cpu5")
    CoreId failureCore = invalidCoreId; ///< implicated core, if any
    Tick failedAt = 0; ///< tick the failure was intercepted at
    std::string failureDetail; ///< human-readable diagnosis
    std::uint64_t scriptApplied = 0; ///< recovery actions applied

    // abrace (populated when cfg.race.detect)
    std::uint64_t raceConflicts = 0; ///< distinct conflicts
    std::string raceReport; ///< TSan-style details, empty when clean

    /**
     * The sections of a checkpoint taken once the run ends: one
     * fnv1a64 digest per component, in section order ("eventq",
     * "cluster.N", ..., "app").  Always populated; the permuted
     * tie-break replay compares these between a fifo run and a
     * lifo/shuffle rerun via compareStateDigests().
     */
    SectionDigests stateDigests;

    /** Headline performance number: ms latency or average FPS. */
    double performanceValue() const;
};

/**
 * Compare the end-state digests of two runs of the same config with
 * compareSections(), skipping the digest of "eventq": it folds in
 * per-event sequence numbers, which legitimately differ under a
 * permuted tie-break even when the runs are otherwise bit-identical
 * (docs/DETERMINISM.md lists this as a known blind spot).  Returns
 * ok on match, otherwise names the first differing section.
 */
[[nodiscard]] Status compareStateDigests(const AppRunResult &a,
                                         const AppRunResult &b);

/** Metrics of one single-core fixed-frequency kernel run. */
struct KernelRunResult
{
    std::string kernel;
    CoreType coreType = CoreType::little;
    FreqKHz freq = 0;

    /** False when the kernel hit the simulation cap unfinished. */
    bool completed = true;

    Tick runtime = 0;
    double avgPowerMw = 0.0;
    EnergyBreakdown energy;
};

/** Metrics of one microbenchmark utilization point. */
struct MicrobenchResult
{
    CoreType coreType = CoreType::little;
    FreqKHz freq = 0;
    double targetUtilization = 0.0;
    double achievedUtilization = 0.0;
    double avgPowerMw = 0.0;
};

/** Assembles and runs experimental conditions. */
class Experiment
{
  public:
    explicit Experiment(ExperimentConfig config = ExperimentConfig{});

    const ExperimentConfig &config() const { return cfg; }

    /** Run one application under the configured system. */
    AppRunResult runApp(const AppSpec &app);

    /**
     * Run a single-threaded kernel pinned to one core of @p type
     * clocked at @p freq (Figs. 2/3); the other cluster idles at its
     * minimum frequency.
     */
    KernelRunResult runKernel(const SpecKernel &kernel, CoreType type,
                              FreqKHz freq);

    /**
     * Hold @p utilization on one core of @p type at @p freq for
     * @p duration and report average power (Fig. 6).
     */
    MicrobenchResult runMicrobench(CoreType type, FreqKHz freq,
                                   double utilization, Tick duration);

  private:
    ExperimentConfig cfg;
};

} // namespace biglittle

#endif // BIGLITTLE_CORE_EXPERIMENT_HH
