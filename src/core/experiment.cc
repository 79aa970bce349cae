#include "core/experiment.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>

#include "base/logging.hh"
#include "base/serialize.hh"
#include "base/strutil.hh"
#include "governor/simple_governors.hh"
#include "sched/hmp.hh"
#include "sim/abrace.hh"
#include "sim/simulation.hh"
#include "snapshot/event_trace.hh"
#include "workload/behavior.hh"
#include "workload/microbench.hh"

namespace biglittle
{

const char *
governorKindName(GovernorKind kind)
{
    switch (kind) {
      case GovernorKind::interactive:
        return "interactive";
      case GovernorKind::performance:
        return "performance";
      case GovernorKind::powersave:
        return "powersave";
      case GovernorKind::ondemand:
        return "ondemand";
      case GovernorKind::conservative:
        return "conservative";
      case GovernorKind::schedutil:
        return "schedutil";
      case GovernorKind::userspace:
        return "userspace";
    }
    return "unknown";
}

double
AppRunResult::performanceValue() const
{
    if (metric == AppMetric::latency)
        return static_cast<double>(latency) /
               static_cast<double>(oneMs);
    return avgFps;
}

Status
compareStateDigests(const AppRunResult &a, const AppRunResult &b)
{
    return compareSections(a.stateDigests, b.stateDigests, "eventq");
}

namespace
{

/** Everything a run needs, wired together with correct lifetimes. */
struct Rig
{
    Simulation sim;
    AsymmetricPlatform platform;
    HmpScheduler sched;
    PowerModel power;
    std::vector<std::unique_ptr<Governor>> governors;
    std::vector<std::unique_ptr<ThermalThrottle>> throttles;
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<InvariantChecker> checker;

    explicit Rig(const ExperimentConfig &cfg)
        : platform(sim, cfg.platform),
          sched(sim, platform, cfg.sched), power(platform)
    {
        platform.applyCoreConfig(cfg.coreConfig);
        for (std::size_t i = 0; i < platform.clusterCount(); ++i) {
            Cluster &cl = platform.cluster(i);
            governors.push_back(makeGovernor(cfg, cl));
            if (cfg.thermalEnabled) {
                throttles.push_back(std::make_unique<ThermalThrottle>(
                    sim, cl, cfg.thermal));
            }
        }
        if (cfg.fault.enabled) {
            FaultParams fault_params = cfg.fault;
            if (cfg.masterSeed != 0) {
                fault_params.seed =
                    deriveStreamSeed(cfg.masterSeed, "fault");
            }
            injector = std::make_unique<FaultInjector>(
                sim, platform, sched, fault_params);
            for (auto &throttle : throttles)
                injector->addThermal(throttle.get());
            checker = std::make_unique<InvariantChecker>(
                sim, platform, &sched, &power);
            sched.setObserver(checker.get());
            // Injected invariant breaks surface through the checker
            // like any sweep finding, so supervised runs detect them
            // at the same chunk boundary either way.
            injector->setViolationSink([this](const std::string &what) {
                checker->reportExternal(what);
            });
        }
    }

    std::unique_ptr<Governor>
    makeGovernor(const ExperimentConfig &cfg, Cluster &cl)
    {
        switch (cfg.governor) {
          case GovernorKind::interactive:
            return std::make_unique<InteractiveGovernor>(
                sim, cl, cfg.interactive);
          case GovernorKind::performance:
            return std::make_unique<PerformanceGovernor>(sim, cl);
          case GovernorKind::powersave:
            return std::make_unique<PowersaveGovernor>(sim, cl);
          case GovernorKind::ondemand:
            return std::make_unique<OndemandGovernor>(sim, cl);
          case GovernorKind::conservative:
            return std::make_unique<ConservativeGovernor>(sim, cl);
          case GovernorKind::schedutil:
            return std::make_unique<SchedutilGovernor>(sim, cl);
          case GovernorKind::userspace: {
            FreqKHz f = cl.type() == CoreType::little
                ? cfg.userspaceLittleFreq : cfg.userspaceBigFreq;
            if (f == 0)
                f = cl.freqDomain().minFreq();
            return std::make_unique<UserspaceGovernor>(sim, cl, f);
          }
        }
        panic("unhandled governor kind");
    }

    void
    startSystem()
    {
        for (auto &gov : governors)
            gov->start();
        for (auto &throttle : throttles)
            throttle->start();
        sched.start();
        if (checker != nullptr)
            checker->start();
        if (injector != nullptr)
            injector->start();
    }
};

/**
 * Fingerprint the full mutable state of a rigged run as named section
 * digests.  The section list is the checkpoint contract: every
 * component with state that can drift between runs must appear here,
 * because resume verification compares exactly these digests.
 */
Checkpoint
collectCheckpoint(Rig &rig, AppInstance &instance,
                  const ExperimentConfig &cfg, const std::string &app)
{
    rig.platform.sync();
    Checkpoint ckpt;
    ckpt.app = app;
    ckpt.label = cfg.label;
    ckpt.masterSeed = cfg.masterSeed;
    ckpt.tick = rig.sim.now();

    const auto section = [&ckpt](std::string name, auto &component) {
        Serializer s;
        component.serialize(s);
        ckpt.sections.emplace_back(std::move(name), s.digest());
    };
    section("eventq", rig.sim.eventQueue());
    for (std::size_t i = 0; i < rig.platform.clusterCount(); ++i)
        section(format("cluster.%zu", i), rig.platform.cluster(i));
    for (std::size_t i = 0; i < rig.throttles.size(); ++i)
        section(format("thermal.%zu", i), *rig.throttles[i]);
    section("sched", rig.sched);
    for (std::size_t i = 0; i < rig.governors.size(); ++i)
        section(format("governor.%zu", i), *rig.governors[i]);
    if (rig.injector != nullptr)
        section("fault", *rig.injector);
    section("app", instance);
    return ckpt;
}

/**
 * Apply one timed recovery action to a live rig.  Called at chunk
 * boundaries only (a serialization point: no event in flight), in
 * script order, so every attempt replaying the same script perturbs
 * the run at exactly the same place.
 */
void
applyRecoveryAction(Rig &rig, const RecoveryAction &act,
                    AppRunResult &result)
{
    inform("recovery: applying %s", act.describe().c_str());
    switch (act.kind) {
      case RecoveryActionKind::perturbFaultRng:
        if (rig.injector != nullptr)
            rig.injector->reseed(act.arg);
        break;
      case RecoveryActionKind::perturbTieBreak:
        rig.sim.eventQueue().setTieBreak(TieBreak::shuffle, act.arg);
        break;
      case RecoveryActionKind::quarantineCore: {
        const CoreId id = static_cast<CoreId>(act.arg);
        if (id >= rig.platform.coreCount())
            break;
        Core &core = rig.platform.core(id);
        if (core.online()) {
            const Result<std::size_t> moved = rig.sched.evacuateCore(id);
            if (!moved.ok()) {
                warn("recovery: evacuating core %u failed: %s", id,
                     moved.status().message().c_str());
            }
            const Status off = rig.platform.setCoreOnline(id, false);
            if (!off.ok()) {
                warn("recovery: cannot hotplug core %u out: %s", id,
                     off.message().c_str());
            }
        }
        // The latch only engages once the core is actually out; a
        // refused unplug (boot core) leaves the supervisor to
        // escalate to its disable-the-class rung instead.
        if (!core.online())
            core.markQuarantined();
        break;
      }
      case RecoveryActionKind::pinFreqDomain: {
        const std::size_t cl = static_cast<std::size_t>(act.arg);
        if (cl < rig.platform.clusterCount()) {
            rig.platform.cluster(cl).freqDomain().setPinned(
                static_cast<FreqKHz>(act.arg2));
        }
        break;
      }
      case RecoveryActionKind::disableFaultClass:
        if (rig.injector != nullptr && act.arg < faultClassCount)
            rig.injector->disableClass(static_cast<FaultClass>(act.arg));
        break;
    }
    ++result.scriptApplied;
}

} // namespace

Experiment::Experiment(ExperimentConfig config)
    : cfg(std::move(config))
{
}

AppRunResult
Experiment::runApp(const AppSpec &app)
{
    const SnapshotParams &snap = cfg.snapshot;

    AppSpec run_app = app;
    if (cfg.masterSeed != 0) {
        run_app.seed =
            deriveStreamSeed(cfg.masterSeed, "app." + app.name);
    }

    Rig rig(cfg);

    // abrace: attach the race detector / permuted tie-break before
    // any event is scheduled so provenance covers the whole run.
    std::unique_ptr<RaceDetector> race;
    if (cfg.race.detect) {
        race = std::make_unique<RaceDetector>();
        rig.sim.eventQueue().setRaceDetector(race.get());
    }
    if (cfg.race.tieBreak != TieBreak::fifo) {
        rig.sim.eventQueue().setTieBreak(cfg.race.tieBreak,
                                         cfg.race.shuffleSeed);
    }

    StateSampler sampler(rig.sim, rig.platform, cfg.sampleWindow);
    EfficiencyAnalyzer efficiency(rig.sim, rig.platform,
                                  cfg.sampleWindow);
    AppInstance instance(rig.sim, rig.sched, run_app);

    // Resume: load + identity-check the checkpoint before spending
    // any simulation time on the fast-forward.  A corrupt or
    // mismatched newest checkpoint falls back to older candidates
    // (rotated <path>.1, earlier periodic ticks), and when nothing
    // is usable the run simply starts fresh - a damaged file on disk
    // must never kill an otherwise valid experiment.  A supervisor's
    // in-memory rollback target needs none of that.
    std::optional<Checkpoint> resume = cfg.recovery.rollback;
    if (!resume && !snap.resumePath.empty()) {
        const auto accept = [&](const Checkpoint &c) -> Status {
            if (c.app != app.name || c.label != cfg.label ||
                c.masterSeed != cfg.masterSeed) {
                return failedPrecondition(format(
                    "checkpoint is from app '%s' config '%s' seed "
                    "%llu; this run is app '%s' config '%s' seed %llu",
                    c.app.c_str(), c.label.c_str(),
                    static_cast<unsigned long long>(c.masterSeed),
                    app.name.c_str(), cfg.label.c_str(),
                    static_cast<unsigned long long>(cfg.masterSeed)));
            }
            return okStatus();
        };
        Result<Checkpoint> loaded =
            loadCheckpointWithFallback(snap.resumePath, accept);
        if (loaded.ok()) {
            resume = std::move(loaded.value());
        } else {
            warn("resume: %s; starting from a fresh run",
                 loaded.status().message().c_str());
        }
    }

    // Record and replay both record the run; replay compares the
    // recording with its reference once the run ends.
    EventTraceRecorder recorder;
    if (!snap.recordTracePath.empty() || !snap.replayTracePath.empty())
        recorder.attach(rig.sim.eventQueue());

    Watchdog watchdog(cfg.watchdog);
    if (cfg.recovery.supervised) {
        // Supervised runs must survive a trip so the recovery state
        // machine can roll back and retry; the trip is polled at the
        // next chunk boundary instead of exiting the process.
        watchdog.setExitOnTrip(false);
    }
    watchdog.start(rig.sim.eventQueue());

    rig.startSystem();
    sampler.start();
    efficiency.start();
    const PowerSnapshot before = rig.power.snapshot();
    const Tick start = rig.sim.now();
    instance.start();

    AppRunResult result;

    const Tick cap = start +
        (app.metric == AppMetric::latency
             ? std::min(app.duration, cfg.maxSimTime)
             : app.duration);

    // One chunked loop for both metrics: chunk boundaries never
    // change the event order (runUntil parks the clock), they only
    // give us places to heartbeat, checkpoint, and land exactly on
    // the resume tick.
    const Tick chunk = msToTicks(10);
    Tick next_ckpt =
        snap.checkpointEvery > 0 ? start + snap.checkpointEvery : 0;
    const Tick resume_tick = resume ? resume->tick : 0;
    bool resume_verified = !resume;

    const auto recordFailure = [&](RecoveryTrigger trigger,
                                   std::string incident, CoreId core,
                                   std::string detail) {
        result.failed = true;
        result.failureTrigger = trigger;
        result.failureIncident = std::move(incident);
        result.failureCore = core;
        result.failedAt = rig.sim.now();
        result.failureDetail = std::move(detail);
        warn("run failed (%s) at tick %llu: %s",
             recoveryTriggerName(trigger),
             static_cast<unsigned long long>(result.failedAt),
             result.failureDetail.c_str());
    };

    // Recovery-script replay: actions are applied at the first chunk
    // boundary at or after their atTick, after resume verification
    // and after the boundary's checkpoint write (so a checkpoint at
    // tick T never bakes in same-tick actions and resuming from it
    // replays them).  Actions scripted at or before the start tick
    // land here, before any event runs.  The script is replayed in
    // tick order, not append order - a supervisor rolling back
    // exponentially appends later decisions at *earlier* ticks - and
    // the sort is stable so same-tick actions keep their append
    // order, identically on every attempt.
    std::vector<RecoveryAction> script = cfg.recovery.script;
    std::stable_sort(script.begin(), script.end(),
                     [](const RecoveryAction &a, const RecoveryAction &b) {
                         return a.atTick < b.atTick;
                     });
    std::size_t next_action = 0;
    while (next_action < script.size() &&
           script[next_action].atTick <= rig.sim.now()) {
        applyRecoveryAction(rig, script[next_action], result);
        ++next_action;
    }
    const std::uint64_t violations_seen =
        rig.checker != nullptr ? rig.checker->violationCount() : 0;

    while (rig.sim.now() < cap) {
        if (app.metric == AppMetric::latency && instance.done())
            break;
        Tick target = std::min(cap, rig.sim.now() + chunk);
        if (next_ckpt > rig.sim.now())
            target = std::min(target, next_ckpt);
        if (!resume_verified && resume_tick > rig.sim.now())
            target = std::min(target, resume_tick);
        rig.sim.runUntil(target);
        watchdog.heartbeat();

        if (!resume_verified && rig.sim.now() >= resume_tick) {
            // The fast-forward reached the checkpoint's tick: every
            // live section digest must now equal the file's, or the
            // "resumed" run would silently diverge from the one that
            // wrote the checkpoint.  A mismatch is intercepted
            // as a failure (never fatal): unsupervised callers get a
            // failed result, a supervisor falls back to an older
            // checkpoint or a fresh start.
            const Checkpoint live =
                collectCheckpoint(rig, instance, cfg, app.name);
            const Status match = compareCheckpoints(*resume, live);
            if (!match.ok()) {
                recordFailure(RecoveryTrigger::resumeDivergence,
                              "resume-divergence", invalidCoreId,
                              format("resume verification failed at "
                                     "tick %llu: %s",
                                     static_cast<unsigned long long>(
                                         resume_tick),
                                     match.toString().c_str()));
                break;
            }
            result.resumedFrom = resume_tick;
            resume_verified = true;
        }

        // Failure interception: an armed unrecoverable fault kills an
        // unsupervised run (the historical die-on-oops contract) and
        // stops a supervised one at this boundary for rollback-retry.
        if (rig.injector != nullptr &&
            rig.injector->pendingFatal().armed) {
            const PendingFatal pf = rig.injector->pendingFatal();
            if (!cfg.recovery.supervised) {
                // Unsupervised runs keep the die-on-oops
                // contract; supervised ones recover below.
                // ablint:allow(post-init-fatal): die-on-oops contract
                fatal("unrecoverable fault on core %u at tick %llu",
                      pf.core,
                      static_cast<unsigned long long>(pf.at));
            }
            recordFailure(
                RecoveryTrigger::fatalFault,
                format("fatal-fault:cpu%u", pf.core), pf.core,
                format("%s unrecoverable fault on core %u",
                       pf.persistent ? "persistent" : "transient",
                       pf.core));
            break;
        }
        if (cfg.recovery.supervised && rig.checker != nullptr &&
            rig.checker->violationCount() > violations_seen) {
            const auto &recorded = rig.checker->violations();
            recordFailure(RecoveryTrigger::invariantViolation,
                          "invariant-violation", invalidCoreId,
                          recorded.empty() ? "invariant violation"
                                           : recorded.back().what);
            break;
        }
        if (cfg.recovery.supervised && watchdog.trips() > 0) {
            recordFailure(RecoveryTrigger::watchdogStall,
                          "watchdog-stall", invalidCoreId,
                          "wall-clock watchdog tripped");
            break;
        }

        if (next_ckpt > 0 && rig.sim.now() >= next_ckpt) {
            if (resume_verified) {
                // Host time measures checkpoint-write overhead for
                // the stats report; it never feeds back into
                // simulated behavior.
                // ablint:allow(wall-clock): overhead metric only
                const auto t0 = std::chrono::steady_clock::now();
                Checkpoint ckpt =
                    collectCheckpoint(rig, instance, cfg, app.name);
                const std::vector<std::uint8_t> bytes = ckpt.encode();
                Status written = okStatus();
                if (cfg.recovery.supervised) {
                    // Rollback targets: the supervisor verifies
                    // against these and never reads a file.
                    result.checkpoints.kept.push_back(std::move(ckpt));
                } else {
                    const std::string path = snap.checkpointDir + "/" +
                        app.name + "." + cfg.label +
                        format(".%llu.ckpt",
                               static_cast<unsigned long long>(
                                   ckpt.tick));
                    written = Checkpoint::writeBytes(path, bytes);
                    if (written.ok())
                        result.checkpoints.lastPath = path;
                }
                // ablint:allow(wall-clock): overhead metric only
                const auto t1 = std::chrono::steady_clock::now();
                if (!written.ok()) {
                    warn("checkpoint write failed: %s",
                         written.toString().c_str());
                } else {
                    ++result.checkpoints.count;
                    result.checkpoints.bytes += bytes.size();
                    result.checkpoints.writeMs +=
                        std::chrono::duration<double, std::milli>(
                            t1 - t0)
                            .count();
                    watchdog.noteCheckpoint(bytes);
                }
            }
            next_ckpt += snap.checkpointEvery;
        }

        while (next_action < script.size() &&
               script[next_action].atTick <= rig.sim.now()) {
            applyRecoveryAction(rig, script[next_action], result);
            ++next_action;
        }
    }

    watchdog.stop();
    // abrace: close the last open batch, harvest, and detach before
    // teardown (component destructors deschedule events, and the
    // detector is destroyed before the rig is).
    if (race != nullptr) {
        race->finish();
        rig.sim.eventQueue().setRaceDetector(nullptr);
        result.raceConflicts = race->conflicts().size();
        result.raceReport = race->report();
        if (result.raceConflicts > 0) {
            warn("abrace: %llu conflict(s) in app '%s':\n%s",
                 static_cast<unsigned long long>(result.raceConflicts),
                 app.name.c_str(), result.raceReport.c_str());
        }
    }
    recorder.detach();
    if (!snap.replayTracePath.empty()) {
        // Read the reference before the recording is written, so
        // one path can serve as both.
        const Result<EventTrace> reference =
            EventTrace::readFile(snap.replayTracePath);
        if (!reference.ok()) {
            // Skip the comparison rather than dying on a damaged
            // reference; the warning keeps it auditable.
            warn("replay: %s; skipping trace comparison",
                 reference.status().toString().c_str());
        } else if (const std::optional<Divergence> divergence =
                       compareTraces(reference.value(),
                                     recorder.trace())) {
            result.traceDiverged = true;
            result.divergenceReport = divergence->describe();
            warn("replay diverged from '%s':\n%s",
                 snap.replayTracePath.c_str(),
                 result.divergenceReport.c_str());
        }
    }
    if (!snap.recordTracePath.empty()) {
        const Status written =
            recorder.trace().writeFile(snap.recordTracePath);
        if (!written.ok())
            warn("trace write failed: %s",
                 written.toString().c_str());
    }

    result.app = app.name;
    result.configLabel = cfg.label;
    result.metric = app.metric;
    result.simulatedTime = rig.sim.now() - start;
    result.completed = !result.failed &&
        (app.metric == AppMetric::latency ? instance.done() : true);
    if (app.metric == AppMetric::latency) {
        result.latency = instance.done() ? instance.latency()
                                         : result.simulatedTime;
        // A failed run stopped early; it never reached the cap.
        if (!instance.done() && !result.failed)
            warn("app '%s' hit the simulation cap before finishing",
                 app.name.c_str());
    } else {
        result.avgFps = instance.frameStats().averageFps();
        result.minFps = instance.frameStats().minFps();
        result.frames = instance.frameStats().frames();
    }

    const PowerSnapshot after = rig.power.snapshot();
    result.energy = rig.power.energyBetween(before, after);
    result.avgPowerMw = result.energy.averagePowerMw();

    result.tlp = makeTlpReport(sampler);
    result.efficiency = efficiency.report();
    result.littleResidency =
        makeFreqResidency(rig.platform.littleCluster());
    result.bigResidency = makeFreqResidency(rig.platform.bigCluster());
    result.sched = rig.sched.stats();
    for (const auto &task : rig.sched.tasks()) {
        TaskSummary summary;
        summary.name = task->name();
        summary.instructionsRetired = task->instructionsRetired();
        summary.littleRuntime = task->runtimeOn(CoreType::little);
        summary.bigRuntime = task->runtimeOn(CoreType::big);
        summary.typeMigrations = task->typeMigrations();
        result.tasks.push_back(std::move(summary));
    }
    if (rig.injector != nullptr)
        result.faults = rig.injector->stats();
    if (rig.checker != nullptr) {
        const Status final_sweep = rig.checker->checkNow();
        result.invariantViolations = rig.checker->violationCount();
        if (!final_sweep.ok())
            result.invariantSummary = final_sweep.toString();
    }

    // End-state fingerprint: the sections of a final checkpoint, so
    // two runs of the same config can be compared for bit-identity
    // without writing checkpoint files (compareStateDigests).
    result.stateDigests =
        collectCheckpoint(rig, instance, cfg, app.name).sections;
    return result;
}

KernelRunResult
Experiment::runKernel(const SpecKernel &kernel, CoreType type,
                      FreqKHz freq)
{
    ExperimentConfig run_cfg = cfg;
    run_cfg.governor = GovernorKind::userspace;
    if (type == CoreType::little)
        run_cfg.userspaceLittleFreq = freq;
    else
        run_cfg.userspaceBigFreq = freq;

    Experiment sub(run_cfg);
    Rig rig(sub.cfg);

    // Pin to the first online core of the requested cluster.
    Cluster &cluster = rig.platform.clusterOf(type);
    Core *target = nullptr;
    for (std::size_t i = 0; i < cluster.coreCount(); ++i) {
        if (cluster.core(i).online()) {
            target = &cluster.core(i);
            break;
        }
    }
    if (target == nullptr) {
        // The kernel has nowhere to run: a setup error.
        // ablint:allow(post-init-fatal): setup-time validation
        fatal("no online %s core for kernel '%s'", coreTypeName(type),
              kernel.name.c_str());
    }

    Task &task = rig.sched.createTask(kernel.name, kernel.workClass,
                                      target->id());
    bool finished = false;
    // Legacy fixed seed when no master seed is set (preserves the
    // calibrated reference numbers); otherwise a named stream.
    ContinuousBehavior behavior(
        rig.sim, task,
        cfg.masterSeed != 0
            ? namedStream(cfg.masterSeed, "kernel." + kernel.name)
            // ablint:allow(rng-stream): legacy fixed seed preserving calibrated reference numbers
            : Rng(7),
        kernel.instructions, [&finished](Tick) { finished = true; });

    rig.startSystem();
    const PowerSnapshot before = rig.power.snapshot();
    const Tick start = rig.sim.now();
    behavior.start();

    const Tick cap = start + cfg.maxSimTime;
    while (!finished && rig.sim.now() < cap)
        rig.sim.runFor(msToTicks(50));

    KernelRunResult result;
    result.kernel = kernel.name;
    result.coreType = type;
    result.freq = freq;
    result.completed = finished;
    if (finished) {
        result.runtime = behavior.completionTick() - start;
    } else {
        // An unfinished kernel is a reportable measurement problem,
        // not a process-killing one: callers check completed and a
        // supervisor retries the cell.
        warn("kernel '%s' did not finish within the simulation cap",
             kernel.name.c_str());
        result.runtime = rig.sim.now() - start;
    }
    const PowerSnapshot after = rig.power.snapshot();
    result.energy = rig.power.energyBetween(before, after);
    // Average power over the kernel's own runtime (the run loop may
    // overshoot completion by part of a slice).
    result.avgPowerMw = result.energy.elapsed > 0
        ? result.energy.totalMj() / ticksToSeconds(result.energy.elapsed)
        : 0.0;
    return result;
}

MicrobenchResult
Experiment::runMicrobench(CoreType type, FreqKHz freq,
                          double utilization, Tick duration)
{
    ExperimentConfig run_cfg = cfg;
    run_cfg.governor = GovernorKind::userspace;
    if (type == CoreType::little)
        run_cfg.userspaceLittleFreq = freq;
    else
        run_cfg.userspaceBigFreq = freq;

    Experiment sub(run_cfg);
    Rig rig(sub.cfg);

    Cluster &cluster = rig.platform.clusterOf(type);
    Core *target = nullptr;
    for (std::size_t i = 0; i < cluster.coreCount(); ++i) {
        if (cluster.core(i).online()) {
            target = &cluster.core(i);
            break;
        }
    }
    if (target == nullptr) {
        // The microbenchmark has nowhere to run: a setup error.
        // ablint:allow(post-init-fatal): setup-time validation
        fatal("no online %s core for the microbenchmark",
              coreTypeName(type));
    }

    UtilizationMicrobench bench(rig.sim, rig.sched, target->id(),
                                utilization);
    rig.startSystem();
    const PowerSnapshot before = rig.power.snapshot();
    const Tick start = rig.sim.now();
    const Tick busy_before = target->busyTicks();
    bench.start();
    rig.sim.runUntil(start + duration);

    rig.platform.sync();
    MicrobenchResult result;
    result.coreType = type;
    result.freq = freq;
    result.targetUtilization = utilization;
    result.achievedUtilization =
        static_cast<double>(target->busyTicks() - busy_before) /
        static_cast<double>(duration);
    const PowerSnapshot after = rig.power.snapshot();
    result.avgPowerMw =
        rig.power.energyBetween(before, after).averagePowerMw();
    return result;
}

} // namespace biglittle
