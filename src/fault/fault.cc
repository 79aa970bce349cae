#include "fault/fault.hh"

#include "base/logging.hh"
#include "base/serialize.hh"
#include "platform/platform.hh"
#include "platform/thermal.hh"
#include "sched/hmp.hh"

namespace biglittle
{

const char *
faultClassName(FaultClass cls)
{
    switch (cls) {
      case FaultClass::hotplug:
        return "hotplug";
      case FaultClass::dvfs:
        return "dvfs";
      case FaultClass::thermal:
        return "thermal";
      case FaultClass::taskStall:
        return "task-stall";
      case FaultClass::crash:
        return "crash";
      case FaultClass::invariantBreak:
        return "invariant-break";
    }
    return "unknown";
}

QuarantineKind
quarantineFor(FaultClass cls)
{
    switch (cls) {
      case FaultClass::crash:
      case FaultClass::hotplug:
        // A core that oopses or flaps is removed from the topology.
        return QuarantineKind::core;
      case FaultClass::dvfs:
        // A misbehaving regulator is isolated by pinning its domain.
        return QuarantineKind::freqDomain;
      case FaultClass::thermal:
      case FaultClass::taskStall:
      case FaultClass::invariantBreak:
        // No single component to blame: stop the behavior itself.
        return QuarantineKind::faultClass;
    }
    return QuarantineKind::faultClass;
}

FaultParams
scaledFaultParams(double rate, std::uint64_t seed)
{
    BL_ASSERT(rate >= 0.0);
    FaultParams p;
    p.enabled = rate > 0.0;
    p.seed = seed;
    p.hotplugRatePerSec = 2.0 * rate;
    p.dvfsDenyProb = std::min(0.9, 0.10 * rate);
    p.dvfsDelayProb = std::min(0.9, 0.10 * rate);
    p.thermalSpikeRatePerSec = 1.0 * rate;
    p.taskStallRatePerSec = 4.0 * rate;
    return p;
}

FaultInjector::FaultInjector(Simulation &sim_in,
                             AsymmetricPlatform &platform,
                             HmpScheduler &sched_in,
                             const FaultParams &params)
    : sim(sim_in), plat(platform), sched(sched_in), fp(params),
      rng(params.seed)
{
    BL_ASSERT(fp.drawPeriod > 0);
    BL_ASSERT(fp.dvfsDenyProb >= 0.0 && fp.dvfsDenyProb <= 1.0);
    BL_ASSERT(fp.dvfsDelayProb >= 0.0 && fp.dvfsDelayProb <= 1.0);
}

FaultInjector::~FaultInjector()
{
    // The DVFS gates capture `this`; make sure a domain outliving the
    // injector (not the usual Rig lifetime, but possible in tests)
    // never calls into a dead object.
    if (gatesInstalled) {
        for (std::size_t i = 0; i < plat.clusterCount(); ++i)
            plat.cluster(i).freqDomain().setFaultGate(nullptr);
    }
}

void
FaultInjector::addThermal(ThermalThrottle *throttle)
{
    BL_ASSERT(throttle != nullptr);
    throttles.push_back(throttle);
}

DvfsFaultAction
FaultInjector::gateDecision()
{
    // Called from inside whatever event requested the frequency: the
    // draw advances the injector's shared rng, so two same-batch
    // requesters would consume each other's numbers.  This is how
    // abrace caught the per-cluster governor samplers sharing a slot
    // (docs/DETERMINISM.md).
    sim.noteWrite("fault", "rng");
    const double u = rng.uniform();
    if (classDisabled(FaultClass::dvfs)) {
        ++faultStats.suppressed;
        return DvfsFaultAction::allow;
    }
    if (u < fp.dvfsDenyProb) {
        ++faultStats.dvfsDenied;
        return DvfsFaultAction::deny;
    }
    if (u < fp.dvfsDenyProb + fp.dvfsDelayProb) {
        ++faultStats.dvfsDelayed;
        return DvfsFaultAction::delay;
    }
    return DvfsFaultAction::allow;
}

void
FaultInjector::start()
{
    if (!fp.enabled)
        return;
    if (!gatesInstalled &&
        (fp.dvfsDenyProb > 0.0 || fp.dvfsDelayProb > 0.0)) {
        for (std::size_t i = 0; i < plat.clusterCount(); ++i) {
            plat.cluster(i).freqDomain().setFaultGate(
                [this](FreqKHz) { return gateDecision(); },
                fp.dvfsExtraLatency);
        }
        gatesInstalled = true;
    }
    if (drawTask == nullptr) {
        drawTask = &sim.addPeriodic(
            fp.drawPeriod, [this](Tick now) { draw(now); },
            EventPriority::deferred, "fault.draw");
    }
    drawTask->start();
}

void
FaultInjector::stop()
{
    if (drawTask != nullptr)
        drawTask->cancel();
    if (gatesInstalled) {
        for (std::size_t i = 0; i < plat.clusterCount(); ++i)
            plat.cluster(i).freqDomain().setFaultGate(nullptr);
        gatesInstalled = false;
    }
}

void
FaultInjector::disableClass(FaultClass cls)
{
    disabledMask |= (1u << static_cast<std::uint32_t>(cls));
    warn("fault: class %s disabled", faultClassName(cls));
}

void
FaultInjector::reseed(std::uint64_t seed)
{
    // Applied at a chunk boundary (a serialization point, no event in
    // flight), so no abrace note is needed here.
    rng.seed(seed);
}

void
FaultInjector::draw(Tick now)
{
    // The draw consumes the injector's rng and may mutate topology,
    // thermal state, or task backlogs; any same-priority peer event
    // touching those cells would race with it.
    sim.noteWrite("fault", "rng");
    const double dt = ticksToSeconds(fp.drawPeriod);
    if (rng.chance(fp.hotplugRatePerSec * dt))
        injectHotplug();
    if (rng.chance(fp.thermalSpikeRatePerSec * dt))
        injectThermalSpike();
    if (rng.chance(fp.taskStallRatePerSec * dt))
        injectTaskStall();
    // New classes guard on rate > 0 before drawing so zero-rate
    // profiles (every pre-crash config) keep their exact historical
    // draw sequence.
    if (fp.crashRatePerSec > 0.0 && rng.chance(fp.crashRatePerSec * dt))
        injectCrash(now);
    if (fp.invariantBreakRatePerSec > 0.0 &&
        rng.chance(fp.invariantBreakRatePerSec * dt))
        injectInvariantBreak(now);
    checkPersistentCrash(now);
}

void
FaultInjector::injectHotplug()
{
    // Pick a random online core; the platform's hotplug rules (boot
    // core, last little core) and a failed evacuation turn the fault
    // into a counted rejection rather than a crash.
    std::vector<CoreId> online;
    for (const Core *core : plat.cores()) {
        if (core->online())
            online.push_back(core->id());
    }
    if (online.empty())
        return;
    const CoreId id =
        online[rng.uniformInt(0, online.size() - 1)];
    // Disabled classes consume the same draws (above) and then bail,
    // so quarantining one class never reshuffles the others.
    if (classDisabled(FaultClass::hotplug)) {
        ++faultStats.suppressed;
        return;
    }
    // Evacuate first (a busy core is legal to unplug once drained);
    // if the platform then refuses - boot core, last little core -
    // the displaced tasks simply rebalance back.
    const Result<std::size_t> moved = sched.evacuateCore(id);
    if (!moved.ok()) {
        ++faultStats.hotplugRejected;
        return;
    }
    sim.noteWrite(plat.core(id).name(), "online");
    const Status off = plat.setCoreOnline(id, false);
    if (!off.ok()) {
        ++faultStats.hotplugRejected;
        return;
    }
    ++faultStats.hotplugOff;
    debugLog("fault: core %u offline for %llu ms", id,
             static_cast<unsigned long long>(
                 ticksToMs(fp.hotplugDownTime)));
    sim.after(fp.hotplugDownTime, [this, id] {
        sim.noteWrite(plat.core(id).name(), "online");
        if (plat.setCoreOnline(id, true).ok())
            ++faultStats.hotplugOn;
    }, EventPriority::faultReplug, "fault.replug");
}

void
FaultInjector::injectThermalSpike()
{
    if (throttles.empty())
        return;
    ThermalThrottle *throttle =
        throttles[rng.uniformInt(0, throttles.size() - 1)];
    if (classDisabled(FaultClass::thermal)) {
        ++faultStats.suppressed;
        return;
    }
    throttle->injectTemperature(fp.thermalSpikeC);
    ++faultStats.thermalSpikes;
}

void
FaultInjector::injectTaskStall()
{
    // A stalled thread re-executes work (lock contention, a retried
    // frame): model it as a burst of extra instructions on a random
    // unpinned task that already has work in flight.  Sleeping tasks
    // are skipped - waking one from outside its workload would fire
    // its drain listener a second time and corrupt the workload's
    // outstanding-burst bookkeeping.
    const auto &tasks = sched.tasks();
    if (tasks.empty())
        return;
    const std::size_t start = rng.uniformInt(0, tasks.size() - 1);
    if (classDisabled(FaultClass::taskStall)) {
        ++faultStats.suppressed;
        return;
    }
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        Task &task = *tasks[(start + i) % tasks.size()];
        if (task.state() == TaskState::sleeping ||
            task.state() == TaskState::finished || task.pinnedCore())
            continue;
        task.submitWork(fp.taskStallInstructions);
        ++faultStats.taskStalls;
        return;
    }
}

void
FaultInjector::injectCrash(Tick now)
{
    // A transient unrecoverable fault on a random online core: a
    // retry with a reseeded stream usually dodges it, so this is the
    // class the supervisor's rollback-retry rung exists for.
    std::vector<CoreId> online;
    for (const Core *core : plat.cores()) {
        if (core->online())
            online.push_back(core->id());
    }
    if (online.empty())
        return;
    const CoreId id = online[rng.uniformInt(0, online.size() - 1)];
    if (classDisabled(FaultClass::crash)) {
        ++faultStats.suppressed;
        return;
    }
    if (pendingCrash.armed)
        return;
    pendingCrash.armed = true;
    pendingCrash.at = now;
    pendingCrash.core = id;
    pendingCrash.persistent = false;
    ++faultStats.crashes;
    warn("fault: unrecoverable fault on core %u at tick %llu", id,
         static_cast<unsigned long long>(now));
}

void
FaultInjector::checkPersistentCrash(Tick now)
{
    // The deterministically failing core: every draw past the onset
    // tick re-raises the fault while the core is online, whatever the
    // rng stream says — only quarantining the core (or disabling the
    // class) silences it.
    if (fp.persistentCrashAt == 0 || now < fp.persistentCrashAt)
        return;
    if (classDisabled(FaultClass::crash))
        return;
    if (pendingCrash.armed)
        return;
    const CoreId id = fp.persistentCrashCore;
    if (id == invalidCoreId || id >= plat.cores().size())
        return;
    if (!plat.core(id).online())
        return;
    pendingCrash.armed = true;
    pendingCrash.at = now;
    pendingCrash.core = id;
    pendingCrash.persistent = true;
    ++faultStats.crashes;
    warn("fault: persistent fault on core %u at tick %llu", id,
         static_cast<unsigned long long>(now));
}

void
FaultInjector::injectInvariantBreak(Tick now)
{
    if (classDisabled(FaultClass::invariantBreak)) {
        ++faultStats.suppressed;
        return;
    }
    if (!violationSink)
        return;
    ++faultStats.invariantBreaks;
    violationSink("injected invariant break at tick " +
                  std::to_string(now));
}

void
FaultInjector::serialize(Serializer &s) const
{
    rng.serialize(s);
    s.putU64(faultStats.hotplugOff);
    s.putU64(faultStats.hotplugOn);
    s.putU64(faultStats.hotplugRejected);
    s.putU64(faultStats.dvfsDenied);
    s.putU64(faultStats.dvfsDelayed);
    s.putU64(faultStats.thermalSpikes);
    s.putU64(faultStats.taskStalls);
    s.putU64(faultStats.crashes);
    s.putU64(faultStats.invariantBreaks);
    s.putU64(faultStats.suppressed);
}

} // namespace biglittle
