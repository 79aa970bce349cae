#include "fault/invariants.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "base/logging.hh"
#include "base/strutil.hh"
#include "platform/platform.hh"
#include "sched/hmp.hh"

namespace biglittle
{

namespace
{

/** Tolerance for floating-point energy accumulators. */
constexpr double energyEpsMj = 1e-9;

} // namespace

InvariantChecker::InvariantChecker(Simulation &sim_in,
                                   AsymmetricPlatform &platform,
                                   HmpScheduler *sched_in,
                                   PowerModel *power_in,
                                   const InvariantParams &params)
    : sim(sim_in), plat(platform), sched(sched_in), power(power_in),
      ip(params)
{
    BL_ASSERT(ip.checkPeriod > 0);
}

void
InvariantChecker::start()
{
    lastNow = sim.now();
    if (power != nullptr) {
        energyBase = power->snapshot();
        haveEnergyBase = true;
    }
    if (sweepTask == nullptr) {
        sweepTask = &sim.addPeriodic(
            ip.checkPeriod,
            [this](Tick) { lastSweep = checkNow(); },
            EventPriority::stats, "invariant-sweep");
    }
    sweepTask->start();
}

void
InvariantChecker::stop()
{
    if (sweepTask != nullptr)
        sweepTask->cancel();
}

void
InvariantChecker::reportExternal(std::string what)
{
    violate(what);
    lastSweep = internalError("external: " + std::move(what));
}

void
InvariantChecker::violate(std::string what)
{
    ++violationTotal;
    if (recorded.size() < ip.maxRecorded) {
        warn("invariant violated @%llu: %s",
             static_cast<unsigned long long>(sim.now()), what.c_str());
        recorded.push_back({sim.now(), std::move(what)});
    }
}

Status
InvariantChecker::checkNow()
{
    // A pure observer: declare representative reads so abrace can
    // prove the sweep commutes with the samplers sharing its
    // priority (read-read pairs are never reported).
    sim.noteRead("sched", "rrCursor");
    const std::uint64_t before = violationTotal;
    checkTime();
    checkTopology();
    checkFrequencies();
    checkRunqueues();
    checkEnergy();
    ++checkCount;
    if (violationTotal == before)
        return okStatus();
    const std::string &what =
        recorded.empty() ? "violation (record buffer full)"
                         : recorded.back().what;
    return internalError(
        format("%llu invariant violation(s); last: %s",
               static_cast<unsigned long long>(violationTotal - before),
               what.c_str()));
}

void
InvariantChecker::checkTime()
{
    const Tick now = sim.now();
    if (now < lastNow) {
        violate(format("time ran backwards: %llu < %llu",
                       static_cast<unsigned long long>(now),
                       static_cast<unsigned long long>(lastNow)));
    }
    lastNow = std::max(lastNow, now);
}

void
InvariantChecker::checkTopology()
{
    if (plat.params().enforceBootCore &&
        plat.onlineCount(CoreType::little) == 0)
        violate("no little core online (boot rule broken)");

    for (const Core *core : plat.cores()) {
        if (core->busy() && !core->online())
            violate(format("core %u busy while offline", core->id()));
        if (core->busyTicks() > core->onlineTicks())
            violate(format("core %u busy %llu ticks > online %llu",
                           core->id(),
                           static_cast<unsigned long long>(
                               core->busyTicks()),
                           static_cast<unsigned long long>(
                               core->onlineTicks())));
    }
}

void
InvariantChecker::checkFrequencies()
{
    for (std::size_t i = 0; i < plat.clusterCount(); ++i) {
        const FreqDomain &domain = plat.cluster(i).freqDomain();
        const FreqKHz freq = domain.currentFreq();
        const auto &table = domain.opps();
        const bool onTable = std::any_of(
            table.begin(), table.end(),
            [freq](const Opp &opp) { return opp.freq == freq; });
        if (!onTable) {
            violate(format("%s at %u kHz, not an OPP-table entry",
                           domain.name().c_str(), freq));
        }
        if (freq > domain.ceiling()) {
            violate(format("%s at %u kHz above ceiling %u kHz",
                           domain.name().c_str(), freq,
                           domain.ceiling()));
        }
    }
}

void
InvariantChecker::checkRunqueues()
{
    if (sched == nullptr)
        return;

    // How many run queues each task appears on (running or waiting).
    // Keyed by pointer, so sorted iteration would not be any more
    // deterministic; safe because it is a counting map that is only
    // ever *read* below, in deterministic task-creation order.
    // ablint:allow(unordered-iter): lookup-only counting map
    std::unordered_map<const Task *, std::uint32_t> queuedOn;
    for (const Core *core : plat.cores()) {
        const CoreRunner &runner = sched->runner(core->id());
        const Task *running = runner.running();
        if (running != nullptr) {
            ++queuedOn[running];
            if (running->state() != TaskState::running)
                violate(format("task '%s' on core %u runner but not "
                               "in running state",
                               running->name().c_str(), core->id()));
        }
        for (const Task *task : runner.waiting()) {
            ++queuedOn[task];
            if (task->state() != TaskState::queued)
                violate(format("task '%s' waiting on core %u but not "
                               "in queued state",
                               task->name().c_str(), core->id()));
        }
        if (runner.depth() > 0 && !core->online())
            violate(format("offline core %u has %zu queued task(s)",
                           core->id(), runner.depth()));
    }

    for (const auto &task : sched->tasks()) {
        if (task->pendingInstructions() < 0.0)
            violate(format("task '%s' has negative pending work %g",
                           task->name().c_str(),
                           task->pendingInstructions()));
        const bool runnable = task->state() == TaskState::queued ||
                              task->state() == TaskState::running;
        const std::uint32_t queues = queuedOn[task.get()];
        if (runnable && queues != 1) {
            violate(format("runnable task '%s' is on %u run queues",
                           task->name().c_str(), queues));
        } else if (!runnable && queues != 0) {
            violate(format("%s task '%s' is still on a run queue",
                           task->state() == TaskState::sleeping
                               ? "sleeping"
                               : "finished",
                           task->name().c_str()));
        }
        if (runnable && task->core() != nullptr) {
            const CoreRunner &runner = sched->runner(task->core()->id());
            if (runner.running() != task.get() &&
                std::find(runner.waiting().begin(),
                          runner.waiting().end(),
                          task.get()) == runner.waiting().end())
                violate(format("task '%s' claims core %u but its "
                               "runner disagrees",
                               task->name().c_str(),
                               task->core()->id()));
        }
        if (runnable && task->core() == nullptr)
            violate(format("runnable task '%s' has no core",
                           task->name().c_str()));
    }
}

void
InvariantChecker::checkEnergy()
{
    if (power == nullptr)
        return;

    const double instant = power->instantPowerMw();
    if (!(instant >= 0.0) || !std::isfinite(instant))
        violate(format("instantaneous power %g mW", instant));

    PowerSnapshot cur = power->snapshot();
    if (haveEnergyBase) {
        const EnergyBreakdown e =
            power->energyBetween(energyBase, cur);
        if (e.coreDynamicMj < -energyEpsMj ||
            e.coreStaticMj < -energyEpsMj ||
            e.clusterStaticMj < -energyEpsMj ||
            e.baseMj < -energyEpsMj || !std::isfinite(e.totalMj()))
            violate(format("negative energy over check window "
                           "(total %g mJ)",
                           e.totalMj()));
    }
    energyBase = std::move(cur);
    haveEnergyBase = true;
}

void
InvariantChecker::checkPlacement(const Task &task, const Core &target,
                                 const char *event)
{
    if (!target.online())
        violate(format("%s placed task '%s' on offline core %u",
                       event, task.name().c_str(), target.id()));
}

void
InvariantChecker::onWakeup(const Task &task, const Core &target)
{
    checkPlacement(task, target, "wakeup");
}

void
InvariantChecker::onSleep(const Task &task)
{
    if (!task.drained())
        violate(format("task '%s' slept with %g pending instructions",
                       task.name().c_str(),
                       task.pendingInstructions()));
}

void
InvariantChecker::onMigrate(const Task &task, const Core &,
                            const Core &to, bool)
{
    checkPlacement(task, to, "migration");
}

void
InvariantChecker::onBalance(const Task &task, const Core &,
                            const Core &to)
{
    checkPlacement(task, to, "balance");
}

} // namespace biglittle
