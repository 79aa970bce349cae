#include "sched/hmp.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/serialize.hh"
#include "base/strutil.hh"

namespace biglittle
{

HmpScheduler::HmpScheduler(Simulation &sim_in,
                           AsymmetricPlatform &platform,
                           const SchedParams &params)
    : sim(sim_in), plat(platform), schedParams(params)
{
    for (Core *core : plat.cores()) {
        runners.push_back(std::make_unique<CoreRunner>(
            sim, *core, *this, schedParams));
    }
}

Task &
HmpScheduler::createTask(const std::string &name,
                         const WorkClass &work_class,
                         std::optional<CoreId> pinned)
{
    if (pinned && *pinned >= plat.coreCount()) {
        // A nonexistent pin target is a bad setup request.
        // ablint:allow(post-init-fatal): setup-time validation
        fatal("task '%s' pinned to nonexistent core %u", name.c_str(),
              *pinned);
    }
    taskList.push_back(std::make_unique<Task>(
        *this, nextTaskId++, name, work_class,
        schedParams.loadHalfLifeMs, pinned));
    return *taskList.back();
}

void
HmpScheduler::start()
{
    if (tickTask == nullptr) {
        tickTask = &sim.addPeriodic(
            schedParams.tickPeriod, [this](Tick now) { tick(now); },
            EventPriority::schedTick, "hmp.tick");
    }
    tickTask->start();
}

void
HmpScheduler::stop()
{
    if (tickTask != nullptr)
        tickTask->cancel();
}

CoreRunner &
HmpScheduler::runner(CoreId id)
{
    BL_ASSERT(id < runners.size());
    return *runners[id];
}

const CoreRunner &
HmpScheduler::runner(CoreId id) const
{
    BL_ASSERT(id < runners.size());
    return *runners[id];
}

double
HmpScheduler::freqScale(const Core &core) const
{
    const FreqDomain &domain = core.freqDomain();
    return static_cast<double>(domain.currentFreq()) /
           static_cast<double>(domain.maxFreq());
}

void
HmpScheduler::wakeup(Task &task)
{
    sim.noteWrite(task.name(), "state");
    ++schedStats.wakeups;
    // Catch-up decay: the load history is frozen while the task
    // sleeps and the elapsed sleep is accounted here, as PELT does.
    if (task.sleepSince() != maxTick) {
        const Tick slept = sim.now() - task.sleepSince();
        task.loadTracker().decay(static_cast<double>(slept) /
                                 static_cast<double>(oneMs));
    }
    Core *target = nullptr;
    if (task.pinnedCore()) {
        target = &plat.core(*task.pinnedCore());
        if (!target->online()) {
            // The pinned core was hotplugged off (fault injection or
            // a runtime policy).  Breaking affinity beats losing the
            // task: fall back to the same core type, then anywhere.
            ++schedStats.affinityBreaks;
            if (schedStats.affinityBreaks == 1) {
                warn("task '%s' pinned to offline core %u; breaking "
                     "affinity", task.name().c_str(), target->id());
            }
            const CoreType type = target->type();
            target = pickTargetCore(type, task);
            if (target == nullptr) {
                target = pickTargetCore(type == CoreType::big
                                            ? CoreType::little
                                            : CoreType::big,
                                        task);
            }
        }
    } else {
        const bool wants_big =
            task.loadTracker().value() >= schedParams.upThreshold;
        const CoreType type =
            wants_big ? CoreType::big : CoreType::little;
        // Wakeup affinity: go back to the previous core when it is
        // the right type and idle (cache-warm placement, and the
        // reason independent light threads spread across cores).
        if (task.lastCoreId() != invalidCoreId) {
            Core &last = plat.core(task.lastCoreId());
            if (last.type() == type && last.online() &&
                runner(last.id()).depth() == 0) {
                target = &last;
            }
        }
        if (target == nullptr)
            target = pickTargetCore(type, task);
        if (target == nullptr) {
            target = pickTargetCore(
                wants_big ? CoreType::little : CoreType::big, task);
        }
    }
    if (target == nullptr)
        panic("no online core available for task '%s'",
              task.name().c_str());
    if (target->type() == CoreType::big && !task.pinnedCore())
        boostBigCluster(*target);
    runner(target->id()).enqueue(task);
    if (schedObserver != nullptr)
        schedObserver->onWakeup(task, *target);
}

void
HmpScheduler::taskDrained(Task &task)
{
    if (schedObserver != nullptr)
        schedObserver->onSleep(task);
    TaskClient *client = task.client();
    if (client != nullptr)
        client->onWorkDrained(task);
}

Core *
HmpScheduler::pickTargetCore(CoreType type, const Task &task)
{
    (void)task;
    // The rotating cursor and the depth scan make placement depend
    // on every earlier same-tick wakeup: declare both so abrace can
    // pair concurrent wakeups that contend for cores.
    sim.noteWrite("sched", "rrCursor");
    for (const auto &runner_ptr : runners)
        sim.noteRead(runner_ptr->core().name(), "rq");
    // Rotate the starting point so same-depth ties do not funnel
    // every placement onto the lowest-numbered core; independent
    // light threads then spread across the cluster the way wakeup
    // balancing spreads them on the real kernel.
    const std::size_t n = plat.coreCount();
    const std::size_t start = rrCursor++ % n;
    Core *best = nullptr;
    std::size_t best_depth = 0;
    for (std::size_t i = 0; i < n; ++i) {
        Core *core = plat.cores()[(start + i) % n];
        if (core->type() != type || !core->online())
            continue;
        const std::size_t depth = runner(core->id()).depth();
        if (best == nullptr || depth < best_depth) {
            best = core;
            best_depth = depth;
        }
    }
    return best;
}

Result<std::size_t>
HmpScheduler::evacuateCore(CoreId id)
{
    CoreRunner &rq = runner(id);
    std::size_t moved = 0;
    while (rq.depth() > 0) {
        Task *task =
            rq.running() != nullptr ? rq.running() : rq.waiting().front();
        if (task->pinnedCore()) {
            return failedPrecondition(format(
                "cannot evacuate pinned task '%s' from core %u",
                task->name().c_str(), id));
        }
        Core *best = nullptr;
        std::size_t best_depth = 0;
        for (Core *core : plat.cores()) {
            if (core->id() == id || !core->online())
                continue;
            const std::size_t depth = runner(core->id()).depth();
            if (best == nullptr || depth < best_depth) {
                best = core;
                best_depth = depth;
            }
        }
        if (best == nullptr) {
            return unavailable(format(
                "no online core to evacuate core %u onto", id));
        }
        migrate(*task, *best,
                best->type() != plat.core(id).type());
        ++moved;
    }
    return moved;
}

void
HmpScheduler::tick(Tick now)
{
    // The scheduler tick reads and rewrites every run queue; its
    // distinct EventPriority::schedTick keeps it out of the
    // task-state batches, so these accesses only pair against other
    // schedTick events.
    sim.noteWrite("sched", "rrCursor");
    for (const auto &runner_ptr : runners)
        sim.noteWrite(runner_ptr->core().name(), "rq");
    ++schedStats.ticks;
    // An idle tick still counts itself and declares its accesses, so
    // SchedStats::ticks and abrace's tracked events do not depend on
    // load.  With every run queue empty there is no load to update,
    // no task to migrate and nothing to balance.
    const auto deepest = [this] {
        std::size_t depth = 0;
        for (const auto &runner_ptr : runners)
            depth = std::max(depth, runner_ptr->depth());
        return depth;
    };
    if (deepest() == 0)
        return;
    updateLoads(now);
    migrationPass();
    // balanceCluster moves a task only off a run queue two deeper
    // than its cluster's idlest, so below depth 2 it cannot act.
    if (deepest() < 2)
        return;
    for (std::size_t i = 0; i < plat.clusterCount(); ++i)
        balanceCluster(plat.cluster(i));
}

void
HmpScheduler::updateLoads(Tick now)
{
    for (auto &runner_ptr : runners) {
        CoreRunner &rq = *runner_ptr;
        // An empty runner has no progress to charge and no load to
        // accrue.
        if (rq.depth() == 0)
            continue;
        // Charge partial progress so pending-work observers and the
        // load update see a consistent picture.
        rq.chargeRunning();
        const double scale = freqScale(rq.core());
        if (rq.running() != nullptr)
            rq.running()->accrueLoad(now, scale);
        for (Task *t : rq.waiting())
            t->accrueLoad(now, scale);
    }
}

void
HmpScheduler::migrationPass()
{
    // Snapshot the task/core pairs first: migrating mutates queues.
    migrationCandidates.clear();
    for (auto &runner_ptr : runners) {
        if (runner_ptr->running() != nullptr)
            migrationCandidates.push_back(runner_ptr->running());
        for (Task *t : runner_ptr->waiting())
            migrationCandidates.push_back(t);
    }
    for (Task *task : migrationCandidates) {
        if (task->pinnedCore())
            continue;
        Core *core = task->core();
        if (core == nullptr)
            continue; // drained in the meantime
        const double load = task->loadTracker().value();
        if (core->type() == CoreType::little &&
            load > schedParams.upThreshold) {
            Core *target = pickTargetCore(CoreType::big, *task);
            if (target != nullptr) {
                if (schedObserver != nullptr)
                    schedObserver->onMigrate(*task, *core, *target,
                                             true);
                migrate(*task, *target, true);
                ++schedStats.migrationsUp;
                boostBigCluster(*target);
            }
        } else if (core->type() == CoreType::big &&
                   load < schedParams.downThreshold) {
            Core *target = pickTargetCore(CoreType::little, *task);
            if (target != nullptr) {
                if (schedObserver != nullptr)
                    schedObserver->onMigrate(*task, *core, *target,
                                             false);
                migrate(*task, *target, true);
                ++schedStats.migrationsDown;
            }
        }
    }
}

void
HmpScheduler::boostBigCluster(Core &target)
{
    if (schedParams.upMigrationBoostFreq == 0)
        return;
    FreqDomain &domain = target.freqDomain();
    if (domain.currentFreq() < schedParams.upMigrationBoostFreq) {
        // The boost is opportunistic; a denied transition just means
        // the governor raises the frequency on its next sample.  A
        // denial is still worth counting: a run dominated by denied
        // boosts migrates tasks onto a slow big cluster.
        const Status boosted =
            domain.requestFreq(schedParams.upMigrationBoostFreq);
        if (!boosted.ok())
            ++schedStats.boostsDenied;
    }
}

void
HmpScheduler::migrate(Task &task, Core &target, bool type_change)
{
    Core *source = task.core();
    BL_ASSERT(source != nullptr);
    if (source == &target)
        return;
    runner(source->id()).remove(task);
    runner(target.id()).enqueue(task);
    if (type_change)
        task.noteTypeMigration();
}

void
HmpScheduler::balanceCluster(Cluster &cluster)
{
    while (true) {
        CoreRunner *busiest = nullptr;
        CoreRunner *idlest = nullptr;
        for (std::size_t i = 0; i < cluster.coreCount(); ++i) {
            Core &core = cluster.core(i);
            if (!core.online())
                continue;
            CoreRunner &rq = runner(core.id());
            if (busiest == nullptr || rq.depth() > busiest->depth())
                busiest = &rq;
            if (idlest == nullptr || rq.depth() < idlest->depth())
                idlest = &rq;
        }
        if (busiest == nullptr || idlest == nullptr)
            return;
        if (busiest->depth() < idlest->depth() + 2)
            return;
        // Move one waiting (not running) unpinned task.
        Task *victim = nullptr;
        for (Task *t : busiest->waiting()) {
            if (!t->pinnedCore()) {
                victim = t;
                break;
            }
        }
        if (victim == nullptr)
            return;
        if (schedObserver != nullptr) {
            schedObserver->onBalance(*victim, busiest->core(),
                                     idlest->core());
        }
        migrate(*victim, idlest->core(), false);
        ++schedStats.balanceMoves;
    }
}

void
HmpScheduler::serialize(Serializer &s) const
{
    s.putU64(schedStats.migrationsUp);
    s.putU64(schedStats.migrationsDown);
    s.putU64(schedStats.balanceMoves);
    s.putU64(schedStats.wakeups);
    s.putU64(schedStats.ticks);
    s.putU64(schedStats.affinityBreaks);
    s.putU64(schedStats.boostsDenied);
    s.putU64(nextTaskId);
    s.putU64(rrCursor);
    s.putU64(taskList.size());
    for (const auto &task : taskList)
        task->serialize(s);
}

} // namespace biglittle
