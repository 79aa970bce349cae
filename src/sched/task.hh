/**
 * @file
 * Task: the schedulable entity.
 *
 * A task alternates between sleeping and having work: a workload
 * behavior submits instruction batches (with the task's WorkClass
 * describing their architectural character), the scheduler runs them
 * on some core, and when the backlog drains the task sleeps and its
 * client is told so it can schedule the next phase.  Tasks carry the
 * HMP load tracker; loads freeze while the task sleeps.
 */

#ifndef BIGLITTLE_SCHED_TASK_HH
#define BIGLITTLE_SCHED_TASK_HH

#include <optional>
#include <string>

#include "base/types.hh"
#include "platform/params.hh"
#include "platform/work_class.hh"
#include "sched/load.hh"

namespace biglittle
{

class Core;
class HmpScheduler;
class Serializer;
class Task;

/** Observer a workload installs to drive a task's phase machine. */
class TaskClient
{
  public:
    virtual ~TaskClient() = default;

    /**
     * All submitted work has been executed; the task is now asleep.
     * Typically schedules the next submitWork() via the simulation.
     */
    virtual void onWorkDrained(Task &task) = 0;
};

/** Lifecycle states of a task. */
enum class TaskState
{
    sleeping, ///< no pending work
    queued, ///< waiting on a run queue
    running, ///< executing on a core
    finished, ///< will never run again
};

/** A schedulable thread. */
class Task
{
  public:
    Task(HmpScheduler &sched, TaskId id, std::string name,
         const WorkClass &work_class, double load_half_life_ms,
         std::optional<CoreId> pinned);

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    TaskId id() const { return taskId; }
    const std::string &name() const { return taskName; }
    TaskState state() const { return taskState; }

    const WorkClass &workClass() const { return wc; }

    /** Core this task is queued/running on (null when sleeping). */
    Core *core() const { return curCore; }

    std::optional<CoreId> pinnedCore() const { return pinned; }

    /** Install the phase-machine observer. */
    void setClient(TaskClient *client) { taskClient = client; }
    TaskClient *client() const { return taskClient; }

    /**
     * Add @p instructions of pending work (must be > 0).  Wakes the
     * task if it was sleeping.  No-op once finished.
     */
    void submitWork(double instructions);

    /** Pending (not yet executed) instructions. */
    double pendingInstructions() const { return pending; }

    /** True when no work is pending. */
    bool drained() const { return pending <= 0.0; }

    /** Mark the task permanently done (must be sleeping). */
    void finish();

    /** HMP load average. */
    LoadTracker &loadTracker() { return load; }
    const LoadTracker &loadTracker() const { return load; }

    /** Lifetime instructions executed. */
    double instructionsRetired() const { return retired; }

    /** Execution time accumulated on cores of @p type. */
    Tick runtimeOn(CoreType type) const
    {
        return type == CoreType::big ? bigRuntime : littleRuntime;
    }

    /** Attribute @p dt of execution to cores of @p type. */
    void
    addRuntime(CoreType type, Tick dt)
    {
        (type == CoreType::big ? bigRuntime : littleRuntime) += dt;
    }

    /** Times this task migrated between core types. */
    std::uint64_t typeMigrations() const { return migrations; }

    /** Core the task most recently ran on (wakeup affinity hint). */
    CoreId lastCoreId() const { return lastCore; }

    // ---- scheduler-internal interface ----

    /** Consume executed work (called by the core runner). */
    void consume(double instructions);

    /** Force-drain the backlog at a planned completion point. */
    void consumeAll();

    /** Bookkeeping when the scheduler places/moves/parks the task. */
    void noteQueued(Core &core, Tick now);
    void noteRunning();
    void notePreempted();
    void noteSleeping(Tick now);

    /** Tick the task last went to sleep (maxTick if never slept). */
    Tick sleepSince() const { return sleepStart; }
    void noteTypeMigration() { ++migrations; }

    /**
     * Credit the load tracker for the runnable stretch since the
     * last accrual (the task must have been continuously runnable
     * over that interval).  Called by the scheduler tick and by the
     * core runner whenever the task leaves a run queue, so sub-tick
     * runnable slivers are never lost.
     */
    void accrueLoad(Tick now, double freq_scale);

    /**
     * Write the task's mutable state (lifecycle state, backlog,
     * accounting, load tracker).  The current core is recorded by id,
     * so the bytes compare equal only on a matching topology.
     */
    void serialize(Serializer &s) const;

  private:
    HmpScheduler &sched;
    TaskId taskId; // ablint:allow(serialize-coverage): stable id assigned by the scheduler at creation
    std::string taskName;
    WorkClass wc; // ablint:allow(serialize-coverage): creation-time config from the task spec (covers pinned)
    std::optional<CoreId> pinned;
    TaskClient *taskClient = nullptr;

    TaskState taskState = TaskState::sleeping;
    Core *curCore = nullptr;
    double pending = 0.0;
    double retired = 0.0;
    std::uint64_t migrations = 0;
    Tick runnableStart = 0;
    Tick sleepStart = maxTick;
    Tick loadStamp = 0;
    Tick littleRuntime = 0;
    Tick bigRuntime = 0;
    CoreId lastCore = invalidCoreId;
    LoadTracker load;
};

} // namespace biglittle

#endif // BIGLITTLE_SCHED_TASK_HH
