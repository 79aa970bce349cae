#include "sched/task.hh"

#include "base/logging.hh"
#include "base/serialize.hh"
#include "platform/core.hh"
#include "sched/hmp.hh"

namespace biglittle
{

Task::Task(HmpScheduler &sched_in, TaskId id, std::string name,
           const WorkClass &work_class, double load_half_life_ms,
           std::optional<CoreId> pinned_in)
    : sched(sched_in), taskId(id), taskName(std::move(name)),
      wc(work_class), pinned(pinned_in), load(load_half_life_ms)
{
}

void
Task::submitWork(double instructions)
{
    BL_ASSERT(instructions > 0.0);
    if (taskState == TaskState::finished)
        return;
    pending += instructions;
    if (taskState == TaskState::sleeping)
        sched.wakeup(*this);
}

void
Task::finish()
{
    if (taskState != TaskState::sleeping)
        panic("task '%s' finished while not sleeping",
              taskName.c_str());
    taskState = TaskState::finished;
}

void
Task::consume(double instructions)
{
    BL_ASSERT(instructions >= 0.0);
    const double done = instructions < pending ? instructions : pending;
    pending -= done;
    retired += done;
}

void
Task::consumeAll()
{
    retired += pending;
    pending = 0.0;
}

void
Task::noteQueued(Core &core, Tick now)
{
    if (taskState == TaskState::sleeping) {
        runnableStart = now;
        loadStamp = now;
    }
    taskState = TaskState::queued;
    curCore = &core;
    lastCore = core.id();
}

void
Task::accrueLoad(Tick now, double freq_scale)
{
    if (now <= loadStamp)
        return;
    const double periods = static_cast<double>(now - loadStamp) /
                           static_cast<double>(oneMs);
    load.accrue(periods, 1.0, freq_scale);
    loadStamp = now;
}

void
Task::noteRunning()
{
    BL_ASSERT(taskState == TaskState::queued);
    taskState = TaskState::running;
}

void
Task::notePreempted()
{
    BL_ASSERT(taskState == TaskState::running);
    taskState = TaskState::queued;
}

void
Task::noteSleeping(Tick now)
{
    taskState = TaskState::sleeping;
    curCore = nullptr;
    sleepStart = now;
}

void
Task::serialize(Serializer &s) const
{
    s.putString(taskName);
    s.putU8(static_cast<std::uint8_t>(taskState));
    s.putU32(curCore != nullptr ? curCore->id() : invalidCoreId);
    s.putDouble(pending);
    s.putDouble(retired);
    s.putU64(migrations);
    s.putU64(runnableStart);
    s.putU64(sleepStart);
    s.putU64(loadStamp);
    s.putU64(littleRuntime);
    s.putU64(bigRuntime);
    s.putU32(lastCore);
    load.serialize(s);
}

} // namespace biglittle
