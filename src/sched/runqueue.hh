/**
 * @file
 * CoreRunner: the per-core dispatch and execution engine.
 *
 * Each online core runs at most one task at a time, round-robin with
 * a fixed timeslice among its queued tasks.  Execution is event
 * driven and analytic: when a task starts a slice the runner asks the
 * performance model for its instruction rate at the core's current
 * frequency and schedules the earlier of work-completion and quantum
 * expiry; a frequency change mid-slice charges the work done so far
 * at the old rate and re-arms the event at the new rate.
 */

#ifndef BIGLITTLE_SCHED_RUNQUEUE_HH
#define BIGLITTLE_SCHED_RUNQUEUE_HH

#include <cstdint>
#include <deque>

#include "base/types.hh"
#include "platform/core.hh"
#include "sched/sched_params.hh"
#include "sched/task.hh"
#include "sim/simulation.hh"

namespace biglittle
{

class HmpScheduler;

/** Run queue + execution engine for one core. */
class CoreRunner
{
  public:
    CoreRunner(Simulation &sim, Core &core, HmpScheduler &sched,
               const SchedParams &params);

    CoreRunner(const CoreRunner &) = delete;
    CoreRunner &operator=(const CoreRunner &) = delete;

    Core &core() { return coreRef; }
    const Core &core() const { return coreRef; }

    /** Task currently executing (null when idle). */
    Task *running() { return cur; }
    const Task *running() const { return cur; }

    /** Tasks waiting behind the running one, FIFO. */
    const std::deque<Task *> &waiting() const { return waitQ; }

    /** Queued tasks including the running one. */
    std::size_t depth() const
    {
        return waitQ.size() + (cur != nullptr ? 1 : 0);
    }

    /** Make @p task runnable on this core. */
    void enqueue(Task &task);

    /**
     * Remove @p task from this core (for migration or balancing);
     * charges partial work if it was running.  The task is left in
     * the queued state with no core.
     */
    void remove(Task &task);

    /**
     * Charge the running task's progress up to now (so that external
     * observers see exact pending-work values).
     */
    void chargeRunning();

    /** Sum of HMP loads of all queued tasks. */
    double loadSum() const;

    /** Lifetime count of slices dispatched. */
    std::uint64_t slicesDispatched() const { return slices; }

  private:
    Simulation &sim;
    Core &coreRef;
    HmpScheduler &sched;
    const SchedParams &params;

    std::deque<Task *> waitQ;
    Task *cur = nullptr;
    Tick sliceStart = 0;
    Tick quantumEnd = 0;
    double rate = 0.0; ///< instructions per second of current slice
    bool completionPlanned = false;
    CallbackEvent sliceEvent;
    std::uint64_t slices = 0;

    void startNext();
    void armSliceEvent();
    void onSliceEvent();
    void onFreqChange(FreqKHz new_freq);
    void updateBusy();
};

} // namespace biglittle

#endif // BIGLITTLE_SCHED_RUNQUEUE_HH
