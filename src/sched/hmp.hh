/**
 * @file
 * HmpScheduler: the utilization-based asymmetric scheduler the paper
 * studies (Algorithm 1, the Linaro HMP design).
 *
 * Every scheduling tick the per-task time-weighted loads are updated
 * (frequency-normalized, frozen during sleep); a task on a little
 * core whose load exceeds the up-threshold migrates to a big core, a
 * task on a big core whose load falls below the down-threshold
 * migrates back, and classic load balancing evens out run-queue
 * depths within each cluster.  Wakeup placement uses the same
 * thresholds on the task's (frozen) load.
 */

#ifndef BIGLITTLE_SCHED_HMP_HH
#define BIGLITTLE_SCHED_HMP_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/status.hh"
#include "base/types.hh"
#include "platform/platform.hh"
#include "sched/runqueue.hh"
#include "sched/sched_observer.hh"
#include "sched/sched_params.hh"
#include "sched/task.hh"
#include "sim/simulation.hh"

namespace biglittle
{

class Serializer;

/** Counters describing scheduler activity over a run. */
struct SchedStats
{
    std::uint64_t migrationsUp = 0; ///< little -> big
    std::uint64_t migrationsDown = 0; ///< big -> little
    std::uint64_t balanceMoves = 0; ///< intra-cluster spreads
    std::uint64_t wakeups = 0;
    std::uint64_t ticks = 0;

    /**
     * Wakeups where a pinned task's core was offline and the task
     * was placed elsewhere instead (graceful degradation under
     * hotplug faults; 0 in a healthy run).
     */
    std::uint64_t affinityBreaks = 0;

    /**
     * Up-migration frequency boosts the frequency domain refused
     * (DVFS-deny faults, thermal ceiling).  The boost is
     * opportunistic, so a denial is survivable — the governor
     * re-raises on its next sample — but a large count explains a
     * sluggish post-migration ramp.
     */
    std::uint64_t boostsDenied = 0;
};

/** The utilization-based asymmetric scheduler. */
class HmpScheduler
{
  public:
    HmpScheduler(Simulation &sim, AsymmetricPlatform &platform,
                 const SchedParams &params);

    HmpScheduler(const HmpScheduler &) = delete;
    HmpScheduler &operator=(const HmpScheduler &) = delete;

    const SchedParams &params() const { return schedParams; }
    AsymmetricPlatform &platform() { return plat; }

    /**
     * Create a task owned by this scheduler.
     * @param pinned optional hard affinity (disables HMP migration
     *        and balancing for the task; used by the Fig. 2/3
     *        single-core experiments)
     */
    Task &createTask(const std::string &name,
                     const WorkClass &work_class,
                     std::optional<CoreId> pinned = std::nullopt);

    /** Begin the periodic scheduling tick. */
    void start();

    /** Stop the periodic tick (tasks keep executing). */
    void stop();

    /** Runner of core @p id. */
    CoreRunner &runner(CoreId id);
    const CoreRunner &runner(CoreId id) const;

    /** All tasks created so far. */
    const std::vector<std::unique_ptr<Task>> &tasks() const
    {
        return taskList;
    }

    const SchedStats &stats() const { return schedStats; }

    /** Install an observer of placement decisions (may be null). */
    void setObserver(SchedObserver *observer) { schedObserver = observer; }

    // ---- called by Task / CoreRunner ----

    /** A sleeping task received work: place it on a core. */
    void wakeup(Task &task);

    /** A task drained its backlog and went to sleep. */
    void taskDrained(Task &task);

    /** Frequency-invariance scale of @p core (current/max). */
    double freqScale(const Core &core) const;

    /**
     * Move every task off core @p id onto other online cores (least
     * loaded first), so the core can be hotplugged.  Fails with
     * failedPrecondition() on a pinned task and unavailable() when
     * no other online core exists; tasks already moved stay on
     * their (valid) new cores either way.
     * @return number of tasks moved
     */
    [[nodiscard]] Result<std::size_t> evacuateCore(CoreId id);

    /**
     * Write scheduler counters plus every task's state, in creation
     * order.  Two runs compare equal only with an identical task
     * population (same count, same names), which holds when the same
     * workload was instantiated against the same config.
     */
    void serialize(Serializer &s) const;

  private:
    Simulation &sim;
    AsymmetricPlatform &plat;
    SchedParams schedParams;

    // ablint:allow(serialize-coverage): per-core runner objects rebuilt at construction
    std::vector<std::unique_ptr<CoreRunner>> runners;
    std::vector<std::unique_ptr<Task>> taskList;
    PeriodicTask *tickTask = nullptr;
    TaskId nextTaskId = 1;
    std::size_t rrCursor = 0;
    SchedStats schedStats;
    SchedObserver *schedObserver = nullptr;
    /** migrationPass()'s snapshot, kept so a tick reuses its buffer. */
    std::vector<Task *> migrationCandidates;

    void tick(Tick now);
    void updateLoads(Tick now);
    void migrationPass();
    void balanceCluster(Cluster &cluster);

    /** Least-loaded online core of @p type; null if none online. */
    Core *pickTargetCore(CoreType type, const Task &task);

    void migrate(Task &task, Core &target, bool type_change);

    /** Apply the up-migration frequency boost (Linaro HMP boost). */
    void boostBigCluster(Core &target);
};

} // namespace biglittle

#endif // BIGLITTLE_SCHED_HMP_HH
