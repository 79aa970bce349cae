/**
 * @file
 * WorkflowDriver: replays a scripted sequence of user actions against
 * an app's UI and worker threads and measures the end-to-end latency,
 * the paper's performance metric for the latency-oriented apps ("the
 * time to complete a sequence of user actions").
 *
 * Each action fans a burst out to the UI thread and a subset of the
 * workers; the action completes when every involved thread drains.
 * A think-time gap then separates it from the next action.
 */

#ifndef BIGLITTLE_WORKLOAD_WORKFLOW_HH
#define BIGLITTLE_WORKLOAD_WORKFLOW_HH

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <vector>

#include "base/random.hh"
#include "base/types.hh"
#include "sim/simulation.hh"
#include "workload/behavior.hh"

namespace biglittle
{

class Serializer;

/**
 * An action's per-worker burst sizes, stored inline so that copying
 * an ActionSpec (every AppSpec copy does) never allocates.  Holds at
 * most `capacity` workers (bbench uses 5); building a longer one
 * panics.
 */
class WorkerSplit
{
  public:
    static constexpr std::size_t capacity = 8;

    WorkerSplit() = default;
    WorkerSplit(std::initializer_list<double> list);

    std::size_t size() const { return count; }
    double operator[](std::size_t i) const { return bursts[i]; }
    const double *begin() const { return bursts.data(); }
    const double *end() const { return bursts.data() + count; }

  private:
    std::array<double, capacity> bursts{};
    std::size_t count = 0;
};

/** One scripted user action. */
struct ActionSpec
{
    /** Burst on the UI thread (instructions; must be > 0). */
    double uiInstructions = 5e6;

    /**
     * Parallel bursts on the worker threads, one entry per worker;
     * zero entries are skipped (that worker idles this action).
     */
    WorkerSplit workerInstructions;

    /** Idle gap between this action's completion and the next. */
    Tick thinkTime = msToTicks(300);
};

/** Drives a scripted action sequence and measures its latency. */
class WorkflowDriver
{
  public:
    /**
     * @param ui the app's UI/main thread
     * @param workers worker threads addressed by ActionSpec indices
     * @param jitter_sigma log-normal spread applied to burst sizes
     * @param on_done invoked once when the last action completes
     */
    WorkflowDriver(Simulation &sim, BurstBehavior &ui,
                   std::vector<BurstBehavior *> workers,
                   std::vector<ActionSpec> actions, Rng rng,
                   double jitter_sigma = 0.15,
                   std::function<void(Tick)> on_done = nullptr);

    WorkflowDriver(const WorkflowDriver &) = delete;
    WorkflowDriver &operator=(const WorkflowDriver &) = delete;

    /** Issue the first action. */
    void start();

    /** True once the whole script has completed. */
    bool done() const { return finished; }

    /** Actions completed so far. */
    std::size_t actionsCompleted() const { return completedActions; }

    /** Start -> last-completion time (valid once done()). */
    Tick latency() const;

    /** Write the script-progress state and private rng. */
    void serialize(Serializer &s) const;

  private:
    Simulation &sim;
    BurstBehavior &ui;
    std::vector<BurstBehavior *> workers;
    std::vector<ActionSpec> actions;
    Rng rng;
    // ablint:allow(serialize-coverage): construction-time config from the workflow spec
    double jitterSigma;
    std::function<void(Tick)> onDone;

    Tick startTick = 0;
    Tick endTick = 0;
    std::size_t nextAction = 0;
    std::size_t completedActions = 0;
    std::uint32_t outstanding = 0;
    bool finished = false;

    void issueNext();
    void threadDrained(Tick now);
    double jittered(double instructions);
};

} // namespace biglittle

#endif // BIGLITTLE_WORKLOAD_WORKFLOW_HH
