/**
 * @file
 * AppSpec / AppInstance: declarative descriptions of the mobile
 * interactive applications of Table II and the machinery that
 * instantiates them as tasks + behaviors on a scheduler.
 *
 * An app is a set of threads.  FPS-oriented apps (games, video) are
 * built from frame-paced periodic threads, one of which is the
 * render thread whose completions define the FPS metrics.  Latency-
 * oriented apps add a UI thread and worker threads driven by a
 * scripted WorkflowDriver whose end-to-end time is the latency
 * metric.  Both kinds may carry background periodic threads
 * (compositor, audio, binder) that shape idle% and TLP.
 */

#ifndef BIGLITTLE_WORKLOAD_APP_MODEL_HH
#define BIGLITTLE_WORKLOAD_APP_MODEL_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/random.hh"
#include "base/types.hh"
#include "platform/work_class.hh"
#include "sched/hmp.hh"
#include "workload/behavior.hh"
#include "workload/workflow.hh"

namespace biglittle
{

/** How an app's performance is judged (Table II). */
enum class AppMetric
{
    latency,
    fps,
};

/** Human-readable metric name. */
const char *appMetricName(AppMetric metric);

/** A frame-paced thread of an app. */
struct PeriodicThreadSpec
{
    std::string name;
    WorkClass workClass;
    PeriodicSpec periodic;
    bool isRender = false; ///< feeds the app's FrameStats
};

/** A burst-driven worker thread of a latency app. */
struct BurstThreadSpec
{
    std::string name;
    WorkClass workClass;
};

/** Declarative description of one application. */
struct AppSpec
{
    std::string name;
    AppMetric metric = AppMetric::fps;

    /** FPS apps: run length.  Latency apps: safety cap. */
    Tick duration = msToTicks(30000);

    /** Frame-paced threads (render/logic/audio/compositor). */
    std::vector<PeriodicThreadSpec> periodicThreads;

    /** Latency apps: the UI thread's work character. */
    WorkClass uiWorkClass = ::biglittle::uiWorkClass();

    /** Latency apps: worker threads addressed by action indices. */
    std::vector<BurstThreadSpec> workers;

    /** Latency apps: the scripted user-action sequence. */
    std::vector<ActionSpec> actions;

    /** Log-normal sigma applied to action burst sizes. */
    double burstJitterSigma = 0.15;

    /**
     * Worker bursts execute in chunks of this many instructions
     * separated by burstChunkGap micro-stalls; 0 disables chunking
     * (tight loops like the encoder hot thread).
     */
    double burstChunkInstructions = 0.0;
    Tick burstChunkGap = usToTicks(1200);

    /** Per-app RNG seed (runs are reproducible). */
    std::uint64_t seed = 1;
};

/** A running instance of an AppSpec. */
class AppInstance
{
  public:
    AppInstance(Simulation &sim, HmpScheduler &sched,
                const AppSpec &spec);

    AppInstance(const AppInstance &) = delete;
    AppInstance &operator=(const AppInstance &) = delete;

    ~AppInstance();

    const AppSpec &spec() const { return appSpec; }

    /** Start all threads (and the workflow for latency apps). */
    void start();

    /** Latency apps: true once the action script has completed. */
    bool done() const;

    /** Latency apps: end-to-end script latency (valid once done()). */
    Tick latency() const;

    /** FPS apps: frame statistics of the render thread. */
    const FrameStats &frameStats() const { return renderStats; }

    /** Actions completed (latency apps; 0 otherwise). */
    std::size_t actionsCompleted() const;

    /**
     * Write all behaviors' phase machines, the render FrameStats,
     * and the workflow driver (latency apps), in creation order.
     */
    void serialize(Serializer &s) const;

  private:
    Simulation &sim;
    HmpScheduler &sched;
    AppSpec appSpec;

    std::vector<std::unique_ptr<Behavior>> behaviors;
    BurstBehavior *uiBehavior = nullptr;
    std::vector<BurstBehavior *> workerBehaviors;
    std::unique_ptr<WorkflowDriver> driver;
    FrameStats renderStats;
};

} // namespace biglittle

#endif // BIGLITTLE_WORKLOAD_APP_MODEL_HH
