/**
 * @file
 * The benchmark's own event-loop rig: the same components
 * Experiment::runApp wires, built from their public classes and driven
 * with the same 10 ms runUntil chunks, so the host time of one run can
 * be split by layer without instrumenting the simulator.
 */

#ifndef PERFBENCH_RIG_HH
#define PERFBENCH_RIG_HH

#include <array>
#include <cstdint>
#include <vector>

#include "bench.hh"
#include "core/experiment.hh"

namespace perfbench
{

/** The queue key of one serviced event. */
struct ServiceKey
{
    biglittle::Tick when = 0;
    std::int32_t priority = 0;
};

/** What the service hook saw during one traced rig run. */
struct BandTrace
{
    std::array<double, bandCount> ns{}; ///< host time per band
    std::array<std::uint64_t, bandCount> events{};
    std::vector<ServiceKey> stream; ///< serviced keys, in order
};

/** One rig run: runApp-equivalent outputs plus its host-time split. */
struct RigRun
{
    /** Headline metrics, characterization and state digests, filled
     *  exactly as runApp fills them. */
    biglittle::AppRunResult result;

    double buildMs = 0.0; ///< construction through instance.start()
    double loopMs = 0.0; ///< the runUntil chunks
    double finalizeMs = 0.0; ///< TLP, efficiency, residency, tasks
    double digestMs = 0.0; ///< every section's serialize + fnv1a64

    std::uint64_t events = 0; ///< serviced events
    double meanPending = 0.0; ///< queue size averaged over chunks
    std::uint64_t oppTransitions = 0;
    std::uint64_t throttleEvents = 0;
    std::uint64_t raceConflicts = 0;
    std::uint64_t raceBatches = 0;
    std::uint64_t raceTracked = 0;

    double
    totalMs() const
    {
        return buildMs + loopMs + finalizeMs + digestMs;
    }
};

/**
 * Run @p app under @p cfg in the rig.  With @p trace set, a service
 * hook charges the host time between two serviced events to the band
 * of the earlier one and records the serviced key stream.  Only the
 * config subset the event-loop workloads use is supported (interactive
 * governor, optional race detection and tie-break; no faults,
 * checkpoints, traces, watchdog or supervision).
 */
RigRun runRig(const biglittle::ExperimentConfig &cfg,
              const biglittle::AppSpec &app, BandTrace *trace);

/**
 * Replay @p stream through a bare EventQueue of no-op events, keeping
 * @p window events pending, and return the wall ms it took: the cost
 * of the queue alone.
 */
double replayQueueMs(const std::vector<ServiceKey> &stream,
                     std::size_t window);

} // namespace perfbench

#endif // PERFBENCH_RIG_HH
