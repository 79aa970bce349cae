/**
 * @file
 * Watchdog: a wall-clock monitor for long simulations.
 *
 * A discrete-event run can fail in two silent ways: it stalls (an
 * event loop stops making progress - a deadlocked drain listener, an
 * event storm pinned at one tick) or it runs away (simulated time
 * advances but never reaches the cap - a workload that will not
 * converge).  Both look identical from outside: a process that burns
 * CPU forever.  The watchdog turns either into a diagnosable,
 * non-zero exit.
 *
 * The simulation thread calls heartbeat() between event slices; each
 * heartbeat snapshots the progress counters and the first ringDepth
 * pending events (and, optionally, freshly encoded checkpoint bytes)
 * under a mutex.  Heartbeats run at chunk boundaries, so the pending
 * head begins with exactly the events a stalled chunk was running.
 * A helper thread checks every 50 ms and trips when
 *
 *  - no serviced-event progress for stallLimit wall seconds, or
 *  - total wall time exceeds runawayLimit seconds.
 *
 * stop() wakes the helper at once instead of letting it finish its
 * 50 ms wait, so a short run is not held back to the next check.
 *
 * On trip it writes a report file (reason, last tick, serviced
 * count, the pending events in firing order, formatted only now),
 * writes the last checkpoint bytes next to it, and _Exit()s with
 * watchdogExitCode - deliberately not a clean shutdown, because the
 * simulation thread is wedged and cannot be joined.
 */

#ifndef BIGLITTLE_SNAPSHOT_WATCHDOG_HH
#define BIGLITTLE_SNAPSHOT_WATCHDOG_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/types.hh"
#include "snapshot/event_trace.hh"

namespace biglittle
{

class EventQueue;

/** Exit code of a watchdog trip (distinct from crash/assert codes). */
constexpr int watchdogExitCode = 86;

/** Watchdog tunables. */
struct WatchdogParams
{
    bool enabled = false;

    /** Wall seconds without serviced-event progress before a trip. */
    double stallLimitSec = 30.0;

    /** Wall seconds of total run time before a trip (0 = no limit). */
    double runawayLimitSec = 0.0;

    /** Where the trip report is written ("" = stderr only). */
    std::string reportPath;

    /** Pending events listed in the report. */
    std::size_t ringDepth = 64;
};

/** Monitors a simulation thread's progress from a helper thread. */
class Watchdog
{
  public:
    explicit Watchdog(const WatchdogParams &params);

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    ~Watchdog();

    /**
     * Begin monitoring.  @p queue is only touched from heartbeat()
     * (the simulation thread), never from the watchdog thread.
     */
    void start(EventQueue &queue);

    /** Stop monitoring and join the helper thread. */
    void stop();

    /**
     * Progress report from the simulation thread.  Cheap when called
     * every few simulated milliseconds.  Also copies the next pending
     * events so a later trip can list them without touching the
     * queue.
     */
    void heartbeat();

    /**
     * Stash the latest checkpoint bytes; on a trip they are written
     * to reportPath + ".ckpt" so the stalled run can be examined
     * from its last good state.
     */
    void noteCheckpoint(std::vector<std::uint8_t> bytes);

    /** Trips observed (always 0 unless exitOnTrip was disabled). */
    std::uint64_t trips() const { return tripCount.load(); }

    /**
     * Testing hook: when disabled, a trip writes the report and
     * increments trips() but does not _Exit(), so unit tests can
     * assert on the report without dying.
     */
    void setExitOnTrip(bool exit_on_trip) { exitOnTrip = exit_on_trip; }

  private:
    WatchdogParams wp;
    EventQueue *queuePtr = nullptr;

    std::atomic<bool> running{false};
    /** `running` is cleared only under wakeMutex, and stop() then
     *  notifies wake, so run()'s timed wait cannot miss the stop. */
    std::mutex wakeMutex;
    std::condition_variable wake;
    std::atomic<std::uint64_t> servicedSeen{0};
    std::atomic<std::uint64_t> lastTick{0};
    std::atomic<std::uint64_t> tripCount{0};
    bool exitOnTrip = true;

    std::mutex snapMutex;
    /** The first headCount entries are the pending events at the
     *  last heartbeat; later entries keep their buffers for reuse.
     *  Guarded by snapMutex, like checkpointBytes. */
    std::vector<TraceRecord> head;
    std::size_t headCount = 0;
    std::vector<std::uint8_t> checkpointBytes;

    /** Declared last: the helper thread uses every member above. */
    std::thread monitor;

    void run();
    void trip(const std::string &reason);
};

} // namespace biglittle

#endif // BIGLITTLE_SNAPSHOT_WATCHDOG_HH
