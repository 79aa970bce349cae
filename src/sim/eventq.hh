/**
 * @file
 * The event queue: a total order over pending events keyed by
 * (when, priority, sequence).  Supports schedule / reschedule /
 * deschedule, which the platform uses heavily (a task-completion
 * event moves whenever its core's frequency changes).
 */

#ifndef BIGLITTLE_SIM_EVENTQ_HH
#define BIGLITTLE_SIM_EVENTQ_HH

#include <cstdint>
#include <functional>
#include <set>
#include <string_view>

#include "base/random.hh"
#include "base/types.hh"
#include "sim/event.hh"

namespace biglittle
{

class RaceDetector;
class Serializer;

/**
 * How the queue orders events that share a (when, priority) key.
 * `fifo` (schedule order) is the production semantic; `lifo` and
 * `shuffle` are deterministic but *different* valid orders used by
 * the permuted tie-break replay harness to prove that no handler
 * depends on the arbitrary part of the total order
 * (docs/DETERMINISM.md).
 */
enum class TieBreak
{
    fifo, ///< schedule order (the production default)
    lifo, ///< reverse schedule order within each batch
    shuffle, ///< seeded-random order within each batch
};

/**
 * A serviced event as the service hook and the race detector see it.
 * It copies nothing: `name` views the event's own name and is valid
 * only during the callback, so copy it out to keep it.
 */
struct ServicedEvent
{
    Tick when = 0;
    std::int32_t priority = 0;
    std::uint64_t sequence = 0;
    std::string_view name;
};

/** Deterministic priority queue of events. */
class EventQueue
{
  public:
    /** Called for every serviced event, just before it processes. */
    using ServiceHook = std::function<void(const ServicedEvent &)>;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue();

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /**
     * Insert @p event to fire at absolute tick @p when.
     * @p when must not be in the past; the event must be idle.
     */
    void schedule(Event &event, Tick when);

    /** Remove a scheduled event (must currently be scheduled). */
    void deschedule(Event &event);

    /**
     * Move an event to a new tick (deschedule-if-scheduled +
     * schedule).  Same-tick semantic: because the event is
     * re-inserted through schedule(), it always receives a *fresh*
     * sequence number — rescheduling to the current tick (or back to
     * its own tick) re-enters the event at the BACK of its
     * (when, priority) batch, behind every already-pending peer.
     * "Reschedule to now" therefore never jumps ahead of events that
     * were queued first, and repeated reschedule churn cannot
     * perturb the relative order of untouched events.
     */
    void reschedule(Event &event, Tick when);

    /** True when no events are pending. */
    bool empty() const { return queue.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return queue.size(); }

    /** Tick of the next pending event (maxTick when empty). */
    Tick nextTick() const;

    /**
     * Service exactly one event (advances time to it first).
     * @return false if the queue was empty.
     */
    bool serviceOne();

    /**
     * Run events until the queue drains or the next event would fire
     * after @p until.  The clock is then parked exactly at @p until
     * so a subsequent runUntil continues from there.
     */
    void runUntil(Tick until);

    /** Total events serviced since construction. */
    std::uint64_t eventsServiced() const { return serviced; }

    /**
     * Install (or clear, with nullptr) the single service hook.  The
     * event-trace recorder uses it for both trace record and replay,
     * and perfbench uses it to time event bands.  The hook fires for
     * every serviced event with its (when, priority, sequence, name)
     * identity, before process() runs; see ServicedEvent for how
     * long the name stays valid.
     */
    void setServiceHook(ServiceHook hook);

    /**
     * Call @p visit on each of the first @p n pending events, as a
     * `const Event &`, in (when, priority, sequence) order - the
     * order the fifo tie-break fires them in.  Changes nothing; the
     * watchdog uses it to show what a stalled run was about to do.
     */
    template <typename Visit>
    void
    visitHead(std::size_t n, Visit &&visit) const
    {
        for (auto it = queue.begin(); n > 0 && it != queue.end();
             ++it, --n)
            visit(static_cast<const Event &>(**it));
    }

    /**
     * Select the same-(when, priority) tie-break order (see TieBreak).
     * @p seed feeds the `shuffle` mode's private generator; `fifo`
     * and `lifo` ignore it.  Call before running; switching modes
     * mid-run is legal but makes the run incomparable to either
     * pure order.
     */
    void setTieBreak(TieBreak mode, std::uint64_t seed = 1);

    /** The active tie-break mode. */
    TieBreak tieBreak() const { return tieMode; }

    /**
     * Attach (or detach, with nullptr) the abrace race detector.
     * While attached it observes every schedule/deschedule for
     * provenance and brackets every serviced event so state accesses
     * recorded via noteRead/noteWrite are charged to the right event
     * (sim/abrace.hh).  The bracket also tells the detector whether
     * another event with the serviced event's (when, priority) is
     * still pending.  The detector must outlive its attachment;
     * detach before tearing down components whose destructors
     * deschedule events.
     */
    void setRaceDetector(RaceDetector *detector) { race = detector; }

    /** The attached race detector (nullptr when detached). */
    RaceDetector *raceDetector() const { return race; }

    /**
     * Serialize the queue's externally observable state: clock,
     * counters, and a digest of every pending event's (when,
     * priority, sequence, name-hash) in firing order.  Two runs with
     * identical behavior produce identical bytes; the digest form is
     * used because pending events (closures) cannot themselves be
     * reconstructed from bytes.  Like every section, only its digest
     * is kept: resume re-executes to the checkpoint tick and compares
     * the digests (docs/DETERMINISM.md).
     */
    void serialize(Serializer &s) const;

  private:
    struct Cmp
    {
        bool
        operator()(const Event *a, const Event *b) const
        {
            if (a->when() != b->when())
                return a->when() < b->when();
            if (a->priority() != b->priority())
                return a->priority() < b->priority();
            return a->sequence < b->sequence;
        }
    };

    // ablint:allow(pointer-key): Cmp orders by stable fields
    std::set<Event *, Cmp> queue;
    Tick curTick = 0;
    std::uint64_t nextSequence = 0;
    std::uint64_t serviced = 0;

    // ablint:allow(serialize-coverage): observer wiring, attached by the caller
    ServiceHook serviceHook;

    // ablint:allow(serialize-coverage): set from the run config or the recovery script, both replayed on resume
    TieBreak tieMode = TieBreak::fifo;
    // ablint:allow(rng-stream): fixed tie-break stream, part of the event-order contract
    Rng tieRng{1}; // ablint:allow(serialize-coverage): reseeded by setTieBreak(), which re-execution replays
    RaceDetector *race = nullptr;
};

} // namespace biglittle

#endif // BIGLITTLE_SIM_EVENTQ_HH
