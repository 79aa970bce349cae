/**
 * @file
 * The event queue: a total order over pending events keyed by
 * (when, priority, sequence).  Supports schedule / reschedule /
 * deschedule, which the platform uses heavily (a task-completion
 * event moves whenever its core's frequency changes).
 *
 * Pending events live in a flat 4-ary min-heap of (when, priority <<
 * 56 | sequence, event) slots, and each event remembers its slot, so
 * every operation is O(log n) and none allocates once the heap's
 * vector has grown.  Keys are unique (the sequence is), so the heap
 * fires events in exactly the order a sorted set would.  Nothing
 * observable walks the heap in storage order: pops, visitHead() and
 * serialize() all follow the key.
 */

#ifndef BIGLITTLE_SIM_EVENTQ_HH
#define BIGLITTLE_SIM_EVENTQ_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

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
     * schedule, done in place on the event's heap slot).  Same-tick
     * semantic: like schedule(), it always gives the event a *fresh*
     * sequence number — rescheduling to the current tick (or back to
     * its own tick) re-enters the event at the BACK of its
     * (when, priority) batch, behind every already-pending peer.
     * "Reschedule to now" therefore never jumps ahead of events that
     * were queued first, and repeated reschedule churn cannot
     * perturb the relative order of untouched events.
     */
    void reschedule(Event &event, Tick when);

    /** True when no events are pending. */
    bool empty() const { return heap.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap.size(); }

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
     *
     * A best-first walk of the heap's frontier: a slot's children
     * become candidates once the slot is visited, so the walk costs
     * O(n log n) and never sorts the whole queue.
     */
    template <typename Visit>
    void
    visitHead(std::size_t n, Visit &&visit) const
    {
        const auto later = [this](std::size_t a, std::size_t b) {
            return before(heap[b], heap[a]);
        };
        std::vector<std::size_t> frontier;
        if (!heap.empty())
            frontier.push_back(0);
        for (; n > 0 && !frontier.empty(); --n) {
            std::pop_heap(frontier.begin(), frontier.end(), later);
            const std::size_t i = frontier.back();
            frontier.pop_back();
            visit(static_cast<const Event &>(*heap[i].event));
            const std::size_t end =
                std::min(firstChild(i) + arity, heap.size());
            for (std::size_t c = firstChild(i); c < end; ++c) {
                frontier.push_back(c);
                std::push_heap(frontier.begin(), frontier.end(), later);
            }
        }
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
    /** One pending event with its firing key copied in, so sifts
     *  compare without touching the event. */
    struct Slot
    {
        Tick when;
        std::uint64_t key; ///< priority << 56 | sequence
        Event *event;
    };

    /** Children per heap node.  Four measured a little faster than
     *  two on paper_suite's ~25 pending events: a shallower heap
     *  whose siblings sit side by side. */
    static constexpr std::size_t arity = 4;

    static std::size_t firstChild(std::size_t i) { return arity * i + 1; }

    /** Strict firing order over (when, priority, sequence). */
    static bool
    before(const Slot &a, const Slot &b)
    {
        return a.when < b.when || (a.when == b.when && a.key < b.key);
    }

    /** True when @p a and @p b share a (when, priority) batch. */
    static bool
    sameBatch(const Slot &a, const Slot &b)
    {
        return a.when == b.when && (a.key >> 56) == (b.key >> 56);
    }

    /** Store @p slot at index @p i and tell its event. */
    void place(std::size_t i, const Slot &slot);
    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    /** Sift the slot at @p i whichever way its key now belongs. */
    void resift(std::size_t i);
    /** Append @p slot and restore the heap order. */
    void push(const Slot &slot);
    /** Remove and return the slot at index @p i. */
    Slot removeAt(std::size_t i);

    std::vector<Slot> heap;
    /** A permuted pick's popped (when, priority) batch, in sequence
     *  order; kept as a member so a pick does not allocate. */
    // ablint:allow(serialize-coverage): scratch of one serviceOne() call, empty between services
    std::vector<Slot> batch;
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
