/**
 * @file
 * abrace: the same-tick event race detector.
 *
 * The event queue's `(when, priority, sequence)` total order makes
 * every run deterministic, but the `sequence` tie-break is
 * *semantically arbitrary*: two events at the same `(tick, priority)`
 * fire in schedule order, and nothing in the model justifies that
 * order.  If their handlers touch the same state - one writes what
 * the other reads or writes - the simulation's outcome silently
 * depends on an ordering accident, which is exactly the
 * nondeterminism class that breaks checkpoint digests, trace replay,
 * and figure reproduction three PRs later.
 *
 * abrace surfaces that class at runtime, TSan-style.  Event handlers
 * (and the component methods they call) declare their state accesses
 * through `Simulation::noteRead()/noteWrite(component, field)`.  The
 * queue brackets every serviced event, so each access is charged to
 * the event being processed; after each same-`(tick, priority)` batch
 * drains, the detector intersects the access sets of every *unordered*
 * pair of events in the batch (an event scheduled during another
 * batch member's handler is causally ordered and exempt) and reports
 * write-write and read-write conflicts with both event identities,
 * the contested state cell, and schedule-site provenance.
 *
 * Only events that can race pay for an access set.  The queue tells
 * beginEvent() whether another event with the same `(tick, priority)`
 * is still pending; an event keeps its accesses when one is, or when
 * the open batch already holds a member with accesses.  Any other
 * event can share its batch only with its own descendants, which the
 * causal exemption excuses, so for it the detector only notes that it
 * touched state (eventsTracked() and batchesAnalyzed() count every
 * event either way).  One consequence: an event scheduled from
 * outside any handler (between runUntil() chunks) into the key of an
 * already-serviced lone event is not compared with it - the two were
 * never pending together, so no tie-break can reorder them.
 * Provenance is kept as plain fields and formatted only when a
 * Conflict is built.
 *
 * Suppression mirrors ablint: an inline `allow(eventA, eventB, cell)`
 * call for individually justified pairs (trailing-`*` globs
 * supported), plus a checked-in baseline file
 * (`tools/abrace/baseline.txt`, kept empty) of `eventA|eventB|cell`
 * lines for adopting the detector on a tree with known debt.
 *
 * The companion to detection is *proof*: EventQueue::setTieBreak()
 * reverses (lifo) or seeded-shuffles the service order within each
 * same-key batch.  A conflict whose permuted rerun changes the
 * checkpoint digest is a confirmed determinism bug, not a false
 * positive.  See docs/DETERMINISM.md for the workflow and the event
 * priority table that keeps cross-component handlers out of each
 * other's batches.
 */

#ifndef BIGLITTLE_SIM_ABRACE_HH
#define BIGLITTLE_SIM_ABRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.hh"
#include "base/types.hh"
#include "sim/eventq.hh"

namespace biglittle
{

class Event;

/**
 * Runtime detector of same-(tick, priority) access conflicts.  One
 * detector observes one event queue: it relies on the queue's
 * sequence numbers rising from one schedule() to the next.
 */
class RaceDetector
{
  public:
    /** One distinct (eventA, eventB, cell) conflict, with counts. */
    struct Conflict
    {
        Tick tick = 0; ///< first occurrence
        std::int32_t priority = 0;
        std::string eventA; ///< serviced first at the first occurrence
        std::string eventB;
        std::string cell; ///< "component/field"
        bool writeA = false; ///< access mode of each side ...
        bool writeB = false; ///< ... (false means read)
        std::string provenanceA; ///< schedule site of each event
        std::string provenanceB;
        std::uint64_t count = 1; ///< occurrences across the run

        /** Multi-line TSan-style report of this conflict. */
        std::string describe() const;

        /** Canonical `eventA|eventB|cell` baseline key (sorted). */
        std::string key() const;
    };

    RaceDetector() = default;

    RaceDetector(const RaceDetector &) = delete;
    RaceDetector &operator=(const RaceDetector &) = delete;

    // ---- access-tracking API (via Simulation::noteRead/noteWrite) --

    /** Charge a read of @p component's @p field to the current event. */
    void noteRead(std::string_view component, std::string_view field);

    /** Charge a write likewise.  A write dominates a prior read. */
    void noteWrite(std::string_view component, std::string_view field);

    // ---- suppression ----------------------------------------------

    /**
     * Inline allow: conflicts between events matching @p eventA and
     * @p eventB (either order) on cells matching @p cell are
     * suppressed.  Patterns are exact strings or trailing-`*` globs
     * (`"*"` matches everything).  Mirrors ablint's inline
     * `ablint:allow` - each call should be individually justified.
     */
    void allow(std::string_view eventA, std::string_view eventB,
               std::string_view cell);

    /**
     * Load a baseline file of `eventA|eventB|cell` suppression lines
     * (`#` comments, blank lines ignored).  The checked-in baseline
     * (tools/abrace/baseline.txt) is empty and must stay that way -
     * new conflicts get fixed (distinct priorities) or inline-allowed
     * with a reason, exactly like ablint's baseline discipline.
     */
    [[nodiscard]] Status loadBaseline(const std::string &path);

    /** Parse baseline text directly (filesystem-free, for tests). */
    void loadBaselineText(const std::string &text);

    // ---- event queue integration ----------------------------------

    /** Called by EventQueue::schedule: records provenance. */
    void onScheduled(const Event &event, Tick now);

    /** Called by EventQueue::deschedule: drops provenance. */
    void onDescheduled(const Event &event);

    /**
     * Called before an event processes; flushes a finished batch.
     * @p peerPending tells whether another event with the same
     * (when, priority) is still queued, i.e. whether this one can
     * race with an event that is not its descendant.
     */
    void beginEvent(const ServicedEvent &event, bool peerPending);

    /** Called after the event's process() returns. */
    void endEvent();

    /** Analyze the still-open batch (call once at end of run). */
    void finish();

    // ---- results --------------------------------------------------

    /** Distinct unsuppressed conflicts, in first-occurrence order. */
    const std::vector<Conflict> &conflicts() const { return found; }

    /** Conflict occurrences swallowed by allow()/baseline rules. */
    std::uint64_t suppressedCount() const { return suppressed; }

    /** Same-key batches in which more than one event touched state. */
    std::uint64_t batchesAnalyzed() const { return batches; }

    /** Events that noted at least one access. */
    std::uint64_t eventsTracked() const { return tracked; }

    /** Full human-readable report (empty string when clean). */
    std::string report() const;

  private:
    struct Access
    {
        bool read = false;
        bool write = false;
    };

    /** Where an event was scheduled; formatted only for reports. */
    struct Provenance
    {
        enum class Site : std::uint8_t
        {
            unknown, ///< scheduled before the detector was attached
            outside, ///< outside any event handler
            handler, ///< during the `scheduler` event's handler
        };

        Tick tick = 0; ///< when the schedule call happened
        std::uint64_t schedulerSeq = 0; ///< scheduling event (handler)
        std::uint32_t scheduler = 0; ///< and its name, a names index
        Site site = Site::unknown;
    };

    /** A scheduled, not yet serviced event's provenance. */
    struct Pending
    {
        std::uint64_t sequence = 0;
        Provenance provenance;
        bool live = true;
    };

    /** One serviced event of the open batch, with its access set. */
    struct Record
    {
        std::uint32_t name = 0; ///< names index
        std::uint64_t sequence = 0;
        Provenance provenance;
        std::map<std::string, Access, std::less<>> cells;
    };

    struct AllowRule
    {
        std::string a;
        std::string b;
        std::string cell;
    };

    void note(std::string_view component, std::string_view field,
              bool write);
    Pending *findPending(std::uint64_t sequence);
    void dropPending(Pending &entry);
    std::uint32_t intern(const std::string &name, std::uint32_t hint);
    std::string describe(const Provenance &p) const;
    void analyzeBatch();
    bool isAncestor(std::uint64_t ancestorSeq,
                    std::uint64_t seq) const;
    bool allowed(const std::string &a, const std::string &b,
                 const std::string &cell) const;

    // Open batch state.
    bool batchOpen = false;
    Tick batchTick = 0;
    std::int32_t batchPriority = 0;
    std::vector<Record> batch; ///< recorded members with accesses
    std::uint64_t batchTouched = 0; ///< members that touched state
    /** sequence -> parent sequence, for recorded batch members. */
    std::map<std::uint64_t, std::uint64_t> batchParent;

    // Currently processing event (valid between begin/endEvent).
    bool inEvent = false;
    bool recording = false; ///< current keeps its access set
    bool touched = false; ///< current noted at least one access
    Record current;

    /**
     * Pending events in schedule order, which is ascending sequence
     * order, so onScheduled() only appends.  Serviced and descheduled
     * entries die in place and are swept out once they outnumber the
     * live ones.
     */
    std::vector<Pending> pending;
    std::size_t pendingDead = 0;

    /** Every event name seen, so records hold a 32-bit index. */
    std::vector<std::string> names;
    std::map<std::string, std::uint32_t, std::less<>> nameIndex;

    std::vector<AllowRule> allowRules;

    std::vector<Conflict> found;
    std::map<std::string, std::size_t> foundIndex; ///< dedup by key
    std::uint64_t suppressed = 0;
    std::uint64_t batches = 0;
    std::uint64_t tracked = 0;
};

} // namespace biglittle

#endif // BIGLITTLE_SIM_ABRACE_HH
