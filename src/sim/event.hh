/**
 * @file
 * Discrete-event primitives.
 *
 * Events are intrusive: an Event object knows whether it is currently
 * scheduled and at what tick, so it can be rescheduled or descheduled
 * in O(log n).  Ordering is (when, priority, sequence) which makes
 * simulations fully deterministic even when many events share a tick.
 */

#ifndef BIGLITTLE_SIM_EVENT_HH
#define BIGLITTLE_SIM_EVENT_HH

#include <cstdint>
#include <functional>
#include <string>

#include "base/types.hh"

namespace biglittle
{

class EventQueue;

/**
 * Priorities for events that fire on the same tick.  Lower values run
 * first.  The ordering mirrors what a real kernel does in one tick:
 * task state changes settle before the scheduler looks at loads, the
 * governor samples after scheduling, and statistics observe last.
 *
 * Within the task-state band every *actor* owns a distinct slot
 * (per-core slice events, the DVFS apply, input sources, the workflow
 * driver, per-behavior work submission), because their handlers all
 * funnel into HmpScheduler::wakeup and contend for the same run
 * queues and placement cursor.  Sharing one slot would leave their
 * same-tick order to the arbitrary schedule-order tie-break - the
 * exact nondeterminism class abrace exists to catch (sim/abrace.hh).
 * The full priority table with the rationale for each slot lives in
 * docs/DETERMINISM.md.
 */
enum class EventPriority : std::int32_t
{
    /** Base of the per-core slice-event slots: slot = sliceEnd +
     *  core id, capped to `sliceSlots` cores.  Completions and
     *  quantum expiries settle in core-id order. */
    sliceEnd = 0,
    taskState = 0, ///< legacy alias: generic task-state events
    dvfsApply = 16, ///< frequency-domain apply (after work settles)
    inputPump = 17, ///< input sources delivering user bursts
    workflowStep = 18, ///< workflow driver think/act steps
    /** Base of the per-behavior work-submission slots: slot =
     *  workSubmit + behavior index, capped to `workSlots`. */
    workSubmit = 20,
    schedTick = 40, ///< scheduler load update + migration
    /** Base of the per-cluster thermal-evaluation slots: slot =
     *  thermal + the cluster's first core id, capped to
     *  `clusterSlots`.  Ceiling updates settle before the governors
     *  sample, so a request always sees the fresh ceiling. */
    thermal = 44,
    /** Base of the per-cluster governor-sampling slots, keyed like
     *  `thermal`.  Distinct slots keep the two clusters' samplers -
     *  which share the fault injector's DVFS-gate rng - out of one
     *  tie-break batch. */
    governor = 60,
    stats = 80, ///< state samplers, meters
    faultReplug = 88, ///< hotplug capacity restoration
    deferred = 90, ///< everything else
};

/** Width of the per-core slice-event priority band. */
constexpr std::size_t sliceSlots = 16;

/** Width of the per-behavior work-submission priority band. */
constexpr std::size_t workSlots = 16;

/** Width of the per-cluster thermal/governor priority bands. */
constexpr std::size_t clusterSlots = 16;

/**
 * The @p slot'th priority of the band starting at @p base.  Slots at
 * or beyond @p width share the band's last value - they stay inside
 * the band (no collision with the next one), and abrace still
 * watches whatever ends up sharing a slot.
 */
constexpr EventPriority
offsetPriority(EventPriority base, std::size_t slot, std::size_t width)
{
    const std::size_t capped = slot < width ? slot : width - 1;
    return static_cast<EventPriority>(
        static_cast<std::int32_t>(base) +
        static_cast<std::int32_t>(capped));
}

/**
 * Base class for schedulable events.  Subclasses implement process().
 */
class Event
{
  public:
    /**
     * @param prio same-tick ordering class for this event.
     * @param name diagnostic name, as traces, the checkpoint digest
     *        of pending events and abrace reports show it.
     */
    explicit Event(EventPriority prio = EventPriority::deferred,
                   std::string name = "event");

    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Called by the queue when the event fires. */
    virtual void process() = 0;

    /**
     * Called by a dying queue on each still-pending event after
     * detaching it.  Self-owning events (the one-shots behind
     * Simulation::at/after) override this with `delete this`; events
     * owned elsewhere keep the default no-op.
     */
    virtual void orphaned() {}

    /** Diagnostic name used in trace output. */
    const std::string &name() const { return eventName; }

    /** True while the event sits in a queue. */
    bool scheduled() const { return queue != nullptr; }

    /** Tick this event is scheduled for (valid when scheduled()). */
    Tick when() const { return whenTick; }

    /** Same-tick ordering class. */
    EventPriority priority() const { return prio; }

    /**
     * Monotonic insertion number assigned by the queue at schedule
     * time; same-tick same-priority events fire in this order, which
     * makes run order independent of heap/container internals.  Valid
     * while scheduled; exposed so traces and checkpoints can record
     * the exact total order.
     */
    std::uint64_t sequenceNumber() const { return sequence; }

  private:
    friend class EventQueue;

    EventPriority prio;
    Tick whenTick = 0;
    std::uint64_t sequence = 0;
    EventQueue *queue = nullptr;
    std::string eventName;
};

/**
 * An event that runs an arbitrary callback.  Convenient for small
 * one-shot actions without declaring a subclass.
 */
class CallbackEvent : public Event
{
  public:
    CallbackEvent(std::function<void()> fn,
                  EventPriority prio = EventPriority::deferred,
                  std::string label = "callback");

    void process() override;

  private:
    std::function<void()> fn;
};

} // namespace biglittle

#endif // BIGLITTLE_SIM_EVENT_HH
