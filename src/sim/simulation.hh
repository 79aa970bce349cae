/**
 * @file
 * Simulation: the top-level container that owns the event queue and
 * provides periodic-callback plumbing used by the scheduler tick,
 * the governor sampler, and the statistics samplers.
 */

#ifndef BIGLITTLE_SIM_SIMULATION_HH
#define BIGLITTLE_SIM_SIMULATION_HH

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/types.hh"
#include "sim/event.hh"
#include "sim/eventq.hh"

namespace biglittle
{

class RaceDetector;

/**
 * A repeating event: fires every @p period ticks and invokes a
 * callback until cancelled.  The callback receives the current tick.
 */
class PeriodicTask : public Event
{
  public:
    using Callback = std::function<void(Tick)>;

    PeriodicTask(EventQueue &queue, Tick period, Callback cb,
                 EventPriority prio, std::string label);

    /** Begin firing; first fire is at now + period + phase. */
    void start(Tick phase = 0);

    /** Stop firing (idempotent). */
    void cancel();

    /** Change the period; takes effect from the next fire. */
    void setPeriod(Tick period);

    Tick period() const { return periodTicks; }

    void process() override;

  private:
    EventQueue &eq;
    Tick periodTicks;
    Callback callback;
};

/**
 * Owns the event queue and any periodic tasks created through it.
 * Modules keep references to the Simulation to read time and to
 * schedule their own events.
 */
class Simulation
{
  public:
    Simulation() = default;

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Current simulated time. */
    Tick now() const { return queue.now(); }

    /** The underlying event queue. */
    EventQueue &eventQueue() { return queue; }

    /**
     * Create (and retain) a periodic task.  The returned reference
     * stays valid for the lifetime of the Simulation.
     */
    PeriodicTask &addPeriodic(Tick period, PeriodicTask::Callback cb,
                              EventPriority prio, const std::string &label);

    /** Schedule a one-shot callback at an absolute tick. */
    void at(Tick when, std::function<void()> fn,
            EventPriority prio = EventPriority::deferred,
            const std::string &label = "one-shot");

    /** Schedule a one-shot callback @p delay ticks from now. */
    void after(Tick delay, std::function<void()> fn,
               EventPriority prio = EventPriority::deferred,
               const std::string &label = "one-shot");

    /** Advance the simulation to @p until. */
    void runUntil(Tick until);

    /** Advance by @p delta ticks. */
    void runFor(Tick delta);

    /**
     * abrace access tracking (sim/abrace.hh).  Event handlers call
     * these to declare which state cell they touch; the calls are
     * near-free no-ops unless a RaceDetector is attached to the
     * event queue.  @p component is a stable instance name ("cpu0",
     * "big.domain"), @p field the logical member ("rq", "freq").
     */
    void noteRead(std::string_view component, std::string_view field);

    /** Declare a write of @p component's @p field.  @see noteRead */
    void noteWrite(std::string_view component, std::string_view field);

    /** The attached race detector, nullptr when detection is off. */
    RaceDetector *race() const { return queue.raceDetector(); }

  private:
    /** One-shot event that deletes itself after firing. */
    class OneShot : public Event
    {
      public:
        OneShot(std::function<void()> fn, EventPriority prio,
                std::string label);
        void process() override;
        void orphaned() override { delete this; }

      private:
        std::function<void()> fn;
    };

    EventQueue queue;
    std::vector<std::unique_ptr<PeriodicTask>> periodics;
};

} // namespace biglittle

#endif // BIGLITTLE_SIM_SIMULATION_HH
