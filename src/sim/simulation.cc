#include "sim/simulation.hh"

#include <algorithm>

#include "base/logging.hh"

namespace biglittle
{

PeriodicTask::PeriodicTask(EventQueue &queue_in, Tick period_in,
                           Callback cb, EventPriority prio,
                           std::string label_in)
    : Event(prio, std::move(label_in)), eq(queue_in),
      periodTicks(period_in), callback(std::move(cb))
{
    BL_ASSERT(periodTicks > 0);
    BL_ASSERT(callback != nullptr);
}

void
PeriodicTask::start(Tick phase)
{
    eq.reschedule(*this, eq.now() + periodTicks + phase);
}

void
PeriodicTask::cancel()
{
    if (scheduled())
        eq.deschedule(*this);
}

void
PeriodicTask::setPeriod(Tick period_in)
{
    BL_ASSERT(period_in > 0);
    const Tick old = periodTicks;
    periodTicks = period_in;
    if (scheduled()) {
        // Move the already-queued fire so the new cadence starts
        // from the previous fire point, never into the past.
        const Tick base = when() >= old ? when() - old : 0;
        const Tick target = std::max(base + periodTicks,
                                     eq.now() + 1);
        eq.reschedule(*this, target);
    }
}

void
PeriodicTask::process()
{
    callback(eq.now());
    // The callback may have cancelled-and-restarted us; only chain if
    // we are still idle.
    if (!scheduled())
        eq.schedule(*this, eq.now() + periodTicks);
}

Simulation::OneShot::OneShot(std::function<void()> fn_in,
                             EventPriority prio, std::string label_in)
    : Event(prio, std::move(label_in)), fn(std::move(fn_in))
{
}

void
Simulation::OneShot::process()
{
    fn();
    delete this;
}

PeriodicTask &
Simulation::addPeriodic(Tick period, PeriodicTask::Callback cb,
                        EventPriority prio, const std::string &label)
{
    periodics.push_back(
        std::make_unique<PeriodicTask>(queue, period, std::move(cb),
                                       prio, label));
    return *periodics.back();
}

void
Simulation::at(Tick when, std::function<void()> fn, EventPriority prio,
               const std::string &label)
{
    auto *event = new OneShot(std::move(fn), prio, label);
    queue.schedule(*event, when);
}

void
Simulation::after(Tick delay, std::function<void()> fn,
                  EventPriority prio, const std::string &label)
{
    at(queue.now() + delay, std::move(fn), prio, label);
}

void
Simulation::runUntil(Tick until)
{
    queue.runUntil(until);
}

void
Simulation::runFor(Tick delta)
{
    queue.runUntil(queue.now() + delta);
}

} // namespace biglittle
