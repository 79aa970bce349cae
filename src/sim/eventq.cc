#include "sim/eventq.hh"

#include <iterator>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/serialize.hh"
#include "sim/abrace.hh"

namespace biglittle
{

EventQueue::~EventQueue()
{
    // Detach any events still pending so their destructors do not
    // dereference a dead queue, then let self-owning events free
    // themselves (orphaned() may `delete this`, so iterate a copy).
    std::vector<Event *> pending(queue.begin(), queue.end());
    queue.clear();
    for (Event *e : pending)
        e->queue = nullptr;
    for (Event *e : pending)
        e->orphaned();
}

void
EventQueue::schedule(Event &event, Tick when)
{
    BL_ASSERT(event.queue == nullptr);
    if (when < curTick)
        panic("scheduling event '%s' at %llu, before current tick %llu",
              event.name().c_str(),
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick));
    event.whenTick = when;
    event.sequence = nextSequence++;
    event.queue = this;
    const bool inserted = queue.insert(&event).second;
    BL_ASSERT(inserted);
    if (race)
        race->onScheduled(event, curTick);
}

void
EventQueue::deschedule(Event &event)
{
    BL_ASSERT(event.queue == this);
    const std::size_t erased = queue.erase(&event);
    BL_ASSERT(erased == 1);
    event.queue = nullptr;
    if (race)
        race->onDescheduled(event);
}

void
EventQueue::reschedule(Event &event, Tick when)
{
    if (event.queue != nullptr)
        deschedule(event);
    schedule(event, when);
}

Tick
EventQueue::nextTick() const
{
    return queue.empty() ? maxTick : (*queue.begin())->when();
}

bool
EventQueue::serviceOne()
{
    if (queue.empty())
        return false;
    auto head = queue.begin();
    Event *event = *head;
    if (tieMode != TieBreak::fifo) {
        // Permuted tie-break: pick a different member of the head's
        // same-(when, priority) batch.  Any pick is causally valid -
        // an event scheduled during this batch still fires after its
        // parent because it can only be picked on a later service.
        auto it = head;
        auto last = head;
        std::size_t n = 0;
        while (it != queue.end() && (*it)->whenTick == event->whenTick
               && (*it)->prio == event->prio) {
            last = it;
            ++it;
            ++n;
        }
        if (n > 1) {
            if (tieMode == TieBreak::lifo) {
                head = last;
            } else {
                head = queue.begin();
                std::advance(head, tieRng.uniformInt(0, n - 1));
            }
            event = *head;
        }
    }
    queue.erase(head);
    event->queue = nullptr;
    BL_ASSERT(event->whenTick >= curTick);
    curTick = event->whenTick;
    ++serviced;
    if (serviceHook || race) {
        const ServicedEvent info{event->whenTick,
                                 static_cast<std::int32_t>(event->prio),
                                 event->sequence, event->name()};
        if (serviceHook)
            serviceHook(info);
        if (race) {
            // The picked event was the only one with its key unless
            // the new head shares it (under any tie-break mode).
            const bool peerPending =
                !queue.empty() &&
                (*queue.begin())->whenTick == event->whenTick &&
                (*queue.begin())->prio == event->prio;
            race->beginEvent(info, peerPending);
            event->process();
            race->endEvent();
            return true;
        }
    }
    event->process();
    return true;
}

void
EventQueue::setTieBreak(TieBreak mode, std::uint64_t seed)
{
    tieMode = mode;
    tieRng.seed(seed);
}

void
EventQueue::setServiceHook(ServiceHook hook)
{
    serviceHook = std::move(hook);
}

void
EventQueue::serialize(Serializer &s) const // ablint:allow(serialize-coverage): digest-only, restore by replay
{
    s.putU64(curTick);
    s.putU64(nextSequence);
    s.putU64(serviced);
    s.putU64(queue.size());
    // Pending events in firing order, folded into one digest: the
    // identity of what remains to run is part of the state contract
    // even though the closures behind it cannot be serialized.
    Serializer pending;
    for (const Event *e : queue) {
        pending.putU64(e->when());
        pending.putU64(static_cast<std::uint64_t>(
            static_cast<std::int32_t>(e->priority())));
        pending.putU64(e->sequenceNumber());
        pending.putU64(fnv1a64(e->name()));
    }
    s.putU64(pending.digest());
}

void
EventQueue::runUntil(Tick until)
{
    while (!queue.empty() && (*queue.begin())->when() <= until)
        serviceOne();
    if (curTick < until)
        curTick = until;
}

} // namespace biglittle
