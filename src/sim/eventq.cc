#include "sim/eventq.hh"

#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/serialize.hh"
#include "sim/abrace.hh"

namespace biglittle
{

namespace
{

/** Sequence numbers share the key with an 8-bit priority. */
constexpr std::uint64_t sequenceLimit = std::uint64_t{1} << 56;

std::uint64_t
keyOf(const Event &event)
{
    return static_cast<std::uint64_t>(event.priority()) << 56 |
           event.sequenceNumber();
}

[[noreturn]] void
pastPanic(const Event &event, Tick when, Tick now)
{
    panic("scheduling event '%s' at %llu, before current tick %llu",
          event.name().c_str(), static_cast<unsigned long long>(when),
          static_cast<unsigned long long>(now));
}

} // namespace

EventQueue::~EventQueue()
{
    // Detach any events still pending so their destructors do not
    // dereference a dead queue, then let self-owning events free
    // themselves (orphaned() may `delete this`, so iterate a copy).
    // Storage order is fine here: orphaned() only frees.
    std::vector<Slot> pending;
    pending.swap(heap);
    for (const Slot &s : pending)
        s.event->queue = nullptr;
    for (const Slot &s : pending)
        s.event->orphaned();
}

void
EventQueue::place(std::size_t i, const Slot &slot)
{
    heap[i] = slot;
    slot.event->heapSlot = i;
}

void
EventQueue::siftUp(std::size_t i)
{
    const Slot moving = heap[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / arity;
        if (!before(moving, heap[parent]))
            break;
        place(i, heap[parent]);
        i = parent;
    }
    place(i, moving);
}

void
EventQueue::siftDown(std::size_t i)
{
    const Slot moving = heap[i];
    const std::size_t n = heap.size();
    while (true) {
        const std::size_t first = firstChild(i);
        if (first >= n)
            break;
        const std::size_t end = std::min(first + arity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < end; ++c) {
            if (before(heap[c], heap[best]))
                best = c;
        }
        if (!before(heap[best], moving))
            break;
        place(i, heap[best]);
        i = best;
    }
    place(i, moving);
}

void
EventQueue::resift(std::size_t i)
{
    if (i > 0 && before(heap[i], heap[(i - 1) / arity]))
        siftUp(i);
    else
        siftDown(i);
}

void
EventQueue::push(const Slot &slot)
{
    heap.push_back(slot);
    siftUp(heap.size() - 1);
}

EventQueue::Slot
EventQueue::removeAt(std::size_t i)
{
    const Slot removed = heap[i];
    const Slot last = heap.back();
    heap.pop_back();
    if (i < heap.size()) {
        place(i, last);
        resift(i);
    }
    return removed;
}

void
EventQueue::schedule(Event &event, Tick when)
{
    BL_ASSERT(event.queue == nullptr);
    if (when < curTick)
        pastPanic(event, when, curTick);
    BL_ASSERT(nextSequence < sequenceLimit);
    event.whenTick = when;
    event.sequence = nextSequence++;
    event.queue = this;
    push({when, keyOf(event), &event});
    if (race)
        race->onScheduled(event, curTick);
}

void
EventQueue::deschedule(Event &event)
{
    BL_ASSERT(event.queue == this);
    BL_ASSERT(heap[event.heapSlot].event == &event);
    removeAt(event.heapSlot);
    event.queue = nullptr;
    if (race)
        race->onDescheduled(event);
}

void
EventQueue::reschedule(Event &event, Tick when)
{
    if (event.queue == nullptr) {
        schedule(event, when);
        return;
    }
    // Deschedule + schedule, done in place: the slot takes the new
    // key and sifts whichever way it now belongs.
    BL_ASSERT(event.queue == this);
    if (when < curTick)
        pastPanic(event, when, curTick);
    BL_ASSERT(nextSequence < sequenceLimit);
    if (race)
        race->onDescheduled(event);
    event.whenTick = when;
    event.sequence = nextSequence++;
    heap[event.heapSlot].when = when;
    heap[event.heapSlot].key = keyOf(event);
    resift(event.heapSlot);
    if (race)
        race->onScheduled(event, curTick);
}

Tick
EventQueue::nextTick() const
{
    return heap.empty() ? maxTick : heap.front().when;
}

bool
EventQueue::serviceOne()
{
    if (heap.empty())
        return false;
    Slot picked = removeAt(0);
    if (tieMode != TieBreak::fifo && !heap.empty() &&
        sameBatch(heap.front(), picked)) {
        // Permuted tie-break: pick a different member of the head's
        // same-(when, priority) batch.  Any pick is causally valid -
        // an event scheduled during this batch still fires after its
        // parent because it can only be picked on a later service.
        // The batch pops in sequence order; the rest go back with
        // their keys unchanged.
        batch.push_back(picked);
        while (!heap.empty() && sameBatch(heap.front(), picked))
            batch.push_back(removeAt(0));
        const std::size_t n = batch.size();
        const std::size_t pick = tieMode == TieBreak::lifo
            ? n - 1
            : static_cast<std::size_t>(tieRng.uniformInt(0, n - 1));
        picked = batch[pick];
        for (std::size_t i = 0; i < n; ++i) {
            if (i != pick)
                push(batch[i]);
        }
        batch.clear();
    }
    Event *event = picked.event;
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
                !heap.empty() && sameBatch(heap.front(), picked);
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
EventQueue::serialize(Serializer &s) const
{
    s.putU64(curTick);
    s.putU64(nextSequence);
    s.putU64(serviced);
    s.putU64(heap.size());
    // Pending events in firing order, folded into one digest: the
    // identity of what remains to run is part of the state contract
    // even though the closures behind it cannot be serialized.
    std::vector<Slot> ordered(heap);
    std::sort(ordered.begin(), ordered.end(), before);
    Serializer pending;
    for (const Slot &slot : ordered) {
        const Event *e = slot.event;
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
    while (!heap.empty() && heap.front().when <= until)
        serviceOne();
    if (curTick < until)
        curTick = until;
}

} // namespace biglittle
