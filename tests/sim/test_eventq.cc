/**
 * @file
 * Tests for the discrete-event queue: ordering, rescheduling,
 * determinism of same-tick events, and time advancement.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "base/serialize.hh"
#include "sim/eventq.hh"

using namespace biglittle;

namespace
{

/** Event that records its firing order into a shared log. */
class LogEvent : public Event
{
  public:
    LogEvent(std::vector<int> &log, int id,
             EventPriority prio = EventPriority::deferred)
        : Event(prio), log(log), id(id)
    {
    }

    void process() override { log.push_back(id); }

  private:
    std::vector<int> &log;
    int id;
};

} // namespace

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.now(), 0u);
    EXPECT_EQ(q.nextTick(), maxTick);
    EXPECT_FALSE(q.serviceOne());
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1), b(log, 2), c(log, 3);
    q.schedule(a, 300);
    q.schedule(b, 100);
    q.schedule(c, 200);
    while (q.serviceOne()) {
    }
    EXPECT_EQ(log, (std::vector<int>{2, 3, 1}));
    EXPECT_EQ(q.now(), 300u);
}

TEST(EventQueue, SameTickOrderedByPriority)
{
    EventQueue q;
    std::vector<int> log;
    LogEvent stats(log, 3, EventPriority::stats);
    LogEvent sched(log, 1, EventPriority::schedTick);
    LogEvent task(log, 0, EventPriority::taskState);
    LogEvent gov(log, 2, EventPriority::governor);
    q.schedule(stats, 50);
    q.schedule(sched, 50);
    q.schedule(task, 50);
    q.schedule(gov, 50);
    while (q.serviceOne()) {
    }
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, SameTickSamePriorityFifo)
{
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1), b(log, 2), c(log, 3);
    q.schedule(a, 10);
    q.schedule(b, 10);
    q.schedule(c, 10);
    while (q.serviceOne()) {
    }
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1), b(log, 2);
    q.schedule(a, 10);
    q.schedule(b, 20);
    EXPECT_TRUE(a.scheduled());
    q.deschedule(a);
    EXPECT_FALSE(a.scheduled());
    while (q.serviceOne()) {
    }
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1), b(log, 2);
    q.schedule(a, 10);
    q.schedule(b, 20);
    q.reschedule(a, 30); // now after b
    while (q.serviceOne()) {
    }
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RescheduleWorksOnIdleEvent)
{
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1);
    q.reschedule(a, 5); // never scheduled before: acts as schedule
    EXPECT_TRUE(a.scheduled());
    q.serviceOne();
    EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(EventQueue, RunUntilStopsAtBoundaryAndParksClock)
{
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1), b(log, 2);
    q.schedule(a, 100);
    q.schedule(b, 200);
    q.runUntil(150);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(q.now(), 150u);
    q.runUntil(250);
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now(), 250u);
}

TEST(EventQueue, EventAtBoundaryIsIncluded)
{
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1);
    q.schedule(a, 100);
    q.runUntil(100);
    EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(EventQueue, EventsScheduledDuringProcessingFire)
{
    EventQueue q;
    std::vector<int> log;
    LogEvent inner(log, 2);
    CallbackEvent outer([&] {
        log.push_back(1);
        q.schedule(inner, q.now() + 10);
    });
    q.schedule(outer, 5);
    q.runUntil(100);
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, DestructorOfScheduledEventDetaches)
{
    EventQueue q;
    std::vector<int> log;
    {
        LogEvent a(log, 1);
        q.schedule(a, 10);
        // destroyed while scheduled: must deregister cleanly
    }
    EXPECT_TRUE(q.empty());
    q.runUntil(20);
    EXPECT_TRUE(log.empty());
}

TEST(EventQueue, ServiceCountAccumulates)
{
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1), b(log, 2);
    q.schedule(a, 1);
    q.schedule(b, 2);
    q.runUntil(10);
    EXPECT_EQ(q.eventsServiced(), 2u);
}

TEST(EventQueueDeathTest, SchedulingInPastPanics)
{
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1), b(log, 2);
    q.schedule(a, 100);
    q.serviceOne();
    EXPECT_DEATH(q.schedule(b, 50), "before current tick");
}

TEST(EventQueueDeathTest, DoubleScheduleAsserts)
{
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1);
    q.schedule(a, 10);
    EXPECT_DEATH(q.schedule(a, 20), "assertion");
}

TEST(EventQueueDeathTest, DescheduleIdleEventAsserts)
{
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1);
    EXPECT_DEATH(q.deschedule(a), "assertion");
}

TEST(EventQueueDeathTest, DescheduleAfterFiringAsserts)
{
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1);
    q.schedule(a, 10);
    q.runUntil(10);
    // The event detached when it fired; descheduling it is misuse.
    EXPECT_DEATH(q.deschedule(a), "assertion");
}

TEST(EventQueueDeathTest, DescheduleFromWrongQueueAsserts)
{
    EventQueue q1;
    EventQueue q2;
    std::vector<int> log;
    LogEvent a(log, 1);
    q1.schedule(a, 10);
    EXPECT_DEATH(q2.deschedule(a), "assertion");
}

TEST(EventQueueDeathTest, RescheduleIntoPastPanics)
{
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1), b(log, 2);
    q.schedule(a, 100);
    q.schedule(b, 200);
    q.serviceOne(); // clock is now at 100
    EXPECT_DEATH(q.reschedule(b, 50), "before current tick");
}

TEST(CallbackEvent, RunsFunctionAndReportsName)
{
    EventQueue q;
    int runs = 0;
    CallbackEvent e([&] { ++runs; }, EventPriority::deferred,
                    "my-label");
    EXPECT_EQ(e.name(), "my-label");
    q.schedule(e, 10);
    q.runUntil(10);
    EXPECT_EQ(runs, 1);
    EXPECT_FALSE(e.scheduled());
}

TEST(EventQueue, SameTickSamePriorityFiresInScheduleOrder)
{
    // The monotonic sequence number is the final tie-breaker: ties
    // resolve in schedule order, never in pointer or hash order.
    EventQueue q;
    std::vector<int> log;
    std::vector<std::unique_ptr<LogEvent>> events;
    for (int i = 0; i < 32; ++i)
        events.push_back(std::make_unique<LogEvent>(log, i));
    // Schedule in reverse creation order to catch any accidental
    // dependence on construction/address order.
    for (int i = 31; i >= 0; --i)
        q.schedule(*events[i], 100);
    q.runUntil(100);

    std::vector<int> want;
    for (int i = 31; i >= 0; --i)
        want.push_back(i);
    EXPECT_EQ(log, want);
}

TEST(EventQueue, SequenceNumbersAreMonotonic)
{
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1), b(log, 2);
    EXPECT_EQ(q.nextSequenceValue(), 0u);
    q.schedule(a, 10);
    EXPECT_EQ(q.nextSequenceValue(), 1u);
    q.schedule(b, 20);
    EXPECT_EQ(q.nextSequenceValue(), 2u);
    q.runUntil(20);
    // Servicing never reuses sequence numbers.
    LogEvent c(log, 3);
    q.schedule(c, 30);
    EXPECT_EQ(q.nextSequenceValue(), 3u);
}

TEST(EventQueue, CountsServicedEvents)
{
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1), b(log, 2);
    q.schedule(a, 10);
    q.schedule(b, 20);
    EXPECT_EQ(q.eventsServiced(), 0u);
    q.runUntil(15);
    EXPECT_EQ(q.eventsServiced(), 1u);
    q.runUntil(25);
    EXPECT_EQ(q.eventsServiced(), 2u);
}

TEST(EventQueue, ServiceHookSeesEveryEventIdentity)
{
    EventQueue q;
    std::vector<int> log;
    std::vector<ServicedEvent> seen;
    q.setServiceHook(
        [&](const ServicedEvent &ev) { seen.push_back(ev); });
    LogEvent a(log, 1), b(log, 2);
    q.schedule(a, 10); // sequence 0
    q.schedule(b, 5); // sequence 1
    q.runUntil(20);

    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].when, 5u);
    EXPECT_EQ(seen[0].sequence, 1u);
    EXPECT_EQ(seen[1].when, 10u);
    EXPECT_EQ(seen[1].sequence, 0u);

    // Clearing the hook stops delivery.
    q.setServiceHook(nullptr);
    LogEvent c(log, 3);
    q.schedule(c, 30);
    q.runUntil(30);
    EXPECT_EQ(seen.size(), 2u);
}

TEST(EventQueue, VisitHeadSeesFirstPendingInFiringOrder)
{
    EventQueue q;
    std::vector<int> log;
    LogEvent late(log, 0), gov(log, 1, EventPriority::governor),
        first(log, 2), task(log, 3, EventPriority::taskState),
        second(log, 4);
    q.schedule(late, 30);
    q.schedule(gov, 20);
    q.schedule(first, 20);
    q.schedule(task, 20);
    q.schedule(second, 20);

    // Tick, then priority, then schedule order within a priority.
    std::vector<const Event *> seen;
    q.visitHead(4, [&](const Event &e) { seen.push_back(&e); });
    const std::vector<const Event *> want{&task, &gov, &first, &second};
    EXPECT_EQ(seen, want);

    // A longer visit stops at the queue's end, and visiting changes
    // nothing: the queue then fires in the visited order.
    seen.clear();
    q.visitHead(10, [&](const Event &e) { seen.push_back(&e); });
    ASSERT_EQ(seen.size(), 5u);
    EXPECT_EQ(seen.back(), &late);
    EXPECT_EQ(q.size(), 5u);
    EXPECT_EQ(q.eventsServiced(), 0u);
    q.runUntil(30);
    EXPECT_EQ(log, (std::vector<int>{3, 1, 2, 4, 0}));
}

TEST(EventQueue, SerializeIsDeterministicAcrossIdenticalRuns)
{
    const auto run = [](Serializer &s) {
        EventQueue q;
        std::vector<int> log;
        LogEvent a(log, 1), b(log, 2), c(log, 3);
        q.schedule(a, 10);
        q.schedule(b, 50);
        q.schedule(c, 90);
        q.runUntil(40); // a fired; b and c still pending
        q.serialize(s);
    };
    Serializer s1, s2;
    run(s1);
    run(s2);
    EXPECT_FALSE(s1.bytes().empty());
    EXPECT_EQ(s1.bytes(), s2.bytes());
}

TEST(EventQueue, SerializeReflectsPendingEvents)
{
    // A queue with a different pending set must serialize different
    // bytes - the digest covers the events still in flight.
    EventQueue q1;
    std::vector<int> log;
    LogEvent a1(log, 1), b1(log, 2);
    q1.schedule(a1, 10);
    q1.schedule(b1, 50);
    q1.runUntil(20);
    Serializer s1;
    q1.serialize(s1);

    EventQueue q2;
    LogEvent a2(log, 1), b2(log, 2);
    q2.schedule(a2, 10);
    q2.schedule(b2, 70); // pending event at a different tick
    q2.runUntil(20);
    Serializer s2;
    q2.serialize(s2);

    EXPECT_NE(s1.bytes(), s2.bytes());
}

TEST(EventQueue, RescheduleToSameTickGoesToBackOfBatch)
{
    // Documented same-tick semantic: reschedule() re-inserts through
    // schedule(), so the event gets a fresh sequence number and
    // re-enters at the BACK of its (when, priority) batch.
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1), b(log, 2), c(log, 3);
    q.schedule(a, 10);
    q.schedule(b, 10);
    q.schedule(c, 10);
    q.reschedule(a, 10); // same tick: a moves behind b and c
    while (q.serviceOne()) {
    }
    EXPECT_EQ(log, (std::vector<int>{2, 3, 1}));
}

TEST(EventQueue, RescheduleToNowNeverJumpsAhead)
{
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1), b(log, 2);
    LogEvent mover(log, 9);
    q.schedule(mover, 5);
    CallbackEvent driver([&] {
        // Fires at tick 10 before a and b (lower sequence).  Pulling
        // `mover` to "now" must place it behind the already-pending
        // same-tick peers, not ahead of them.
        log.push_back(0);
        q.reschedule(mover, q.now());
    });
    q.serviceOne(); // fire mover's original activation at 5
    q.schedule(driver, 10);
    q.schedule(a, 10);
    q.schedule(b, 10);
    while (q.serviceOne()) {
    }
    EXPECT_EQ(log, (std::vector<int>{9, 0, 1, 2, 9}));
}

TEST(EventQueue, ChurnDoesNotPerturbUntouchedEvents)
{
    // Heavy schedule/deschedule/reschedule churn on some events must
    // never change the relative order of the events left alone.
    EventQueue q;
    std::vector<int> log;
    std::vector<std::unique_ptr<LogEvent>> stable;
    for (int i = 0; i < 8; ++i) {
        stable.push_back(std::make_unique<LogEvent>(log, i));
        q.schedule(*stable.back(), 100);
    }
    LogEvent churn1(log, 100), churn2(log, 200);
    q.schedule(churn1, 100);
    q.deschedule(churn1);
    q.schedule(churn1, 50);
    q.reschedule(churn1, 100); // back of the tick-100 batch
    q.schedule(churn2, 70);
    q.reschedule(churn2, 100);
    q.reschedule(churn2, 100); // twice: still behind churn1
    while (q.serviceOne()) {
    }
    const std::vector<int> want{0, 1, 2, 3, 4, 5, 6, 7, 100, 200};
    EXPECT_EQ(log, want);
}

TEST(EventQueue, ServiceHookSeesSameTickBatchInTotalOrder)
{
    // Within one tick the hook must observe (priority, sequence)
    // order - the exact order process() runs in.
    EventQueue q;
    std::vector<ServicedEvent> seen;
    q.setServiceHook(
        [&](const ServicedEvent &ev) { seen.push_back(ev); });
    std::vector<int> log;
    LogEvent gov(log, 0, EventPriority::governor);
    LogEvent task1(log, 1, EventPriority::taskState);
    LogEvent task2(log, 2, EventPriority::taskState);
    LogEvent sched(log, 3, EventPriority::schedTick);
    q.schedule(gov, 40);
    q.schedule(task1, 40);
    q.schedule(task2, 40);
    q.schedule(sched, 40);
    q.runUntil(40);

    ASSERT_EQ(seen.size(), 4u);
    for (std::size_t i = 1; i < seen.size(); ++i) {
        const bool ordered =
            seen[i - 1].priority < seen[i].priority ||
            (seen[i - 1].priority == seen[i].priority &&
             seen[i - 1].sequence < seen[i].sequence);
        EXPECT_TRUE(ordered) << "hook order broken at " << i;
    }
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 0}));
    q.setServiceHook(nullptr);
}

TEST(EventQueue, LifoTieBreakReversesBatchOnly)
{
    EventQueue q;
    q.setTieBreak(TieBreak::lifo);
    std::vector<int> log;
    LogEvent a(log, 1), b(log, 2), c(log, 3);
    LogEvent later(log, 4);
    q.schedule(a, 10);
    q.schedule(b, 10);
    q.schedule(c, 10);
    q.schedule(later, 20); // different tick: unaffected by tie-break
    while (q.serviceOne()) {
    }
    EXPECT_EQ(log, (std::vector<int>{3, 2, 1, 4}));
}

TEST(EventQueue, LifoRespectsPriorityBoundaries)
{
    // The tie-break only permutes within a (when, priority) batch;
    // priority order across batches is inviolable.
    EventQueue q;
    q.setTieBreak(TieBreak::lifo);
    std::vector<int> log;
    LogEvent t1(log, 1, EventPriority::taskState);
    LogEvent t2(log, 2, EventPriority::taskState);
    LogEvent s1(log, 3, EventPriority::stats);
    LogEvent s2(log, 4, EventPriority::stats);
    q.schedule(t1, 10);
    q.schedule(t2, 10);
    q.schedule(s1, 10);
    q.schedule(s2, 10);
    while (q.serviceOne()) {
    }
    EXPECT_EQ(log, (std::vector<int>{2, 1, 4, 3}));
}

TEST(EventQueue, ShuffleTieBreakIsSeedDeterministic)
{
    const auto run = [](std::uint64_t seed) {
        EventQueue q;
        q.setTieBreak(TieBreak::shuffle, seed);
        std::vector<int> log;
        std::vector<std::unique_ptr<LogEvent>> events;
        for (int i = 0; i < 16; ++i) {
            events.push_back(std::make_unique<LogEvent>(log, i));
            q.schedule(*events.back(), 10);
        }
        while (q.serviceOne()) {
        }
        return log;
    };
    const auto first = run(7);
    EXPECT_EQ(first, run(7)); // same seed: identical order
    std::vector<int> sorted = first;
    std::sort(sorted.begin(), sorted.end());
    std::vector<int> want;
    for (int i = 0; i < 16; ++i)
        want.push_back(i);
    EXPECT_EQ(sorted, want); // a permutation: nothing lost or duped
}
