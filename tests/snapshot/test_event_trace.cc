/**
 * @file
 * Tests for event-trace recording and replay comparison: file format
 * round trips, trace diffing, the live recorder on a real event
 * queue, and first-divergence reporting.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "sim/event.hh"
#include "sim/simulation.hh"
#include "snapshot/event_trace.hh"

using namespace biglittle;

namespace
{

TraceRecord
rec(Tick when, std::uint64_t seq, const std::string &name)
{
    TraceRecord r;
    r.when = when;
    r.priority = 0;
    r.sequence = seq;
    r.name = name;
    return r;
}

EventTrace
sampleTrace()
{
    EventTrace t;
    t.records = {rec(100, 0, "a"), rec(200, 1, "b"),
                 rec(200, 2, "c")};
    return t;
}

} // namespace

TEST(TraceRecord, PayloadHashCoversEveryField)
{
    const TraceRecord base = rec(100, 7, "tick");
    EXPECT_EQ(base.payloadHash(), rec(100, 7, "tick").payloadHash());

    TraceRecord t = base;
    t.when = 101;
    EXPECT_NE(t.payloadHash(), base.payloadHash());
    t = base;
    t.sequence = 8;
    EXPECT_NE(t.payloadHash(), base.payloadHash());
    t = base;
    t.priority = 1;
    EXPECT_NE(t.payloadHash(), base.payloadHash());
    t = base;
    t.name = "tock";
    EXPECT_NE(t.payloadHash(), base.payloadHash());
}

TEST(EventTrace, EncodeDecodeRoundTrip)
{
    const EventTrace t = sampleTrace();
    const Result<EventTrace> back = EventTrace::decode(t.encode());
    ASSERT_TRUE(back.ok()) << back.status().message();
    ASSERT_EQ(back.value().records.size(), 3u);
    EXPECT_TRUE(back.value().records[0] == t.records[0]);
    EXPECT_TRUE(back.value().records[2] == t.records[2]);
    EXPECT_EQ(back.value().encode(), t.encode());
}

TEST(EventTrace, EmptyTraceRoundTrips)
{
    const EventTrace t;
    const Result<EventTrace> back = EventTrace::decode(t.encode());
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(back.value().records.empty());
}

TEST(EventTrace, CorruptionIsRejected)
{
    auto bytes = sampleTrace().encode();
    bytes[bytes.size() / 2] ^= 0x40;
    EXPECT_FALSE(EventTrace::decode(bytes).ok());
}

TEST(EventTrace, TruncationIsRejected)
{
    auto bytes = sampleTrace().encode();
    bytes.resize(bytes.size() - 3);
    EXPECT_FALSE(EventTrace::decode(bytes).ok());
}

TEST(EventTrace, FileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "bl_trace_rt.bin";
    const EventTrace t = sampleTrace();
    ASSERT_TRUE(t.writeFile(path).ok());
    const Result<EventTrace> back = EventTrace::readFile(path);
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_EQ(back.value().encode(), t.encode());
    std::remove(path.c_str());
}

TEST(EventTrace, MissingFileFailsGracefully)
{
    EXPECT_FALSE(EventTrace::readFile("/nonexistent/t.bin").ok());
}

TEST(CompareTraces, IdenticalTracesMatch)
{
    EXPECT_FALSE(
        compareTraces(sampleTrace(), sampleTrace()).has_value());
}

TEST(CompareTraces, FirstDifferenceIsLatched)
{
    const EventTrace a = sampleTrace();
    EventTrace b = sampleTrace();
    b.records[1].name = "B";
    b.records[2].name = "C"; // later fallout must not mask #1
    const auto div = compareTraces(a, b);
    ASSERT_TRUE(div.has_value());
    EXPECT_EQ(div->index, 1u);
    ASSERT_TRUE(div->expected.has_value());
    ASSERT_TRUE(div->actual.has_value());
    EXPECT_EQ(div->expected->name, "b");
    EXPECT_EQ(div->actual->name, "B");
}

TEST(CompareTraces, PrematureEndIsADivergence)
{
    const EventTrace a = sampleTrace();
    EventTrace b = sampleTrace();
    b.records.pop_back();
    const auto div = compareTraces(a, b);
    ASSERT_TRUE(div.has_value());
    EXPECT_EQ(div->index, 2u);
    EXPECT_TRUE(div->expected.has_value());
    EXPECT_FALSE(div->actual.has_value());
}

TEST(CompareTraces, ExtraEventIsADivergence)
{
    const EventTrace a = sampleTrace();
    EventTrace b = sampleTrace();
    b.records.push_back(rec(300, 3, "extra"));
    const auto div = compareTraces(a, b);
    ASSERT_TRUE(div.has_value());
    EXPECT_EQ(div->index, 3u);
    EXPECT_FALSE(div->expected.has_value());
    ASSERT_TRUE(div->actual.has_value());
    EXPECT_EQ(div->actual->name, "extra");
}

TEST(Divergence, DescribeNamesTheFirstDivergingEvent)
{
    const auto div = compareTraces(sampleTrace(), [] {
        EventTrace b = sampleTrace();
        b.records[1].name = "B";
        return b;
    }());
    ASSERT_TRUE(div.has_value());
    const std::string text = div->describe();
    EXPECT_NE(text.find("first divergence"), std::string::npos);
    EXPECT_NE(text.find("#1"), std::string::npos);
    EXPECT_NE(text.find("'b'"), std::string::npos);
    EXPECT_NE(text.find("'B'"), std::string::npos);
}

TEST(EventTraceRecorder, CapturesServicedEventsInOrder)
{
    Simulation sim;
    EventTraceRecorder recorder;
    recorder.attach(sim.eventQueue());

    int fired = 0;
    CallbackEvent a([&] { ++fired; }, EventPriority::deferred, "ev.a");
    CallbackEvent b([&] { ++fired; }, EventPriority::deferred, "ev.b");
    sim.eventQueue().schedule(a, 100);
    sim.eventQueue().schedule(b, 50);
    sim.runUntil(200);
    recorder.detach();

    ASSERT_EQ(fired, 2);
    const EventTrace &t = recorder.trace();
    ASSERT_EQ(t.records.size(), 2u);
    EXPECT_EQ(t.records[0].name, "ev.b");
    EXPECT_EQ(t.records[0].when, 50u);
    EXPECT_EQ(t.records[1].name, "ev.a");
    EXPECT_EQ(t.records[1].when, 100u);
    // Sequence numbers reflect schedule order, not firing order.
    EXPECT_EQ(t.records[0].sequence, 1u);
    EXPECT_EQ(t.records[1].sequence, 0u);
}

TEST(EventTraceRecorder, NamesOutliveSelfDeletingEvents)
{
    // The queue hands the hook a view of the event's name; a one-shot
    // deletes itself after firing, so the recorder must copy it.
    Simulation sim;
    EventTraceRecorder recorder;
    recorder.attach(sim.eventQueue());
    sim.at(10, [] {}, EventPriority::deferred, "ev.one-shot");
    sim.runUntil(20);
    recorder.detach();

    ASSERT_EQ(recorder.trace().records.size(), 1u);
    EXPECT_EQ(recorder.trace().records[0].name, "ev.one-shot");
}

TEST(EventTraceRecorder, DetachStopsRecording)
{
    Simulation sim;
    EventTraceRecorder recorder;
    recorder.attach(sim.eventQueue());

    CallbackEvent a([] {}, EventPriority::deferred, "ev.a");
    sim.eventQueue().schedule(a, 10);
    sim.runUntil(20);
    recorder.detach();

    CallbackEvent b([] {}, EventPriority::deferred, "ev.b");
    sim.eventQueue().schedule(b, 30);
    sim.runUntil(40);
    EXPECT_EQ(recorder.trace().records.size(), 1u);
}
