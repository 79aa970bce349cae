/**
 * @file
 * RaceDetector unit tests: conflict detection over same-(tick,
 * priority) batches, causal-ordering exemption, the boundaries of
 * recording only events that can race, dedup/counting, provenance,
 * and the report format.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/abrace.hh"
#include "sim/simulation.hh"

using namespace biglittle;

namespace
{

/** Simulation with a detector attached for the fixture's lifetime. */
struct TrackedSim
{
    Simulation sim;
    RaceDetector race;

    TrackedSim() { sim.eventQueue().setRaceDetector(&race); }

    ~TrackedSim()
    {
        sim.eventQueue().setRaceDetector(nullptr);
    }

    void
    at(Tick when, const char *label, std::function<void()> fn,
       EventPriority prio = EventPriority::taskState)
    {
        sim.at(when, std::move(fn), prio, label);
    }

    void
    finish()
    {
        sim.runUntil(1000);
        race.finish();
    }
};

} // namespace

TEST(RaceDetector, WriteWriteConflictReported)
{
    TrackedSim t;
    t.at(10, "a", [&] { t.sim.noteWrite("comp", "field"); });
    t.at(10, "b", [&] { t.sim.noteWrite("comp", "field"); });
    t.finish();

    ASSERT_EQ(t.race.conflicts().size(), 1u);
    const RaceDetector::Conflict &c = t.race.conflicts()[0];
    EXPECT_EQ(c.eventA, "a");
    EXPECT_EQ(c.eventB, "b");
    EXPECT_EQ(c.cell, "comp/field");
    EXPECT_TRUE(c.writeA);
    EXPECT_TRUE(c.writeB);
    EXPECT_EQ(c.tick, 10u);
    EXPECT_EQ(c.key(), "a|b|comp/field");
}

TEST(RaceDetector, ReadWriteConflictReported)
{
    TrackedSim t;
    t.at(10, "reader", [&] { t.sim.noteRead("comp", "field"); });
    t.at(10, "writer", [&] { t.sim.noteWrite("comp", "field"); });
    t.finish();

    ASSERT_EQ(t.race.conflicts().size(), 1u);
    const RaceDetector::Conflict &c = t.race.conflicts()[0];
    EXPECT_FALSE(c.writeA);
    EXPECT_TRUE(c.writeB);
    EXPECT_NE(c.describe().find("read-write"), std::string::npos);
}

TEST(RaceDetector, ReadReadIsNotAConflict)
{
    TrackedSim t;
    t.at(10, "a", [&] { t.sim.noteRead("comp", "field"); });
    t.at(10, "b", [&] { t.sim.noteRead("comp", "field"); });
    t.finish();
    EXPECT_TRUE(t.race.conflicts().empty());
}

TEST(RaceDetector, DifferentCellsDoNotConflict)
{
    TrackedSim t;
    t.at(10, "a", [&] { t.sim.noteWrite("comp", "x"); });
    t.at(10, "b", [&] { t.sim.noteWrite("comp", "y"); });
    t.finish();
    EXPECT_TRUE(t.race.conflicts().empty());
}

TEST(RaceDetector, DifferentTickOrPriorityDoNotConflict)
{
    TrackedSim t;
    t.at(10, "a", [&] { t.sim.noteWrite("comp", "f"); });
    t.at(11, "b", [&] { t.sim.noteWrite("comp", "f"); });
    t.at(20, "c", [&] { t.sim.noteWrite("comp", "f"); },
         EventPriority::taskState);
    t.at(20, "d", [&] { t.sim.noteWrite("comp", "f"); },
         EventPriority::governor);
    t.finish();
    EXPECT_TRUE(t.race.conflicts().empty());
}

TEST(RaceDetector, CausallyOrderedEventsAreExempt)
{
    // a schedules b into its own batch: b is ordered after a, so
    // their shared cell is not contested.  c, scheduled up front, is
    // unordered with respect to both.
    TrackedSim t;
    t.at(10, "a", [&] {
        t.sim.noteWrite("comp", "f");
        t.at(10, "b", [&] { t.sim.noteWrite("comp", "f"); });
    });
    t.finish();
    EXPECT_TRUE(t.race.conflicts().empty());
    // a was alone when serviced and kept no access set, but both
    // events still count, exactly as if every event were recorded.
    EXPECT_EQ(t.race.batchesAnalyzed(), 1u);
    EXPECT_EQ(t.race.eventsTracked(), 2u);
}

TEST(RaceDetector, TransitiveCausalityIsExempt)
{
    TrackedSim t;
    t.at(10, "a", [&] {
        t.sim.noteWrite("comp", "f");
        t.at(10, "b", [&] {
            t.at(10, "c", [&] { t.sim.noteWrite("comp", "f"); });
        });
    });
    t.finish();
    EXPECT_TRUE(t.race.conflicts().empty());
}

TEST(RaceDetector, ScheduledChildStillConflictsWithUnrelatedPeer)
{
    TrackedSim t;
    t.at(10, "peer", [&] { t.sim.noteWrite("comp", "f"); });
    t.at(10, "a", [&] {
        t.at(10, "child", [&] { t.sim.noteWrite("comp", "f"); });
    });
    t.finish();
    // peer vs child are unordered (different parents).
    ASSERT_EQ(t.race.conflicts().size(), 1u);
    EXPECT_EQ(t.race.conflicts()[0].eventA, "peer");
    EXPECT_EQ(t.race.conflicts()[0].eventB, "child");
}

TEST(RaceDetector, LoneParentsChildrenRaceWithEachOther)
{
    // parent is alone in its batch when serviced, so it keeps no
    // access set.  Its two children are pending together: each is
    // ordered after parent but not after its sibling.
    TrackedSim t;
    t.at(10, "parent", [&] {
        t.sim.noteWrite("comp", "f");
        t.at(10, "child1", [&] { t.sim.noteWrite("comp", "f"); });
        t.at(10, "child2", [&] { t.sim.noteWrite("comp", "f"); });
    });
    t.finish();
    ASSERT_EQ(t.race.conflicts().size(), 1u);
    const RaceDetector::Conflict &c = t.race.conflicts()[0];
    EXPECT_EQ(c.eventA, "child1");
    EXPECT_EQ(c.eventB, "child2");
    EXPECT_EQ(c.cell, "comp/f");
    EXPECT_NE(c.provenanceA.find("during 'parent'"), std::string::npos);
    EXPECT_NE(c.provenanceB.find("during 'parent'"), std::string::npos);
    EXPECT_EQ(t.race.batchesAnalyzed(), 1u);
    EXPECT_EQ(t.race.eventsTracked(), 3u);
}

TEST(RaceDetector, ConflictKeyIsTheSameUnderEveryTieBreak)
{
    // Whichever event is serviced first sees its peer pending, so the
    // pair is recorded in every service order.
    const auto conflict = [](TieBreak mode, std::uint64_t seed) {
        TrackedSim t;
        t.sim.eventQueue().setTieBreak(mode, seed);
        t.at(10, "toy.add", [&] { t.sim.noteWrite("toy", "x"); });
        t.at(10, "toy.double", [&] { t.sim.noteWrite("toy", "x"); });
        t.finish();
        EXPECT_EQ(t.race.conflicts().size(), 1u);
        return t.race.conflicts().empty() ? RaceDetector::Conflict{}
                                          : t.race.conflicts()[0];
    };
    const std::string key = conflict(TieBreak::fifo, 1).key();
    EXPECT_EQ(key, "toy.add|toy.double|toy/x");
    const RaceDetector::Conflict lifo = conflict(TieBreak::lifo, 1);
    EXPECT_EQ(lifo.eventA, "toy.double");
    EXPECT_EQ(lifo.key(), key);
    std::set<std::string> served_first;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const RaceDetector::Conflict c = conflict(TieBreak::shuffle, seed);
        EXPECT_EQ(c.key(), key) << "seed " << seed;
        served_first.insert(c.eventA);
    }
    EXPECT_EQ(served_first.size(), 2u)
        << "shuffle seeds 1-8 should cover both service orders";
}

TEST(RaceDetector, OutsideScheduleAfterLoneEventIsNotCompared)
{
    // a is alone in its batch and ends the first runUntil() chunk.
    // The test then schedules b into a's (tick, priority) from
    // outside any handler.  The two were never pending together, so
    // no tie-break can reorder them, and only an event with a pending
    // peer keeps its access set: a|b|comp/f is not reported.  (A
    // detector that recorded every event would report it.)  Both
    // events still count as one analyzed batch.
    TrackedSim t;
    t.at(10, "a", [&] { t.sim.noteWrite("comp", "f"); });
    t.sim.runUntil(10);
    t.at(10, "b", [&] { t.sim.noteWrite("comp", "f"); });
    t.finish();
    EXPECT_TRUE(t.race.conflicts().empty());
    EXPECT_EQ(t.race.batchesAnalyzed(), 1u);
    EXPECT_EQ(t.race.eventsTracked(), 2u);
}

TEST(RaceDetector, DuplicateConflictsAreCountedOnce)
{
    TrackedSim t;
    for (Tick tick = 10; tick <= 30; tick += 10) {
        t.at(tick, "a", [&] { t.sim.noteWrite("comp", "f"); });
        t.at(tick, "b", [&] { t.sim.noteWrite("comp", "f"); });
    }
    t.finish();
    ASSERT_EQ(t.race.conflicts().size(), 1u);
    EXPECT_EQ(t.race.conflicts()[0].count, 3u);
    EXPECT_EQ(t.race.conflicts()[0].tick, 10u);
}

TEST(RaceDetector, ProvenanceNamesTheSchedulingEvent)
{
    TrackedSim t;
    t.at(10, "peer", [&] { t.sim.noteWrite("comp", "f"); });
    t.at(10, "parent", [&] {
        t.at(10, "child", [&] { t.sim.noteWrite("comp", "f"); });
    });
    t.finish();
    ASSERT_EQ(t.race.conflicts().size(), 1u);
    const RaceDetector::Conflict &c = t.race.conflicts()[0];
    EXPECT_NE(c.provenanceA.find("outside any event"),
              std::string::npos);
    EXPECT_NE(c.provenanceB.find("during 'parent'"),
              std::string::npos);
    const std::string report = t.race.report();
    EXPECT_NE(report.find("peer"), std::string::npos);
    EXPECT_NE(report.find("child"), std::string::npos);
    EXPECT_NE(report.find("comp/f"), std::string::npos);
    // Conflict keys are canonical: event names in sorted order.
    EXPECT_NE(report.find("child|peer|comp/f"), std::string::npos);
}

TEST(RaceDetector, AccessesOutsideEventsAreIgnored)
{
    TrackedSim t;
    t.sim.noteWrite("comp", "f"); // outside any handler
    t.at(10, "a", [&] { t.sim.noteWrite("comp", "f"); });
    t.finish();
    EXPECT_TRUE(t.race.conflicts().empty());
    EXPECT_EQ(t.race.eventsTracked(), 1u);
}

TEST(RaceDetector, WriteDominatesRead)
{
    TrackedSim t;
    t.at(10, "a", [&] {
        t.sim.noteRead("comp", "f");
        t.sim.noteWrite("comp", "f");
    });
    t.at(10, "b", [&] { t.sim.noteRead("comp", "f"); });
    t.finish();
    ASSERT_EQ(t.race.conflicts().size(), 1u);
    EXPECT_TRUE(t.race.conflicts()[0].writeA);
    EXPECT_FALSE(t.race.conflicts()[0].writeB);
}

TEST(RaceDetector, CleanRunReportIsEmpty)
{
    TrackedSim t;
    t.at(10, "a", [&] { t.sim.noteWrite("comp", "x"); });
    t.at(10, "b", [&] { t.sim.noteWrite("comp", "y"); });
    t.finish();
    EXPECT_EQ(t.race.report(), "");
    EXPECT_EQ(t.race.batchesAnalyzed(), 1u);
    EXPECT_EQ(t.race.eventsTracked(), 2u);
}
