/**
 * @file
 * Tests for the wall-clock watchdog: stall and runaway trips, the
 * report + checkpoint-dump contents, the non-zero exit code, and the
 * disabled/healthy paths.  Trip paths use short limits so the whole
 * file runs in well under a second per test.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "sim/event.hh"
#include "sim/simulation.hh"
#include "snapshot/watchdog.hh"

using namespace biglittle;

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Service a couple of events so the run makes progress. */
void
serviceSomeEvents(Simulation &sim)
{
    CallbackEvent a([] {}, EventPriority::deferred, "ev.visible");
    CallbackEvent b([] {}, EventPriority::deferred, "ev.last");
    sim.eventQueue().schedule(a, sim.now() + 10);
    sim.eventQueue().schedule(b, sim.now() + 20);
    sim.runUntil(sim.now() + 30);
}

/** Poll until the watchdog trips (bounded; limits are ~100 ms). */
void
awaitTrip(const Watchdog &dog)
{
    for (int i = 0; i < 200 && dog.trips() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

} // namespace

TEST(Watchdog, StallTripWritesReportAndCheckpoint)
{
    const std::string report =
        ::testing::TempDir() + "bl_watchdog_stall.txt";
    std::remove(report.c_str());
    std::remove((report + ".ckpt").c_str());

    Simulation sim;
    WatchdogParams params;
    params.enabled = true;
    params.stallLimitSec = 0.1;
    params.reportPath = report;
    Watchdog dog(params);
    dog.setExitOnTrip(false);
    dog.start(sim.eventQueue());

    // One event is serviced before the heartbeat and two are still
    // pending at it.
    EventQueue &queue = sim.eventQueue();
    CallbackEvent done([] {}, EventPriority::deferred, "ev.serviced");
    CallbackEvent later([] {}, EventPriority::deferred, "ev.later");
    CallbackEvent next([] {}, EventPriority::deferred, "ev.next");
    queue.schedule(done, 10);
    queue.schedule(later, 30);
    queue.schedule(next, 20);
    sim.runUntil(15);
    dog.heartbeat();
    dog.noteCheckpoint({0xDE, 0xAD, 0xBE, 0xEF});

    awaitTrip(dog); // no further heartbeats: a stall
    EXPECT_EQ(dog.trips(), 1u);
    dog.stop();

    const std::string text = slurp(report);
    EXPECT_NE(text.find("watchdog trip"), std::string::npos);
    EXPECT_NE(text.find("stall limit"), std::string::npos);
    EXPECT_NE(text.find("events serviced: 1"), std::string::npos);
    // The dump names what the run was about to do, in firing order,
    // and nothing it already did.
    const std::size_t next_at = text.find("'ev.next'");
    const std::size_t later_at = text.find("'ev.later'");
    ASSERT_NE(next_at, std::string::npos) << text;
    ASSERT_NE(later_at, std::string::npos) << text;
    EXPECT_LT(next_at, later_at) << text;
    EXPECT_EQ(text.find("ev.serviced"), std::string::npos) << text;

    const std::string ckpt = slurp(report + ".ckpt");
    EXPECT_EQ(ckpt, std::string("\xDE\xAD\xBE\xEF"));

    std::remove(report.c_str());
    std::remove((report + ".ckpt").c_str());
}

TEST(Watchdog, RunawayTripDespiteProgress)
{
    const std::string report =
        ::testing::TempDir() + "bl_watchdog_runaway.txt";
    std::remove(report.c_str());

    Simulation sim;
    WatchdogParams params;
    params.enabled = true;
    params.stallLimitSec = 60.0; // never stalls in this test
    params.runawayLimitSec = 0.1;
    params.reportPath = report;
    Watchdog dog(params);
    dog.setExitOnTrip(false);
    dog.start(sim.eventQueue());

    // Keep making progress; the runaway limit must trip anyway.
    for (int i = 0; i < 100 && dog.trips() == 0; ++i) {
        serviceSomeEvents(sim);
        dog.heartbeat();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    awaitTrip(dog);
    EXPECT_EQ(dog.trips(), 1u);
    dog.stop();

    EXPECT_NE(slurp(report).find("runaway limit"), std::string::npos);
    std::remove(report.c_str());
}

TEST(Watchdog, HealthyRunNeverTrips)
{
    Simulation sim;
    WatchdogParams params;
    params.enabled = true;
    params.stallLimitSec = 0.15;
    Watchdog dog(params);
    dog.setExitOnTrip(false);
    dog.start(sim.eventQueue());

    for (int i = 0; i < 30; ++i) {
        serviceSomeEvents(sim);
        dog.heartbeat();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    dog.stop();
    EXPECT_EQ(dog.trips(), 0u);
}

TEST(Watchdog, DisabledWatchdogIsInert)
{
    Simulation sim;
    WatchdogParams params; // enabled defaults to false
    params.stallLimitSec = 0.05;
    Watchdog dog(params);
    dog.start(sim.eventQueue());
    dog.heartbeat();
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    dog.stop();
    EXPECT_EQ(dog.trips(), 0u);
}

TEST(Watchdog, StopBeforeTripIsClean)
{
    Simulation sim;
    WatchdogParams params;
    params.enabled = true;
    params.stallLimitSec = 30.0;
    Watchdog dog(params);
    dog.start(sim.eventQueue());
    dog.heartbeat();
    dog.stop();
    EXPECT_EQ(dog.trips(), 0u);
}

TEST(WatchdogDeathTest, StallExitsWithWatchdogCode)
{
    // The production path: a stalled simulation thread is converted
    // into a diagnosable process exit with the reserved code.
    EXPECT_EXIT(
        {
            Simulation sim;
            WatchdogParams params;
            params.enabled = true;
            params.stallLimitSec = 0.1;
            Watchdog dog(params);
            dog.start(sim.eventQueue());
            dog.heartbeat();
            std::this_thread::sleep_for(std::chrono::seconds(10));
        },
        ::testing::ExitedWithCode(watchdogExitCode), "watchdog trip");
}
