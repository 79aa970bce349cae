/**
 * @file
 * Tests for Simulation: one-shot callbacks, periodic tasks, period
 * changes, cancellation, and run control.
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/strutil.hh"
#include "sim/simulation.hh"

using namespace biglittle;

TEST(Simulation, OneShotAtAbsoluteTime)
{
    Simulation sim;
    std::vector<Tick> fired;
    sim.at(100, [&] { fired.push_back(sim.now()); });
    sim.runUntil(200);
    EXPECT_EQ(fired, (std::vector<Tick>{100}));
}

TEST(Simulation, OneShotAfterDelay)
{
    Simulation sim;
    sim.runUntil(50);
    std::vector<Tick> fired;
    sim.after(25, [&] { fired.push_back(sim.now()); });
    sim.runFor(100);
    EXPECT_EQ(fired, (std::vector<Tick>{75}));
    EXPECT_EQ(sim.now(), 150u);
}

TEST(Simulation, PeriodicFiresEveryPeriod)
{
    Simulation sim;
    std::vector<Tick> fired;
    PeriodicTask &task = sim.addPeriodic(
        10, [&](Tick now) { fired.push_back(now); },
        EventPriority::stats, "tick");
    task.start();
    sim.runUntil(45);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20, 30, 40}));
}

TEST(Simulation, PeriodicWithPhaseOffset)
{
    Simulation sim;
    std::vector<Tick> fired;
    PeriodicTask &task = sim.addPeriodic(
        10, [&](Tick now) { fired.push_back(now); },
        EventPriority::stats, "tick");
    task.start(/*phase=*/3);
    sim.runUntil(35);
    EXPECT_EQ(fired, (std::vector<Tick>{13, 23, 33}));
}

TEST(Simulation, PeriodicCancelStopsFiring)
{
    Simulation sim;
    int count = 0;
    PeriodicTask &task = sim.addPeriodic(
        10, [&](Tick) { ++count; }, EventPriority::stats, "tick");
    task.start();
    sim.runUntil(25);
    task.cancel();
    sim.runUntil(100);
    EXPECT_EQ(count, 2);
    task.cancel(); // idempotent
}

TEST(Simulation, PeriodicRestartAfterCancel)
{
    Simulation sim;
    std::vector<Tick> fired;
    PeriodicTask &task = sim.addPeriodic(
        10, [&](Tick now) { fired.push_back(now); },
        EventPriority::stats, "tick");
    task.start();
    sim.runUntil(15);
    task.cancel();
    sim.runUntil(50);
    task.start();
    sim.runUntil(75);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 60, 70}));
}

TEST(Simulation, PeriodicSetPeriodTakesEffectNextFire)
{
    Simulation sim;
    std::vector<Tick> fired;
    PeriodicTask &task = sim.addPeriodic(
        10, [&](Tick now) { fired.push_back(now); },
        EventPriority::stats, "tick");
    task.start();
    sim.runUntil(10);
    task.setPeriod(30);
    sim.runUntil(100);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 40, 70, 100}));
    EXPECT_EQ(task.period(), 30u);
}

TEST(Simulation, PeriodicCallbackMayRestartItself)
{
    Simulation sim;
    std::vector<Tick> fired;
    PeriodicTask *taskp = nullptr;
    PeriodicTask &task = sim.addPeriodic(
        10,
        [&](Tick now) {
            fired.push_back(now);
            if (fired.size() == 1) {
                taskp->cancel();
                taskp->start(5); // next at now + 10 + 5
            }
        },
        EventPriority::stats, "tick");
    taskp = &task;
    task.start();
    sim.runUntil(40);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 25, 35}));
}

TEST(Simulation, RunForAdvancesRelative)
{
    Simulation sim;
    sim.runFor(100);
    EXPECT_EQ(sim.now(), 100u);
    sim.runFor(50);
    EXPECT_EQ(sim.now(), 150u);
}

TEST(Simulation, NestedOneShots)
{
    Simulation sim;
    std::vector<int> log;
    sim.at(10, [&] {
        log.push_back(1);
        sim.after(5, [&] { log.push_back(2); });
    });
    sim.runUntil(20);
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(Simulation, ManyPeriodicsInterleaveDeterministically)
{
    Simulation sim;
    std::vector<std::pair<Tick, int>> log;
    for (int i = 0; i < 3; ++i) {
        sim.addPeriodic(
               10, [&log, i](Tick now) { log.emplace_back(now, i); },
               EventPriority::stats, format("t%d", i))
            .start();
    }
    sim.runUntil(20);
    // Same tick: creation order is preserved via sequence numbers.
    ASSERT_EQ(log.size(), 6u);
    EXPECT_EQ(log[0], (std::pair<Tick, int>{10, 0}));
    EXPECT_EQ(log[1], (std::pair<Tick, int>{10, 1}));
    EXPECT_EQ(log[2], (std::pair<Tick, int>{10, 2}));
}
