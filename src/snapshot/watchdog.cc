#include "snapshot/watchdog.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "base/logging.hh"
#include "base/strutil.hh"
#include "sim/eventq.hh"

namespace biglittle
{

namespace
{

double
nowSec()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

} // namespace

Watchdog::Watchdog(const WatchdogParams &params) : wp(params)
{
    BL_ASSERT(wp.stallLimitSec > 0.0);
    BL_ASSERT(wp.runawayLimitSec >= 0.0);
}

Watchdog::~Watchdog()
{
    stop();
}

void
Watchdog::start(EventQueue &queue)
{
    if (!wp.enabled || running.load())
        return;
    queuePtr = &queue;
    servicedSeen.store(queue.eventsServiced());
    lastTick.store(queue.now());
    running.store(true);
    monitor = std::thread([this] { run(); });
}

void
Watchdog::stop()
{
    // A non-exiting trip already cleared `running`; the thread still
    // needs joining, so key idempotence off joinable(), not the flag.
    {
        std::lock_guard<std::mutex> lock(wakeMutex);
        running.store(false);
    }
    wake.notify_all();
    if (monitor.joinable())
        monitor.join();
    queuePtr = nullptr;
}

void
Watchdog::heartbeat()
{
    if (!running.load() || queuePtr == nullptr)
        return;
    servicedSeen.store(queuePtr->eventsServiced());
    lastTick.store(queuePtr->now());

    // Copy the pending head while it is safe to read the queue (we
    // are on the simulation thread); the watchdog thread only ever
    // sees these copies, and only trip() formats them.
    std::lock_guard<std::mutex> lock(snapMutex);
    headCount = 0;
    queuePtr->visitHead(wp.ringDepth, [this](const Event &e) {
        if (headCount == head.size())
            head.emplace_back();
        TraceRecord &r = head[headCount++];
        r.when = e.when();
        r.priority = static_cast<std::int32_t>(e.priority());
        r.sequence = e.sequenceNumber();
        r.name = e.name();
    });
}

void
Watchdog::noteCheckpoint(std::vector<std::uint8_t> bytes)
{
    std::lock_guard<std::mutex> lock(snapMutex);
    checkpointBytes = std::move(bytes);
}

void
Watchdog::run()
{
    const double started = nowSec();
    double lastProgressAt = started;
    std::uint64_t lastServiced = servicedSeen.load();

    while (true) {
        {
            std::unique_lock<std::mutex> lock(wakeMutex);
            if (wake.wait_for(lock, std::chrono::milliseconds(50),
                              [this] { return !running.load(); }))
                return;
        }
        const double now = nowSec();
        const std::uint64_t serviced = servicedSeen.load();
        if (serviced != lastServiced) {
            lastServiced = serviced;
            lastProgressAt = now;
        }
        if (now - lastProgressAt > wp.stallLimitSec) {
            trip(format("no event progress for %.1f wall seconds "
                        "(stall limit %.1f s)",
                        now - lastProgressAt, wp.stallLimitSec));
            return;
        }
        if (wp.runawayLimitSec > 0.0 &&
            now - started > wp.runawayLimitSec) {
            trip(format("run exceeded %.1f wall seconds "
                        "(runaway limit)",
                        wp.runawayLimitSec));
            return;
        }
    }
}

void
Watchdog::trip(const std::string &reason)
{
    std::string pending;
    std::vector<std::uint8_t> ckpt;
    {
        std::lock_guard<std::mutex> lock(snapMutex);
        for (std::size_t i = 0; i < headCount; ++i)
            pending += "  " + head[i].describe() + "\n";
        ckpt = checkpointBytes;
    }

    std::string report = "watchdog trip: " + reason + "\n";
    report += format(
        "last simulated tick: %llu\nevents serviced: %llu\n",
        static_cast<unsigned long long>(lastTick.load()),
        static_cast<unsigned long long>(servicedSeen.load()));
    if (!ckpt.empty() && !wp.reportPath.empty()) {
        report += "last checkpoint: " + wp.reportPath + ".ckpt\n";
    }
    report += pending.empty()
        ? "no pending events captured\n"
        : "pending events at the last heartbeat (firing order):\n" +
            pending;

    std::fprintf(stderr, "%s", report.c_str());
    if (!wp.reportPath.empty()) {
        std::ofstream out(wp.reportPath, std::ios::trunc);
        if (out)
            out << report;
        if (!ckpt.empty()) {
            std::ofstream cout_file(wp.reportPath + ".ckpt",
                                    std::ios::binary | std::ios::trunc);
            if (cout_file) {
                cout_file.write(
                    reinterpret_cast<const char *>(ckpt.data()),
                    static_cast<std::streamsize>(ckpt.size()));
            }
        }
    }

    tripCount.fetch_add(1);
    if (exitOnTrip) {
        // The simulation thread is wedged; a clean shutdown would
        // block on it forever.  Flush what we wrote and die with a
        // recognizable code.
        std::fflush(nullptr);
        std::_Exit(watchdogExitCode);
    }
    std::lock_guard<std::mutex> lock(wakeMutex);
    running.store(false);
}

} // namespace biglittle
