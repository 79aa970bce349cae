/**
 * @file
 * abrun: the multi-seed run supervisor.
 *
 * A chaos sweep is a matrix of (app, seed) cells, each an independent
 * supervised experiment.  One cell dying must never take the sweep
 * down with it, so every cell forks into its own child process: the
 * child builds the config, runs Supervisor::run, writes its
 * RecoveryReport next to the sweep report, and exits through the
 * repo's exit-code taxonomy (base/exit_codes.hh):
 *
 *   0   the supervised run ended clean, recovered, or degraded
 *   1   the supervisor exhausted its escalation ladder (permanent)
 *   2   CLI usage error (permanent)
 *   3   unwritable report path (permanent)
 *
 * A child killed by a signal (crash, OOM kill, the --alarm-sec hard
 * alarm) is transient: the cell is retried with exponential backoff
 * up to --retries times before it is declared lost.  A watchdog trip
 * never exits a cell: Supervisor::run makes it a rollback trigger
 * inside the child, and a chunk that never returns to trip at is
 * ended by the alarm.  The sweep report
 * aggregates every cell; the tool exits 0 iff no cell was lost.
 *
 * A cell's periodic checkpoints stay in its memory as rollback
 * targets, so the report dir ends up holding only the cell reports
 * and sweep.txt.
 *
 * The simulation inside each cell is deterministic per seed; the
 * *supervision* of the sweep (retries, backoff) only re-runs that
 * deterministic function, so a retried cell that succeeds produces
 * the same report bytes it would have produced the first time.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "base/argparse.hh"
#include "base/exit_codes.hh"
#include "base/strutil.hh"
#include "supervise/supervisor.hh"
#include "workload/apps.hh"

using namespace biglittle;

namespace
{

struct SweepOptions
{
    std::vector<AppSpec> apps;
    std::uint64_t seedBase = 1;
    std::uint64_t seeds = 10;
    Tick checkpointEvery = msToTicks(200);
    std::string reportDir = "abrun-reports";
    std::uint32_t retries = 2;
    std::uint32_t jobs = 4;
    unsigned alarmSec = 300;
    double watchdogStallSec = 60.0;
    // chaos fault rates (per second of simulated time)
    double hotplugRate = 0.0;
    double thermalRate = 0.0;
    double stallRate = 0.0;
    double crashRate = 0.0;
    double invariantRate = 0.0;
    std::int64_t persistentCrashCore = -1;
    Tick persistentCrashAt = 0;
};

/** One (app, seed) cell of the sweep matrix. */
struct Cell
{
    std::size_t appIndex = 0;
    std::uint64_t seed = 0;
    std::uint32_t attempts = 0;
    bool done = false;
    bool lost = false;
    int lastExit = 0; ///< exit code, or -signal when killed
    std::string outcome; ///< from the child's report file
    /// Earliest time a transient retry may fork (backoff deadline).
    std::chrono::steady_clock::time_point notBefore{};
};

std::string
cellReportPath(const SweepOptions &opt, const AppSpec &app,
               std::uint64_t seed)
{
    return opt.reportDir + "/" + app.name + ".s" +
           std::to_string(seed) + ".report.txt";
}

/**
 * The child's whole life: run one supervised cell, write its report,
 * and exit through the taxonomy.  Never returns.
 */
[[noreturn]] void
runCell(const SweepOptions &opt, const AppSpec &app,
        std::uint64_t seed)
{
    // Hard kill-switch: if even the in-process watchdog cannot get a
    // chunk boundary to trip at, SIGALRM ends the cell and the
    // parent retries it as transient.
    alarm(opt.alarmSec);

    ExperimentConfig cfg;
    cfg.masterSeed = seed;
    cfg.label = format("abrun.s%llu",
                       static_cast<unsigned long long>(seed));
    cfg.snapshot.checkpointEvery = opt.checkpointEvery;
    cfg.watchdog.enabled = true;
    cfg.watchdog.stallLimitSec = opt.watchdogStallSec;
    if (opt.hotplugRate > 0.0 || opt.thermalRate > 0.0 ||
        opt.stallRate > 0.0 || opt.crashRate > 0.0 ||
        opt.invariantRate > 0.0 || opt.persistentCrashCore >= 0) {
        cfg.fault.enabled = true;
        cfg.fault.hotplugRatePerSec = opt.hotplugRate;
        cfg.fault.thermalSpikeRatePerSec = opt.thermalRate;
        cfg.fault.taskStallRatePerSec = opt.stallRate;
        cfg.fault.crashRatePerSec = opt.crashRate;
        cfg.fault.invariantBreakRatePerSec = opt.invariantRate;
        if (opt.persistentCrashCore >= 0) {
            cfg.fault.persistentCrashCore =
                static_cast<CoreId>(opt.persistentCrashCore);
            cfg.fault.persistentCrashAt = opt.persistentCrashAt;
        }
    }

    Supervisor supervisor(cfg);
    const SupervisedRunResult result = supervisor.run(app);

    {
        std::ofstream out(cellReportPath(opt, app, seed),
                          std::ios::trunc);
        if (!out) {
            std::fprintf(stderr,
                         "abrun: cannot write cell report for %s "
                         "seed %llu\n",
                         app.name.c_str(),
                         static_cast<unsigned long long>(seed));
            _exit(exitBadFile);
        }
        out << "cell app=" << app.name << " seed=" << seed << "\n"
            << result.report.toString();
    }
    _exit(result.report.outcome == RecoveryOutcome::failed ? exitFatal
                                                           : exitOk);
}

/** First "outcome=..." token of the cell's report file, if any. */
std::string
readOutcome(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const auto pos = line.find("outcome=");
        if (pos == std::string::npos)
            continue;
        const auto end = line.find(' ', pos);
        return line.substr(pos + 8, end == std::string::npos
                                        ? std::string::npos
                                        : end - pos - 8);
    }
    return "";
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("abrun",
                   "multi-seed chaos-sweep supervisor: forks each "
                   "(app, seed) cell into an isolated process, "
                   "retries transient failures, and aggregates a "
                   "sweep report");
    args.addString("apps", "bbench",
                   "comma-separated app names, or all/latency/fps");
    args.addInt("seeds", 10, "number of seeds per app");
    args.addInt("seed-base", 1, "first master seed");
    args.addInt("checkpoint-every-ms", 200,
                "periodic checkpoint interval (simulated ms)");
    args.addString("report-dir", "abrun-reports",
                   "directory for cell reports and the sweep report");
    args.addInt("retries", 2,
                "transient-failure retries per cell (signals, "
                "including the alarm; exits are not retried)");
    args.addInt("jobs", 4, "concurrent cell processes");
    args.addInt("alarm-sec", 300,
                "hard wall-clock kill switch per cell attempt");
    args.addDouble("watchdog-sec", 60.0,
                   "in-child stall watchdog limit (wall seconds)");
    args.addDouble("hotplug-rate", 0.0, "hotplug faults per sim s");
    args.addDouble("thermal-rate", 0.0,
                   "thermal spike faults per sim s");
    args.addDouble("stall-rate", 0.0, "task-stall faults per sim s");
    args.addDouble("crash-rate", 0.0,
                   "unrecoverable-fault injections per sim s");
    args.addDouble("invariant-rate", 0.0,
                   "injected invariant breaks per sim s");
    args.addInt("persistent-crash-core", -1,
                "core with failing silicon (-1 = none)");
    args.addInt("persistent-crash-at-ms", 0,
                "tick the persistent crash starts (ms)");
    args.addFlag("chaos",
                 "shorthand: enable a default mixed fault load "
                 "(hotplug+thermal+stall+crash+invariant)");
    args.parse(argc, argv);

    // Check the numbers before the report dir is made or a cell
    // forks.  Each must fit the field it lands in, or it would wrap:
    // --seeds -1 asks for 2^64-1 cells, --jobs 2^32 forks nothing
    // and waits forever, and an _ms value above maxTick / oneMs
    // overflows when scaled to ticks.  --jobs below 1 runs one job.
    // Master seed 0 selects the legacy per-spec seeds, so a
    // --seed-base below 1 would mix both seeding modes in one sweep.
    // The watchdog needs a positive stall limit.
    constexpr std::int64_t u32Max =
        std::numeric_limits<std::uint32_t>::max();
    constexpr auto msMax = static_cast<std::int64_t>(maxTick / oneMs);
    const struct
    {
        const char *name;
        std::int64_t min;
        std::int64_t max;
    } bounds[] = {
        {"seeds", 0, std::numeric_limits<std::int64_t>::max()},
        {"seed-base", 1, std::numeric_limits<std::int64_t>::max()},
        {"retries", 0, u32Max},
        {"jobs", std::numeric_limits<std::int64_t>::min(), u32Max},
        {"alarm-sec", 0, u32Max},
        {"checkpoint-every-ms", 0, msMax},
        {"persistent-crash-at-ms", 0, msMax},
        {"persistent-crash-core", -1, std::int64_t{invalidCoreId} - 1},
    };
    for (const auto &b : bounds) {
        const std::int64_t v = args.getInt(b.name);
        if (v < b.min || v > b.max) {
            std::fprintf(stderr, "abrun: --%s must be %s %lld\n",
                         b.name, v < b.min ? ">=" : "<=",
                         static_cast<long long>(v < b.min ? b.min
                                                          : b.max));
            return exitUsage;
        }
    }
    if (!(args.getDouble("watchdog-sec") > 0.0)) {
        std::fprintf(stderr, "abrun: --watchdog-sec must be > 0\n");
        return exitUsage;
    }

    SweepOptions opt;
    const std::string apps = args.getString("apps");
    if (apps == "all") {
        opt.apps = allApps();
    } else if (apps == "latency") {
        opt.apps = latencyApps();
    } else if (apps == "fps") {
        opt.apps = fpsApps();
    } else {
        const std::vector<AppSpec> &known = allApps();
        std::size_t start = 0;
        while (start <= apps.size()) {
            const auto comma = apps.find(',', start);
            const std::string name = apps.substr(
                start, comma == std::string::npos ? std::string::npos
                                                  : comma - start);
            if (!name.empty()) {
                const auto it = std::find_if(
                    known.begin(), known.end(),
                    [&](const AppSpec &app) { return app.name == name; });
                if (it == known.end()) {
                    std::fprintf(stderr, "abrun: unknown app '%s'\n",
                                 name.c_str());
                    return exitUsage;
                }
                opt.apps.push_back(*it);
            }
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
    }
    if (opt.apps.empty()) {
        std::fprintf(stderr, "abrun: no apps selected\n");
        return exitUsage;
    }
    opt.seeds = static_cast<std::uint64_t>(args.getInt("seeds"));
    opt.seedBase =
        static_cast<std::uint64_t>(args.getInt("seed-base"));
    opt.checkpointEvery =
        msToTicks(args.getInt("checkpoint-every-ms"));
    opt.reportDir = args.getString("report-dir");
    opt.retries = static_cast<std::uint32_t>(args.getInt("retries"));
    opt.jobs = static_cast<std::uint32_t>(
        std::max<std::int64_t>(1, args.getInt("jobs")));
    opt.alarmSec = static_cast<unsigned>(args.getInt("alarm-sec"));
    opt.watchdogStallSec = args.getDouble("watchdog-sec");
    opt.hotplugRate = args.getDouble("hotplug-rate");
    opt.thermalRate = args.getDouble("thermal-rate");
    opt.stallRate = args.getDouble("stall-rate");
    opt.crashRate = args.getDouble("crash-rate");
    opt.invariantRate = args.getDouble("invariant-rate");
    opt.persistentCrashCore = args.getInt("persistent-crash-core");
    opt.persistentCrashAt =
        msToTicks(args.getInt("persistent-crash-at-ms"));
    if (args.getFlag("chaos")) {
        if (opt.hotplugRate == 0.0)
            opt.hotplugRate = 2.0;
        if (opt.thermalRate == 0.0)
            opt.thermalRate = 1.0;
        if (opt.stallRate == 0.0)
            opt.stallRate = 1.0;
        if (opt.crashRate == 0.0)
            opt.crashRate = 0.2;
        if (opt.invariantRate == 0.0)
            opt.invariantRate = 0.2;
    }

    if (!std::filesystem::exists(opt.reportDir)) {
        std::error_code ec;
        std::filesystem::create_directories(opt.reportDir, ec);
        if (ec) {
            std::fprintf(stderr,
                         "abrun: cannot create report dir '%s'\n",
                         opt.reportDir.c_str());
            return exitBadFile;
        }
    }

    std::vector<Cell> cells;
    for (std::size_t a = 0; a < opt.apps.size(); ++a) {
        for (std::uint64_t s = 0; s < opt.seeds; ++s) {
            Cell &cell = cells.emplace_back();
            cell.appIndex = a;
            cell.seed = opt.seedBase + s;
        }
    }

    std::deque<std::size_t> pending;
    for (std::size_t i = 0; i < cells.size(); ++i)
        pending.push_back(i);
    std::map<pid_t, std::size_t> active;

    while (!pending.empty() || !active.empty()) {
        // Dispatch every eligible cell; a retry whose backoff has not
        // elapsed rotates to the back of the queue instead of
        // sleeping in the dispatch loop, so one backed-off cell never
        // stalls dispatch or reaping for the rest of the sweep.
        bool backing_off = false;
        for (std::size_t scan = pending.size();
             scan > 0 && !pending.empty() && active.size() < opt.jobs;
             --scan) {
            const std::size_t idx = pending.front();
            pending.pop_front();
            Cell &cell = cells[idx];
            if (std::chrono::steady_clock::now() < cell.notBefore) {
                pending.push_back(idx);
                backing_off = true;
                continue;
            }
            ++cell.attempts;
            const pid_t pid = fork();
            if (pid < 0) {
                std::fprintf(stderr, "abrun: fork failed\n");
                return exitFatal;
            }
            if (pid == 0)
                runCell(opt, opt.apps[cell.appIndex], cell.seed);
            active.emplace(pid, idx);
        }

        if (active.empty()) {
            // Only backed-off cells remain; nap until one is due.
            usleep(20000);
            continue;
        }

        int status = 0;
        pid_t pid;
        if (backing_off && active.size() < opt.jobs) {
            // A retry is waiting on its deadline and a job slot is
            // free: poll instead of blocking so the retry is not
            // stuck behind a long-running child.
            pid = waitpid(-1, &status, WNOHANG);
            if (pid == 0) {
                usleep(20000);
                continue;
            }
        } else {
            pid = waitpid(-1, &status, 0);
        }
        if (pid < 0)
            continue;
        const auto it = active.find(pid);
        if (it == active.end())
            continue;
        const std::size_t idx = it->second;
        active.erase(it);
        Cell &cell = cells[idx];

        cell.lastExit = WIFSIGNALED(status) ? -WTERMSIG(status)
                                            : WEXITSTATUS(status);
        if (WIFEXITED(status) && WEXITSTATUS(status) == exitOk) {
            cell.done = true;
            cell.outcome = readOutcome(cellReportPath(
                opt, opt.apps[cell.appIndex], cell.seed));
        } else if (WIFSIGNALED(status) && // crash / alarm / OOM kill
                   cell.attempts <= opt.retries) {
            std::fprintf(stderr,
                         "abrun: cell %s seed %llu transient "
                         "failure (signal %d), retry %u/%u\n",
                         opt.apps[cell.appIndex].name.c_str(),
                         static_cast<unsigned long long>(cell.seed),
                         WTERMSIG(status), cell.attempts, opt.retries);
            // Exponential backoff before the retry forks: the
            // failure may have been resource pressure from the
            // sweep itself.
            cell.notBefore = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(
                                 100LL << std::min(cell.attempts, 6u));
            pending.push_back(idx);
        } else {
            cell.done = true;
            cell.lost = true;
            cell.outcome = readOutcome(cellReportPath(
                opt, opt.apps[cell.appIndex], cell.seed));
            if (cell.outcome.empty())
                cell.outcome = "no-report";
        }
    }

    std::size_t lost = 0, retried = 0, degraded = 0, recovered = 0;
    for (const Cell &cell : cells) {
        lost += cell.lost ? 1 : 0;
        retried += cell.attempts > 1 ? 1 : 0;
        degraded += cell.outcome == "degraded" ? 1 : 0;
        recovered += cell.outcome == "recovered" ? 1 : 0;
    }

    const std::string sweepPath = opt.reportDir + "/sweep.txt";
    {
        std::ofstream out(sweepPath, std::ios::trunc);
        out << "abrun sweep: " << cells.size() << " cells, " << lost
            << " lost, " << retried << " retried, " << recovered
            << " recovered, " << degraded << " degraded\n";
        for (const Cell &cell : cells) {
            out << "  " << opt.apps[cell.appIndex].name << " s"
                << cell.seed << " attempts=" << cell.attempts
                << " exit=" << cell.lastExit << " outcome="
                << (cell.outcome.empty() ? "clean" : cell.outcome)
                << (cell.lost ? " LOST" : "") << "\n";
        }
    }
    std::printf("abrun: %zu cells, %zu lost, %zu retried, %zu "
                "recovered, %zu degraded (report: %s)\n",
                cells.size(), lost, retried, recovered, degraded,
                sweepPath.c_str());
    return lost == 0 ? exitOk : exitFatal;
}
