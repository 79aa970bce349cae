/**
 * @file
 * chaos_sweep: the built abrun binary with --chaos, 200 ms checkpoints
 * and --jobs 2 over the seven latency apps and seedsPerApp seeds each,
 * one abrun per app and per round, in a fresh report directory under
 * the work dir.
 *
 * The five FPS apps are left out because they make the sweep's cost a
 * lottery on the seed: under --chaos the fault schedule derives from
 * the master seed alone, so all five fail at the same ticks, and every
 * rollback re-executes their 20 s runs from tick 0.  One seed's FPS
 * cells then cost anywhere from 30 s to 280 s of simulation, about 90%
 * of an all-app sweep, and the sweep's throughput moves by a third
 * from one seed to the next.
 *
 * The untraced run repeats rounds of the same cells and keeps, for
 * each app's abrun invocation, its fastest wall time and its least CPU
 * time over the rounds: other tenants of a shared host only ever add
 * time.  Per-cell wall time is the lifetime of each forked cell
 * process, polled from /proc.  Afterwards
 * (untimed) every cell runs once more in-process through
 * Supervisor::run, and its RecoveryReport must match the one abrun's
 * cell wrote.
 *
 * The traced run times one abrun round, then runs the same cells
 * in-process (sweepJobs threads) with per-cell timing, counts the
 * checkpoints they land, and times Checkpoint encode/write/read/
 * compare on the files they leave.
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/inotify.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "base/serialize.hh"
#include "base/strutil.hh"
#include "bench.hh"
#include "snapshot/checkpoint.hh"
#include "supervise/supervisor.hh"
#include "workload/apps.hh"

extern char **environ;

namespace perfbench
{

using namespace biglittle;
namespace fs = std::filesystem;

namespace
{

constexpr std::uint64_t seedsPerApp = 30;
constexpr unsigned sweepJobs = 2;
constexpr int checkpointEveryMs = 200;
/** Checkpoint files the snapshot timings sample. */
constexpr std::size_t snapshotSamples = 64;
constexpr double bytesPerMb = 1024.0 * 1024.0;

struct Cell
{
    AppSpec app;
    std::uint64_t seed = 0;
};

std::string
cellKey(const Cell &cell)
{
    return cell.app.name + ".s" + std::to_string(cell.seed);
}

/** The config abrun's cell child builds under --chaos. */
ExperimentConfig
cellConfig(const Cell &cell, const fs::path &dir)
{
    ExperimentConfig cfg;
    cfg.masterSeed = cell.seed;
    cfg.label = format("abrun.s%llu",
                       static_cast<unsigned long long>(cell.seed));
    cfg.snapshot.checkpointEvery = msToTicks(checkpointEveryMs);
    cfg.snapshot.checkpointDir = dir.string();
    cfg.watchdog.enabled = true;
    cfg.watchdog.stallLimitSec = 60.0;
    cfg.fault.enabled = true;
    cfg.fault.hotplugRatePerSec = 2.0;
    cfg.fault.thermalSpikeRatePerSec = 1.0;
    cfg.fault.taskStallRatePerSec = 1.0;
    cfg.fault.crashRatePerSec = 0.2;
    cfg.fault.invariantBreakRatePerSec = 0.2;
    return cfg;
}

/** Live children of @p parent, which forks them from its main thread. */
std::vector<pid_t>
childrenOf(pid_t parent)
{
    std::ifstream list(format("/proc/%d/task/%d/children",
                              static_cast<int>(parent),
                              static_cast<int>(parent)));
    std::vector<pid_t> kids;
    for (pid_t kid = 0; list >> kid;)
        kids.push_back(kid);
    return kids;
}

/** One abrun invocation, observed from outside. */
struct SweepRun
{
    int exitCode = -1; ///< exit status, or -signal
    double wallMs = 0.0; ///< abrun's lifetime
    double cpuMs = 0.0; ///< user+sys of abrun and its cells
    std::vector<double> cellMs; ///< lifetime of each cell process
};

SweepRun
runAbrun(const std::vector<std::string> &args, const fs::path &log)
{
    SweepRun out;
    std::vector<char *> argv;
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                     STDERR_FILENO);
    const Usage before = childUsage();
    const Clock::time_point t0 = Clock::now();
    pid_t pid = 0;
    const int rc =
        posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
        std::fprintf(stderr, "perfbench: cannot start %s: %s\n", argv[0],
                     std::strerror(rc));
        return out;
    }

    // Each cell attempt is one forked child of abrun, so a child's
    // lifetime is the cell's wall time.
    std::map<pid_t, std::pair<Clock::time_point, Clock::time_point>> seen;
    int status = 0;
    for (;;) {
        const pid_t done = waitpid(pid, &status, WNOHANG);
        if (done == pid)
            break;
        if (done < 0 && errno != EINTR) {
            std::fprintf(stderr, "perfbench: waitpid: %s\n",
                         std::strerror(errno));
            return out;
        }
        const Clock::time_point now = Clock::now();
        for (const pid_t child : childrenOf(pid)) {
            const auto [it, fresh] = seen.try_emplace(child, now, now);
            if (!fresh)
                it->second.second = now;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    out.wallMs = msBetween(t0, Clock::now());
    out.exitCode = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : -WTERMSIG(status);
    out.cpuMs = childUsage().cpuMs - before.cpuMs;
    for (const auto &[child, span] : seen)
        out.cellMs.push_back(msBetween(span.first, span.second));
    return out;
}

struct DirUsage
{
    std::uint64_t bytes = 0;
    std::uint64_t files = 0;
};

DirUsage
dirUsage(const fs::path &dir)
{
    DirUsage use;
    std::error_code ec;
    for (const auto &entry : fs::recursive_directory_iterator(dir, ec)) {
        if (entry.is_regular_file()) {
            use.bytes += entry.file_size();
            ++use.files;
        }
    }
    return use;
}

/** What one abrun round did, after its output checks. */
struct Round
{
    std::vector<SweepRun> runs; ///< one abrun per app, in app order
    std::map<std::string, std::uint64_t> digests; ///< cellKey -> report
    std::set<std::string> failed; ///< cellKeys that failed a check
    std::size_t lost = 0;
    std::size_t retried = 0;
    DirUsage left;
};

/** Fail cell @p key of a round; each cell counts once per round. */
void
failCell(std::set<std::string> &failed, const std::string &key,
         const std::string &why, Outcome &out)
{
    out.fail("cell " + key + ": " + why, failed.insert(key).second ? 1 : 0);
}

/**
 * The inputs of a chaos_sweep run.  Each app gets its own seed range
 * and its own abrun invocation: the fault schedule derives from the
 * master seed alone, so apps sharing seeds fail together and the
 * sweep's cost would rest on a handful of independent draws.
 */
struct Sweep
{
    std::vector<Cell> cells;
    std::vector<std::pair<std::string, std::uint64_t>> seedBases; ///< app
    std::uint64_t seeds = 0; ///< per app
    fs::path root;
};

Round
runRound(const Options &opt, const Sweep &sweep, const std::string &name,
         Outcome &out)
{
    const fs::path dir = sweep.root / name;
    const fs::path log = sweep.root / (name + ".log");
    Round round;
    for (const auto &[app, seed_base] : sweep.seedBases) {
        const SweepRun run = runAbrun(
            {opt.abrunPath, "--apps", app, "--seeds",
             std::to_string(sweep.seeds), "--seed-base",
             std::to_string(seed_base), "--chaos", "--checkpoint-every-ms",
             std::to_string(checkpointEveryMs), "--jobs",
             std::to_string(sweepJobs), "--report-dir", (dir / app).string()},
            log);
        round.runs.push_back(run);

        // sweep.txt: a summary line, then one line per cell that ends
        // in LOST when abrun gave the cell up.
        std::ifstream summary(dir / app / "sweep.txt");
        std::string line;
        std::size_t total = 0, lost = 0, retried = 0;
        const bool readable =
            std::getline(summary, line) &&
            std::sscanf(line.c_str(),
                        "abrun sweep: %zu cells, %zu lost, %zu retried",
                        &total, &lost, &retried) == 3;
        round.lost += lost;
        round.retried += retried;
        while (std::getline(summary, line)) {
            std::istringstream fields(line);
            std::string cell_app, seed;
            if (line.ends_with(" LOST") && fields >> cell_app >> seed)
                failCell(round.failed, cell_app + "." + seed, "lost", out);
        }

        bool app_failed = false;
        for (const Cell &cell : sweep.cells) {
            if (cell.app.name != app)
                continue;
            const std::string key = cellKey(cell);
            std::ifstream report(dir / app / (key + ".report.txt"));
            std::string header;
            if (std::getline(report, header)) {
                std::ostringstream body;
                body << report.rdbuf();
                round.digests[key] = fnv1a64(body.str());
            } else {
                failCell(round.failed, key, "no report", out);
            }
            app_failed = app_failed || round.failed.count(key) > 0;
        }
        // abrun exits nonzero iff it lost a cell.  An exit or a summary
        // that no failed cell explains fails every cell of the app.
        if (run.exitCode != 0 || !readable) {
            const std::string why =
                format("abrun --apps %s exited with %d%s", app.c_str(),
                       run.exitCode,
                       readable ? "" : " and left no readable sweep.txt");
            if (app_failed) {
                out.fail(why, 0);
            } else {
                for (const Cell &cell : sweep.cells) {
                    if (cell.app.name == app)
                        failCell(round.failed, cellKey(cell), why, out);
                }
            }
        }
    }
    out.attempted += sweep.cells.size();
    round.left = dirUsage(dir);
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::remove(log, ec);
    return round;
}

/** Fail the cells whose report digest differs between two runs. */
void
compareDigests(const std::map<std::string, std::uint64_t> &want,
               const std::map<std::string, std::uint64_t> &got,
               const char *what, std::set<std::string> &failed,
               Outcome &out)
{
    for (const auto &[key, digest] : want) {
        const auto it = got.find(key);
        if (it != got.end() && it->second != digest) {
            failCell(failed, key,
                     std::string("recovery report differs ") + what, out);
        }
    }
}

struct CellRun
{
    double wallMs = 0.0;
    double cpuMs = 0.0;
    SupervisedRunResult result;
};

/** Every cell through Supervisor::run, on sweepJobs threads. */
std::vector<CellRun>
superviseInProcess(const std::vector<Cell> &cells, const fs::path &dir,
                   const std::function<void()> &after_cell)
{
    fs::create_directories(dir);
    std::vector<CellRun> runs(cells.size());
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    const auto worker = [&] {
        try {
            for (std::size_t i = next++; i < cells.size(); i = next++) {
                const Clock::time_point t0 = Clock::now();
                const double c0 = threadCpuMs();
                Supervisor supervisor(cellConfig(cells[i], dir));
                runs[i].result = supervisor.run(cells[i].app);
                runs[i].cpuMs = threadCpuMs() - c0;
                runs[i].wallMs = msBetween(t0, Clock::now());
                if (after_cell)
                    after_cell();
            }
        } catch (...) {
            const std::lock_guard<std::mutex> lock(error_mutex);
            error = std::current_exception();
        }
    };
    std::vector<std::thread> pool;
    for (unsigned j = 0; j < sweepJobs; ++j)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
    return runs;
}

/** Counts checkpoint files renamed into place in one directory. */
class LandingCounter
{
  public:
    explicit LandingCounter(const fs::path &dir)
        : fd(inotify_init1(IN_NONBLOCK | IN_CLOEXEC))
    {
        if (fd >= 0 && inotify_add_watch(fd, dir.c_str(), IN_MOVED_TO) < 0) {
            close(fd);
            fd = -1;
        }
    }

    ~LandingCounter()
    {
        if (fd >= 0)
            close(fd);
    }

    LandingCounter(const LandingCounter &) = delete;
    LandingCounter &operator=(const LandingCounter &) = delete;

    /** Consume pending notifications; callable from any thread. */
    void
    drain()
    {
        const std::lock_guard<std::mutex> lock(mutex);
        std::vector<char> buf(64 * 1024);
        while (fd >= 0) {
            const ssize_t n = read(fd, buf.data(), buf.size());
            if (n <= 0)
                return;
            for (std::size_t off = 0; off + sizeof(inotify_event) <=
                                      static_cast<std::size_t>(n);) {
                inotify_event ev{};
                std::memcpy(&ev, buf.data() + off, sizeof ev);
                if ((ev.mask & IN_Q_OVERFLOW) != 0) {
                    overflowed = true;
                } else if (ev.len > 0) {
                    const std::string name(buf.data() + off + sizeof ev);
                    landed += name.ends_with(".ckpt") ? 1 : 0;
                }
                off += sizeof ev + ev.len;
            }
        }
    }

    std::uint64_t count() const { return landed; }
    bool complete() const { return fd >= 0 && !overflowed; }

  private:
    int fd;
    std::mutex mutex;
    std::uint64_t landed = 0;
    bool overflowed = false;
};

/** Bytes this process has passed to write() so far. */
std::uint64_t
bytesWritten()
{
    std::ifstream io("/proc/self/io");
    std::string key;
    std::uint64_t value = 0;
    while (io >> key >> value) {
        if (key == "wchar:")
            return value;
    }
    return 0;
}

/** Mean per-checkpoint host times of the Checkpoint API. */
struct SnapshotTimes
{
    double encodeUs = 0.0, writeUs = 0.0, readUs = 0.0, compareUs = 0.0;
};

SnapshotTimes
timeCheckpoints(const fs::path &dir, const fs::path &copies, Outcome &out)
{
    std::vector<fs::path> files;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() && entry.path().extension() == ".ckpt")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    const std::size_t stride =
        std::max<std::size_t>(1, files.size() / snapshotSamples);
    fs::create_directories(copies);

    SnapshotTimes sum;
    std::size_t n = 0;
    const auto us = [](Clock::time_point a, Clock::time_point b) {
        return msBetween(a, b) * 1e3;
    };
    for (std::size_t i = 0; i < files.size(); i += stride) {
        const Clock::time_point t0 = Clock::now();
        const Result<Checkpoint> read = Checkpoint::readFile(files[i]);
        const Clock::time_point t1 = Clock::now();
        if (!read.ok()) {
            out.fail("unreadable checkpoint: " + read.status().message(), 0);
            continue;
        }
        const std::vector<std::uint8_t> bytes = read.value().encode();
        const Clock::time_point t2 = Clock::now();
        const fs::path copy = copies / files[i].filename();
        const Status written = Checkpoint::writeBytes(copy, bytes);
        const Clock::time_point t3 = Clock::now();
        const Result<Checkpoint> again = Checkpoint::readFile(copy);
        const Clock::time_point t4 = Clock::now();
        const Status same = !written.ok() ? written
            : again.ok() ? compareCheckpoints(read.value(), again.value())
                         : again.status();
        const Clock::time_point t5 = Clock::now();
        if (!same.ok())
            out.fail("checkpoint round trip: " + same.message(), 0);
        sum.readUs += us(t0, t1);
        sum.encodeUs += us(t1, t2);
        sum.writeUs += us(t2, t3);
        sum.compareUs += us(t4, t5);
        ++n;
    }
    fs::remove_all(copies, ec);
    if (n == 0)
        return sum;
    const double k = static_cast<double>(n);
    return {sum.encodeUs / k, sum.writeUs / k, sum.readUs / k,
            sum.compareUs / k};
}

double
simMs(Tick ticks)
{
    return static_cast<double>(ticks) / static_cast<double>(oneMs);
}

void
timeSweep(const Options &opt, const Sweep &sweep, SetupTimer &setup,
          Outcome &out)
{
    // Best of rounds per abrun invocation: a few seconds each, short
    // enough to dodge a noisy neighbour's bursts.
    BestTimes best;
    std::vector<SweepRun> fastest;
    Round first;
    std::uint64_t rounds = 0;
    const Clock::time_point t0 = Clock::now();
    do {
        Round round = runRound(
            opt, sweep,
            format("round%llu", static_cast<unsigned long long>(rounds)),
            out);
        if (rounds == 0) {
            first = round;
        } else {
            compareDigests(first.digests, round.digests, "from round 0",
                           round.failed, out);
        }
        fastest.resize(round.runs.size());
        for (std::size_t a = 0; a < round.runs.size(); ++a) {
            const SweepRun &run = round.runs[a];
            best.record(a, run.wallMs, run.cpuMs);
            if (rounds == 0 || run.wallMs < fastest[a].wallMs)
                fastest[a] = run;
        }
        ++rounds;
        setup.again();
    } while (keepMeasuring(opt, t0, rounds));

    // Untimed: the same cells in-process must write the same reports.
    const std::vector<CellRun> runs =
        superviseInProcess(sweep.cells, sweep.root / "inproc", nullptr);
    std::map<std::string, std::uint64_t> inproc;
    double sim_ms_per_round = 0.0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        inproc[cellKey(sweep.cells[i])] = runs[i].result.report.digest();
        sim_ms_per_round += simMs(runs[i].result.run.simulatedTime);
    }
    compareDigests(first.digests, inproc, "from Supervisor::run in-process",
                   first.failed, out);
    std::error_code ec;
    fs::remove_all(sweep.root / "inproc", ec);
    std::fprintf(stderr,
                 "perfbench: each round left %.1f MB in %llu files "
                 "(deleted)\n",
                 static_cast<double>(first.left.bytes) / bytesPerMb,
                 static_cast<unsigned long long>(first.left.files));

    const double cells = static_cast<double>(sweep.cells.size());
    const double wall_s = best.wallSumMs() / 1e3;
    std::vector<double> cell_ms;
    for (const SweepRun &run : fastest)
        cell_ms.insert(cell_ms.end(), run.cellMs.begin(), run.cellMs.end());
    out.values["setup_s"] = setup.seconds();
    out.values["runs_per_s"] = cells / wall_s;
    out.values["sim_ms_per_wall_s"] = sim_ms_per_round / wall_s;
    out.values["cpu_ms_per_run"] = best.cpuSumMs() / cells;
    // abrun and its cells are the only children this process reaps.
    out.values["peak_rss_mb"] = childUsage().maxRssMb;
    reportPercentiles("run_ms_", cell_ms, opt, out);
}

void
traceSweep(const Options &opt, const Sweep &sweep, Outcome &out)
{
    const Round round = runRound(opt, sweep, "round0", out);
    double abrun_cpu_ms = 0.0;
    for (const SweepRun &run : round.runs)
        abrun_cpu_ms += run.cpuMs;
    const double cells = static_cast<double>(sweep.cells.size());

    std::vector<double> cell_ms;
    double cpu_ms = 0.0, useful_ms = 0.0, all_ms = 0.0;
    double attempts = 0, retries = 0, quarantines = 0;
    double injected = 0, violations = 0;
    std::array<double, 4> outcomes{};
    std::uint64_t landed = 0, written = 0, passes = 0;
    bool counted = true;
    const fs::path dir = sweep.root / "inproc";
    const Clock::time_point t0 = Clock::now();
    do {
        std::error_code ec;
        fs::remove_all(dir, ec);
        fs::create_directories(dir);
        LandingCounter counter(dir);
        const std::uint64_t w0 = bytesWritten();
        const std::vector<CellRun> runs = superviseInProcess(
            sweep.cells, dir, [&counter] { counter.drain(); });
        counter.drain();
        written += bytesWritten() - w0;
        landed += counter.count();
        counted = counted && counter.complete();

        std::map<std::string, std::uint64_t> digests;
        std::set<std::string> failed;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const RecoveryReport &rep = runs[i].result.report;
            const AppRunResult &run = runs[i].result.run;
            ++out.attempted;
            digests[cellKey(sweep.cells[i])] = rep.digest();
            if (rep.outcome == RecoveryOutcome::failed) {
                failCell(failed, cellKey(sweep.cells[i]),
                         "supervised run failed", out);
            }
            cell_ms.push_back(runs[i].wallMs);
            cpu_ms += runs[i].cpuMs;
            attempts += rep.attempts;
            retries += rep.retries;
            quarantines += rep.quarantines;
            outcomes[static_cast<std::size_t>(rep.outcome)] += 1;
            // Every attempt re-executes from tick 0 to where it stopped.
            for (const RecoveryEvent &ev : rep.events)
                all_ms += simMs(ev.failedAt);
            if (rep.outcome != RecoveryOutcome::failed) {
                useful_ms += simMs(run.simulatedTime);
                all_ms += simMs(run.simulatedTime);
            }
            injected += static_cast<double>(run.faults.totalInjected());
            violations += static_cast<double>(run.invariantViolations);
        }
        compareDigests(round.digests, digests,
                       "between abrun and Supervisor::run", failed, out);
        ++passes;
    } while (keepMeasuring(opt, t0, passes));
    const SnapshotTimes snap =
        timeCheckpoints(dir, sweep.root / "ckpt-copy", out);
    std::error_code ec;
    fs::remove_all(dir, ec);
    if (!counted)
        out.fail("checkpoint landings could not be counted", 0);

    const double n = static_cast<double>(cell_ms.size());
    auto &v = out.values;
    v["snapshot.checkpoints"] = static_cast<double>(landed) / n;
    v["snapshot.mb_written"] = static_cast<double>(written) / bytesPerMb / n;
    v["snapshot.files_left"] = static_cast<double>(round.left.files);
    v["snapshot.encode_us"] = snap.encodeUs;
    v["snapshot.write_us"] = snap.writeUs;
    v["snapshot.read_us"] = snap.readUs;
    v["snapshot.compare_us"] = snap.compareUs;
    reportPercentiles("supervise.cell_ms_", cell_ms, opt, out);
    v["supervise.attempts"] = attempts / n;
    v["supervise.retries"] = retries / n;
    v["supervise.quarantines"] = quarantines / n;
    v["supervise.outcome_clean"] = outcomes[0] / n;
    v["supervise.outcome_recovered"] = outcomes[1] / n;
    v["supervise.outcome_degraded"] = outcomes[2] / n;
    v["supervise.outcome_failed"] = outcomes[3] / n;
    v["supervise.useful_sim_frac"] = useful_ms / all_ms;
    v["fault.injected"] = injected / n;
    v["fault.invariant_violations"] = violations / n;
    v["abrun.cpu_ms_per_cell"] = abrun_cpu_ms / cells;
    v["abrun.process_ms_per_cell"] = abrun_cpu_ms / cells - cpu_ms / n;
    v["abrun.retried"] = static_cast<double>(round.retried);
    v["abrun.lost"] = static_cast<double>(round.lost);
    v["disk_mb_left"] = static_cast<double>(round.left.bytes) / bytesPerMb;
}

} // namespace

Outcome
runChaosSweep(const Options &opt)
{
    Outcome out;
    if (opt.abrunPath.empty() || opt.workDir.empty()) {
        out.fail("chaos_sweep needs --abrun and --work-dir", 0);
        return out;
    }
    Sweep sweep;
    sweep.root = fs::absolute(opt.workDir);
    SetupTimer setup([&] {
        std::error_code ec;
        fs::remove_all(sweep.root, ec);
        fs::create_directories(sweep.root);
        std::vector<AppSpec> apps = latencyApps();
        sweep.seeds = seedsPerApp;
        if (opt.smoke) {
            apps.resize(2);
            sweep.seeds = 1;
        }
        sweep.cells.clear();
        sweep.seedBases.clear();
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const std::uint64_t base =
                1 + (opt.seed * apps.size() + a) * sweep.seeds;
            sweep.seedBases.emplace_back(apps[a].name, base);
            for (std::uint64_t s = 0; s < sweep.seeds; ++s)
                sweep.cells.push_back({apps[a], base + s});
        }
    });
    // One fault-free cell warms the binary and the page cache before
    // the first round; setup_s leaves it out.
    const fs::path warm = sweep.root / "warmup";
    const SweepRun w = runAbrun(
        {opt.abrunPath, "--apps", "bbench", "--seeds", "1", "--jobs", "1",
         "--checkpoint-every-ms", "0", "--report-dir", warm.string()},
        sweep.root / "warmup.log");
    if (w.exitCode != 0)
        out.fail("the abrun warm-up cell failed", 0);
    std::error_code ec;
    fs::remove_all(warm, ec);
    fs::remove(sweep.root / "warmup.log", ec);
    out.params = format(
        "chaos_sweep: %zu cells per round, one abrun per latency app "
        "(%zu apps x %llu seeds, app a from seed-base 1 + (%llu * %zu + "
        "a) * %llu), --chaos, checkpoints every %d ms, --jobs %u",
        sweep.cells.size(), sweep.seedBases.size(),
        static_cast<unsigned long long>(sweep.seeds),
        static_cast<unsigned long long>(opt.seed), sweep.seedBases.size(),
        static_cast<unsigned long long>(sweep.seeds), checkpointEveryMs,
        sweepJobs);

    if (opt.trace)
        traceSweep(opt, sweep, out);
    else
        timeSweep(opt, sweep, setup, out);
    fs::remove_all(sweep.root, ec);
    return out;
}

} // namespace perfbench
