/**
 * @file
 * Metric tables, the EventPriority band map, percentiles and host
 * resource helpers.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "base/strutil.hh"
#include "bench.hh"
#include "sim/event.hh"

namespace perfbench
{

using biglittle::EventPriority;

namespace
{

/** Hard cap on a measuring window, well inside the 180 s run limit. */
constexpr double maxWindowSeconds = 120.0;

double
tvMs(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
}

Usage
usageOf(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return {tvMs(ru.ru_utime) + tvMs(ru.ru_stime),
            static_cast<double>(ru.ru_maxrss) / 1024.0};
}

/**
 * Peak RSS of this process image in MB.  getrusage's ru_maxrss would
 * also count the launcher's footprint, which exec() carries over.
 */
double
selfPeakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

} // namespace

void
Outcome::fail(const std::string &why, std::uint64_t runs)
{
    correct = false;
    failed += runs;
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"runs_per_s", "1/s"},
        {"sim_ms_per_wall_s", "ms/s"},
        {"run_ms_p50", "ms"},
        {"run_ms_p90", "ms"},
        {"cpu_ms_per_run", "ms"},
        {"peak_rss_mb", "MB"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> s = {
            {"sim.events", "count"},
            {"sim.ns_per_event", "ns"},
            {"sim.queue_ns_per_event", "ns"},
            {"sim.batch_singleton_frac", "fraction"},
        };
        for (const char *band : bandNames) {
            s.push_back({std::string(band) + "_ms", "ms"});
            s.push_back({std::string(band) + "_events", "count"});
        }
        const std::vector<MetricSpec> rest = {
            {"core.build_ms", "ms"},
            {"core.finalize_ms", "ms"},
            {"core.digest_ms", "ms"},
            {"core.runapp_overhead_pct", "%"},
            {"sched.migrations_up", "count"},
            {"sched.migrations_down", "count"},
            {"governor.opp_transitions", "count"},
            {"platform.throttle_events", "count"},
            {"snapshot.checkpoints", "count"},
            {"snapshot.mb_written", "MB"},
            {"snapshot.files_left", "count"},
            {"snapshot.encode_us", "us"},
            {"snapshot.write_us", "us"},
            {"snapshot.read_us", "us"},
            {"snapshot.compare_us", "us"},
            {"supervise.cell_ms_p50", "ms"},
            {"supervise.cell_ms_p90", "ms"},
            {"supervise.attempts", "count"},
            {"supervise.retries", "count"},
            {"supervise.quarantines", "count"},
            {"supervise.outcome_clean", "fraction"},
            {"supervise.outcome_recovered", "fraction"},
            {"supervise.outcome_degraded", "fraction"},
            {"supervise.outcome_failed", "fraction"},
            {"supervise.useful_sim_frac", "fraction"},
            {"fault.injected", "count"},
            {"fault.invariant_violations", "count"},
            {"abrun.cpu_ms_per_cell", "ms"},
            {"abrun.process_ms_per_cell", "ms"},
            {"abrun.retried", "count"},
            {"abrun.lost", "count"},
            {"abrace.detect_x", "x"},
            {"abrace.permute_x", "x"},
            {"abrace.batches", "count"},
            {"abrace.events_tracked", "count"},
            {"abrace.compare_us", "us"},
            {"trace.overhead_pct", "%"},
            {"trace.loop_ms", "ms"},
            {"disk_mb_left", "MB"},
            {"fail_rate", "fraction"},
        };
        s.insert(s.end(), rest.begin(), rest.end());
        return s;
    }();
    return specs;
}

bool
validMetricName(const std::string &name)
{
    const auto alnum = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) != 0;
    };
    if (name.empty() || name.size() > 64 || !alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

const std::array<const char *, bandCount> bandNames = {
    "sched.slice", "platform.dvfs", "workload.input",
    "workload.workflow", "workload.submit", "sched.tick",
    "platform.thermal", "governor.sample", "core.stats",
    "fault.replug", "sim.deferred",
};

std::size_t
bandOf(std::int32_t priority)
{
    const auto at = [](EventPriority p) {
        return static_cast<std::int32_t>(p);
    };
    const auto in = [&](EventPriority base, std::size_t width) {
        return priority >= at(base) &&
               priority < at(base) + static_cast<std::int32_t>(width);
    };
    if (in(EventPriority::sliceEnd, biglittle::sliceSlots))
        return 0;
    if (priority == at(EventPriority::dvfsApply))
        return 1;
    if (priority == at(EventPriority::inputPump))
        return 2;
    if (priority == at(EventPriority::workflowStep))
        return 3;
    if (in(EventPriority::workSubmit, biglittle::workSlots))
        return 4;
    if (priority == at(EventPriority::schedTick))
        return 5;
    if (in(EventPriority::thermal, biglittle::clusterSlots))
        return 6;
    if (in(EventPriority::governor, biglittle::clusterSlots))
        return 7;
    if (priority == at(EventPriority::stats))
        return 8;
    if (priority == at(EventPriority::faultReplug))
        return 9;
    // `deferred` is "everything else", so unlisted values join it.
    return 10;
}

std::size_t
samplesForPercentile(unsigned pct)
{
    std::size_t n = 1;
    while (n - (pct * n + 99) / 100 < minTailSamples)
        ++n;
    return n;
}

std::optional<double>
tailPercentile(std::vector<double> samples, unsigned pct)
{
    const std::size_t n = samples.size();
    // Nearest rank: the ceil(pct% of n)-th smallest sample.
    const std::size_t rank = std::max<std::size_t>(1, (pct * n + 99) / 100);
    if (n == 0 || n - rank < minTailSamples)
        return std::nullopt;
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

Usage
selfUsage()
{
    Usage use = usageOf(RUSAGE_SELF);
    use.maxRssMb = selfPeakRssMb();
    return use;
}

Usage
childUsage()
{
    return usageOf(RUSAGE_CHILDREN);
}

double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

bool
keepMeasuring(const Options &opt, Clock::time_point t0,
              std::uint64_t passes)
{
    if (opt.smoke)
        return false;
    const double elapsed = secondsSince(t0);
    if (elapsed >= maxWindowSeconds)
        return false;
    return elapsed < opt.seconds || passes < (opt.trace ? 1 : minPasses);
}

SetupTimer::SetupTimer(std::function<void()> fn) : setup(std::move(fn))
{
    for (int i = 0; i < setupReps; ++i)
        again();
}

void
SetupTimer::again()
{
    const Clock::time_point t0 = Clock::now();
    setup();
    samples.push_back(secondsSince(t0));
}

void
BestTimes::record(std::size_t i, double wall_ms, double cpu_ms)
{
    if (i == wall.size()) {
        wall.push_back(wall_ms);
        cpu.push_back(cpu_ms);
        return;
    }
    wall.at(i) = std::min(wall[i], wall_ms);
    cpu.at(i) = std::min(cpu[i], cpu_ms);
}

double
BestTimes::wallSumMs() const
{
    return std::accumulate(wall.begin(), wall.end(), 0.0);
}

double
BestTimes::cpuSumMs() const
{
    return std::accumulate(cpu.begin(), cpu.end(), 0.0);
}

void
reportPercentiles(const std::string &prefix,
                  const std::vector<double> &samples, const Options &opt,
                  Outcome &out)
{
    std::fprintf(stderr, "perfbench: %sp50/p90 from %zu samples\n",
                 prefix.c_str(), samples.size());
    for (const unsigned pct : {50u, 90u}) {
        const std::string name = prefix + biglittle::format("p%u", pct);
        const std::optional<double> value = tailPercentile(samples, pct);
        if (value) {
            out.values[name] = *value;
        } else if (opt.smoke) {
            out.values[name] = median(samples);
        } else {
            out.fail(biglittle::format(
                         "%s needs %zu samples, have %zu", name.c_str(),
                         samplesForPercentile(pct), samples.size()),
                     0);
        }
    }
}

} // namespace perfbench
