/**
 * @file
 * perfbench shared declarations: run options, the metric tables, the
 * result record, statistics and host-resource helpers, and the entry
 * points of the three workloads (see README.md in this directory).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench
{

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false; ///< tiny inputs, one pass (self-tests)
    std::string abrunPath; ///< the built abrun binary (chaos_sweep)
    std::string referencePath; ///< paper_suite reference file
    std::string workDir; ///< scratch directory, deleted at the end
};

/** One run's verdict and metrics: the fields of the result line. */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> values; ///< metric name -> value
    std::string params; ///< workload parameters for the manifest

    /** Record a failed output check covering @p runs runs. */
    void fail(const std::string &why, std::uint64_t runs = 1);
};

/** A metric's name and unit. */
struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** Metrics of the untraced run, in print order. */
const std::vector<MetricSpec> &endToEndMetrics();

/** Metrics of the traced run, in print order. */
const std::vector<MetricSpec> &perLayerMetrics();

/** True when @p name is 1-64 chars of [A-Za-z0-9_.-], led by an
 *  alphanumeric. */
bool validMetricName(const std::string &name);

// ---- event-priority bands --------------------------------------------

constexpr std::size_t bandCount = 11;

/** Band names, indexed by bandOf(). */
extern const std::array<const char *, bandCount> bandNames;

/** The band a serviced event's priority belongs to. */
std::size_t bandOf(std::int32_t priority);

// ---- statistics --------------------------------------------------------

/** Samples that must lie beyond a reported percentile. */
constexpr std::size_t minTailSamples = 10;

/**
 * Nearest-rank @p pct percentile of @p samples, or nullopt when fewer
 * than minTailSamples samples lie above it.
 */
std::optional<double> tailPercentile(std::vector<double> samples,
                                     unsigned pct);

/** Samples needed before tailPercentile(pct) reports a value. */
std::size_t samplesForPercentile(unsigned pct);

double median(std::vector<double> samples);

// ---- host time and resources -------------------------------------------

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point a, Clock::time_point b);
double secondsSince(Clock::time_point t0);

/** CPU time of the calling thread, in ms. */
double threadCpuMs();

/** CPU time and peak RSS from getrusage(). */
struct Usage
{
    double cpuMs = 0.0;
    double maxRssMb = 0.0;
};

Usage selfUsage();
Usage childUsage();

/**
 * A workload's set-up, timed: it runs setupReps times on construction
 * and once more on every again(), which the workloads call between
 * passes so the repeats spread over the run.  Set-up takes tens of
 * microseconds, so one timing is mostly noise; the median of the
 * repeats is the estimate.
 */
class SetupTimer
{
  public:
    explicit SetupTimer(std::function<void()> setup);

    /** Set up once more; the result replaces the previous set-up's. */
    void again();

    /** Median set-up time over every repeat so far. */
    double seconds() const { return median(samples); }

  private:
    std::function<void()> setup;
    std::vector<double> samples;
};

/** Set-up repeats before the first pass. */
constexpr int setupReps = 101;

/** Passes (or rounds) a measuring window makes at least. */
constexpr std::uint64_t minPasses = 3;

/**
 * Whether a measuring window that began at @p t0 goes on: until
 * opt.seconds have passed and @p passes reached minPasses (1 in a
 * traced run, which takes no best-of timings; smoke runs stop after
 * one pass), capped at a hard limit that keeps the run inside its time
 * budget.
 */
bool keepMeasuring(const Options &opt, Clock::time_point t0,
                   std::uint64_t passes);

/**
 * Best-of-passes timing: every pass runs the same list of runs, and
 * run i keeps the fastest wall and CPU time any pass gave it.
 */
class BestTimes
{
  public:
    void record(std::size_t i, double wall_ms, double cpu_ms);

    const std::vector<double> &wallMs() const { return wall; }
    double wallSumMs() const;
    double cpuSumMs() const;

  private:
    std::vector<double> wall, cpu;
};

/**
 * Set @p prefix + "p50"/"p90" from @p samples.  Smoke runs, too short
 * for a tail, report the median for both; otherwise too few samples
 * fail the run.
 */
void reportPercentiles(const std::string &prefix,
                       const std::vector<double> &samples,
                       const Options &opt, Outcome &out);

// ---- workloads -----------------------------------------------------------

Outcome runPaperSuite(const Options &opt);
Outcome runRaceReplay(const Options &opt);
Outcome runChaosSweep(const Options &opt);

/** Seeds [0, referenceSeeds) have a paper_suite reference entry. */
constexpr std::uint64_t referenceSeeds = 100;

/** Write the paper_suite reference for seeds [0, referenceSeeds). */
int writePaperReference(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
