/**
 * @file
 * perfbench: the repository benchmark.  One process runs one workload
 * and prints, as its last two stdout lines, a run manifest and the
 * result:
 *
 *   manifest {"workload": ..., "build_type": ..., "git_rev": ...}
 *   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
 *
 * --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
 * ones.  run.py builds this binary and passes the paths it needs;
 * README.md in this directory documents every metric.
 *
 *   perfbench --workload paper_suite --seed 1 --seconds 15 --trace 0
 *             [--abrun PATH] [--reference FILE] [--work-dir DIR]
 *   perfbench --self-test
 *   perfbench --write-reference FILE
 */

#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>
#include <thread>

#include "base/argparse.hh"
#include "base/logging.hh"
#include "base/strutil.hh"
#include "bench.hh"
#include "sim/event.hh"

using namespace perfbench;
using biglittle::format;

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += format("\\u%04x", static_cast<unsigned>(c));
        else
            out += c;
    }
    return out + "\"";
}

int
selfTest()
{
    int failures = 0;
    const auto expect = [&failures](bool ok, const std::string &what) {
        if (!ok) {
            ++failures;
            std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
        }
    };
    using biglittle::EventPriority;
    const auto bandIndex = [](const std::string &name) {
        for (std::size_t b = 0; b < bandCount; ++b) {
            if (name == bandNames[b])
                return b;
        }
        return bandCount;
    };

    // Every EventPriority value, and every offsetPriority slot up to
    // and past the cap, lands in the band that owns it.
    struct Ranged
    {
        EventPriority base;
        std::size_t width;
        const char *band;
    };
    for (const Ranged &r :
         {Ranged{EventPriority::sliceEnd, biglittle::sliceSlots,
                 "sched.slice"},
          Ranged{EventPriority::workSubmit, biglittle::workSlots,
                 "workload.submit"},
          Ranged{EventPriority::thermal, biglittle::clusterSlots,
                 "platform.thermal"},
          Ranged{EventPriority::governor, biglittle::clusterSlots,
                 "governor.sample"}}) {
        for (std::size_t slot = 0; slot < r.width + 4; ++slot) {
            const auto p = static_cast<std::int32_t>(
                biglittle::offsetPriority(r.base, slot, r.width));
            expect(bandOf(p) == bandIndex(r.band),
                   format("%s slot %zu (priority %d)", r.band, slot, p));
        }
    }
    const std::pair<EventPriority, const char *> singles[] = {
        {EventPriority::taskState, "sched.slice"},
        {EventPriority::dvfsApply, "platform.dvfs"},
        {EventPriority::inputPump, "workload.input"},
        {EventPriority::workflowStep, "workload.workflow"},
        {EventPriority::schedTick, "sched.tick"},
        {EventPriority::stats, "core.stats"},
        {EventPriority::faultReplug, "fault.replug"},
        {EventPriority::deferred, "sim.deferred"},
    };
    for (const auto &[prio, band] : singles) {
        expect(bandOf(static_cast<std::int32_t>(prio)) == bandIndex(band),
               format("priority %d -> %s", static_cast<int>(prio), band));
    }

    // Percentiles need ten samples beyond the reported one.
    std::vector<double> samples(99);
    std::iota(samples.begin(), samples.end(), 1.0);
    expect(!tailPercentile(samples, 90), "p90 of 99 samples is refused");
    samples.push_back(100.0);
    expect(tailPercentile(samples, 90) == 90.0, "p90 of 1..100 is 90");
    expect(tailPercentile(samples, 50) == 50.0, "p50 of 1..100 is 50");
    expect(samplesForPercentile(90) == 100, "p90 needs 100 samples");
    expect(samplesForPercentile(50) == 20, "p50 needs 20 samples");
    std::vector<double> few(19, 1.0);
    expect(!tailPercentile(few, 50), "p50 of 19 samples is refused");
    few.push_back(1.0);
    expect(tailPercentile(few, 50).has_value(), "p50 of 20 samples");
    expect(!tailPercentile({}, 50), "no samples, no percentile");

    // Metric names are well formed and unique.
    std::set<std::string> seen;
    for (const auto *specs : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricSpec &spec : *specs) {
            expect(validMetricName(spec.name), "name " + spec.name);
            expect(seen.insert(spec.name).second, "unique " + spec.name);
        }
    }
    for (const std::string &bad : std::vector<std::string>{
             "", "a b", "_lead", "x/y", "ms\"", std::string(65, 'a')})
        expect(!validMetricName(bad), "rejects '" + bad + "'");

    std::printf("perfbench self-test: %s\n", failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : 1;
}

/** Check the metric set, then print the manifest and result lines. */
void
printResult(const Options &opt, Outcome &out, const std::string &git_rev)
{
    const auto &specs = opt.trace ? perLayerMetrics() : endToEndMetrics();
    if (out.attempted == 0)
        out.fail("no runs were attempted", 0);
    out.values["fail_rate"] =
        out.attempted == 0 ? 1.0
                           : static_cast<double>(out.failed) /
                                 static_cast<double>(out.attempted);
    std::string metrics;
    for (const MetricSpec &spec : specs) {
        const auto it = out.values.find(spec.name);
        // A layer the workload does not exercise reads 0; an end-to-end
        // metric must always be measured.
        double value = it == out.values.end() ? 0.0 : it->second;
        if ((it == out.values.end() && !opt.trace) ||
            !std::isfinite(value)) {
            out.fail("metric " + spec.name + " was not measured", 0);
            value = 0.0;
        }
        metrics += format("%s%s: {\"value\": %.17g, \"unit\": %s}",
                          metrics.empty() ? "" : ", ",
                          jsonString(spec.name).c_str(), value,
                          jsonString(spec.unit).c_str());
    }

    const std::string build_type = PERFBENCH_BUILD_TYPE;
    const bool release = build_type == "Release";
    if (!release) {
        std::fprintf(stderr, "perfbench: WARNING: %s build; timings are "
                             "comparable only between Release builds\n",
                     build_type.c_str());
    }
    std::printf(
        "manifest {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
        "\"trace\": %d, \"build_type\": %s, \"release\": %s, "
        "\"compiler\": %s, \"git_rev\": %s, \"nproc\": %u, "
        "\"params\": %s}\n",
        jsonString(opt.workload).c_str(),
        static_cast<unsigned long long>(opt.seed), opt.seconds,
        opt.trace ? 1 : 0, jsonString(build_type).c_str(),
        release ? "true" : "false", jsonString(PERFBENCH_COMPILER).c_str(),
        jsonString(git_rev).c_str(), std::thread::hardware_concurrency(),
        jsonString(out.params).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                out.correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    biglittle::ArgParser args(
        "perfbench", "repository benchmark: run one workload, check its "
                     "outputs, and print its metrics");
    args.addString("workload", "",
                   "paper_suite, chaos_sweep or race_replay");
    args.addInt("seed", 0, "input seed (>= 0)");
    args.addDouble("seconds", 10.0, "minimum measuring time");
    args.addInt("trace", 0, "0 = end-to-end metrics, 1 = per-layer");
    args.addFlag("smoke", "tiny inputs and a single pass");
    args.addString("abrun", "", "the built abrun binary");
    args.addString("reference", "", "paper_suite reference file");
    args.addString("work-dir", "", "scratch directory (deleted)");
    args.addString("git-rev", "unknown", "revision for the manifest");
    args.addFlag("self-test", "run the helper self-tests and exit");
    args.addString("write-reference", "",
                   "write the paper_suite reference to this file");
    args.parse(argc, argv);
    biglittle::setLogLevel(biglittle::LogLevel::quiet);

    if (args.getFlag("self-test"))
        return selfTest();
    if (!args.getString("write-reference").empty())
        return writePaperReference(args.getString("write-reference"));

    Options opt;
    opt.workload = args.getString("workload");
    opt.seconds = args.getDouble("seconds");
    opt.trace = args.getInt("trace") == 1;
    opt.smoke = args.getFlag("smoke");
    opt.abrunPath = args.getString("abrun");
    opt.referencePath = args.getString("reference");
    opt.workDir = args.getString("work-dir");
    if (args.getInt("seed") < 0 || !(opt.seconds >= 0.0) ||
        (args.getInt("trace") != 0 && args.getInt("trace") != 1)) {
        std::fprintf(stderr, "perfbench: --seed and --seconds must be >= 0 "
                             "and --trace 0 or 1\n");
        return 2;
    }
    opt.seed = static_cast<std::uint64_t>(args.getInt("seed"));

    Outcome out;
    if (opt.workload == "paper_suite") {
        out = runPaperSuite(opt);
    } else if (opt.workload == "race_replay") {
        out = runRaceReplay(opt);
    } else if (opt.workload == "chaos_sweep") {
        out = runChaosSweep(opt);
    } else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    printResult(opt, out, args.getString("git-rev"));
    // The self-test smoke runs must fail ctest on a failed check.
    return opt.smoke && !out.correct ? 1 : 0;
}
