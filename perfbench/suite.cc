/**
 * @file
 * The two event-loop workloads.
 *
 * paper_suite: the 12 Table II apps under 16 conditions (the 7
 * standardCoreConfigs(), the forced 4-big condition, the 8 Section
 * VI-C parameterSweep() points): 192 sequential Experiment::runApp
 * calls per pass, with masterSeed = --seed.
 *
 * race_replay: the 5 FPS apps under Fig. 13's 9 conditions, each
 * gated the way bench_util.hh's RaceGate does it: abrace detection
 * under fifo, then lifo and seeded-shuffle reruns whose end-state
 * digests must match (135 runs per pass; --seed is the shuffle seed).
 *
 * A traced run also drives the benchmark's rig (rig.hh) twice per
 * (condition, app), bare and with the service hook, and checks both
 * against runApp's outputs.
 */

#include <cmath>
#include <cstdio>
#include <fstream>

#include "base/serialize.hh"
#include "base/strutil.hh"
#include "bench.hh"
#include "bench_util.hh"
#include "rig.hh"
#include "workload/apps.hh"

namespace perfbench
{

using namespace biglittle;

namespace
{

std::vector<ExperimentConfig>
paperConditions(std::uint64_t seed)
{
    std::vector<ExperimentConfig> conds;
    for (const CoreConfig &cc : standardCoreConfigs()) {
        ExperimentConfig cfg;
        cfg.coreConfig = cc;
        cfg.label = cc.label;
        conds.push_back(cfg);
    }
    conds.push_back(bigOnlyConfig());
    for (const SweepPoint &point : parameterSweep())
        conds.push_back(point.config);
    for (ExperimentConfig &cfg : conds)
        cfg.masterSeed = seed;
    return conds;
}

std::vector<ExperimentConfig>
fig13Conditions()
{
    std::vector<ExperimentConfig> conds{baselineConfig()};
    for (const SweepPoint &point : parameterSweep())
        conds.push_back(point.config);
    for (ExperimentConfig &cfg : conds)
        cfg.race.detect = true;
    return conds;
}

double
simMs(const AppRunResult &r)
{
    return static_cast<double>(r.simulatedTime) /
           static_cast<double>(oneMs);
}

std::string
runName(const ExperimentConfig &cfg, const AppSpec &app)
{
    return cfg.label + "/" + app.name;
}

/** Headline metrics and per-section state digests of a run. */
std::string
recordLine(const AppRunResult &r)
{
    std::string line = format(
        "%s|%s|perf=%.17g|min_fps=%.17g|power_mw=%.17g|sim_ticks=%llu",
        r.configLabel.c_str(), r.app.c_str(), r.performanceValue(),
        r.minFps, r.avgPowerMw,
        static_cast<unsigned long long>(r.simulatedTime));
    for (const auto &[name, digest] : r.stateDigests) {
        line += format("|%s=%016llx", name.c_str(),
                       static_cast<unsigned long long>(digest));
    }
    return line;
}

/** Why @p r is not a valid result ("" when it is). */
std::string
intrinsicProblem(const AppRunResult &r)
{
    if (r.failed)
        return "run failed: " + r.failureDetail;
    if (!r.completed)
        return "run did not complete";
    if (!(std::isfinite(r.performanceValue()) && r.performanceValue() > 0))
        return "no performance value";
    if (!(std::isfinite(r.avgPowerMw) && r.avgPowerMw > 0))
        return "no power value";
    if (r.stateDigests.empty())
        return "no state digests";
    if (r.raceConflicts > 0)
        return format("%llu abrace conflict(s)",
                      static_cast<unsigned long long>(r.raceConflicts));
    return "";
}

/** Every later pass must reproduce the first pass run for run. */
class PassRecord
{
  public:
    /** Check run @p i of the current pass; "" when it matches. */
    std::string
    check(std::size_t i, const std::string &line)
    {
        if (i == lines.size()) {
            lines.push_back(line);
            return "";
        }
        return line == lines[i] ? ""
                                : "differs from the same run in pass 1";
    }

    const std::vector<std::string> &first() const { return lines; }

  private:
    std::vector<std::string> lines;
};

std::uint64_t
suiteDigest(const std::vector<std::string> &lines)
{
    std::string all;
    for (const std::string &line : lines)
        all += line + "\n";
    return fnv1a64(all);
}

/** The paper_suite reference entries of one seed. */
struct Reference
{
    bool known = false; ///< the file has an entry for the seed
    std::uint64_t digest = 0; ///< suiteDigest of one pass
    std::vector<std::string> runs; ///< run lines (default seed only)
};

Result<Reference>
loadReference(const std::string &path, std::uint64_t seed)
{
    std::ifstream in(path);
    if (!in)
        return notFound("cannot read the reference '" + path + "'");
    Reference ref;
    const std::string tag =
        format("suite %llu ", static_cast<unsigned long long>(seed));
    for (std::string line; std::getline(in, line);) {
        if (line.rfind(tag, 0) == 0) {
            ref.known = true;
            ref.digest = std::stoull(line.substr(tag.size()), nullptr, 16);
        } else if (seed == 0 && line.rfind("run ", 0) == 0) {
            ref.runs.push_back(line.substr(4));
        }
    }
    return ref;
}

void
checkReference(const Reference &ref, const std::vector<std::string> &lines,
               std::uint64_t passes, Outcome &out)
{
    if (!ref.known) {
        std::fprintf(stderr, "perfbench: seed not in the reference; "
                             "intrinsic checks only\n");
        return;
    }
    if (!ref.runs.empty()) {
        for (std::size_t i = 0; i < lines.size(); ++i) {
            if (i >= ref.runs.size() || lines[i] != ref.runs[i])
                out.fail("differs from the reference: " + lines[i], passes);
        }
        if (lines.size() != ref.runs.size())
            out.fail("run count differs from the reference", 0);
    } else if (suiteDigest(lines) != ref.digest) {
        out.fail("suite digest differs from the reference",
                 lines.size() * passes);
    }
}

/**
 * End-to-end metrics of an untraced window from the best-of-passes
 * time of each run; @p sim_ms is the simulated time of one pass.
 */
void
reportWindow(const Options &opt, double setup_s, const BestTimes &best,
             double sim_ms, Outcome &out)
{
    const double runs = static_cast<double>(best.wallMs().size());
    const double wall_s = best.wallSumMs() / 1e3;
    out.values["setup_s"] = setup_s;
    out.values["runs_per_s"] = runs / wall_s;
    out.values["sim_ms_per_wall_s"] = sim_ms / wall_s;
    out.values["cpu_ms_per_run"] = best.cpuSumMs() / runs;
    out.values["peak_rss_mb"] = selfUsage().maxRssMb;
    reportPercentiles("run_ms_", best.wallMs(), opt, out);
}

/** Per-layer sums of a traced pass, reported per run. */
struct LayerTotals
{
    std::uint64_t runs = 0;
    double runAppMs = 0, rigMs = 0;
    double buildMs = 0, loopMs = 0, finalizeMs = 0, digestMs = 0;
    double tracedLoopMs = 0, replayMs = 0;
    std::uint64_t events = 0, batches = 0, singletons = 0;
    std::array<double, bandCount> bandNs{};
    std::array<std::uint64_t, bandCount> bandEvents{};
    double migUp = 0, migDown = 0, opp = 0, throttle = 0;
    double raceBatches = 0, raceTracked = 0;

    void report(Outcome &out) const;
};

void
LayerTotals::report(Outcome &out) const
{
    if (runs == 0 || events == 0)
        return;
    const double n = static_cast<double>(runs);
    const double ev = static_cast<double>(events);
    auto &v = out.values;
    v["sim.events"] = ev / n;
    v["sim.ns_per_event"] = loopMs * 1e6 / ev;
    v["sim.queue_ns_per_event"] = replayMs * 1e6 / ev;
    v["sim.batch_singleton_frac"] =
        static_cast<double>(singletons) / static_cast<double>(batches);
    double band_ms = 0.0;
    for (std::size_t b = 0; b < bandCount; ++b) {
        const std::string name = bandNames[b];
        v[name + "_ms"] = bandNs[b] / 1e6 / n;
        v[name + "_events"] = static_cast<double>(bandEvents[b]) / n;
        band_ms += bandNs[b] / 1e6;
    }
    v["core.build_ms"] = buildMs / n;
    v["core.finalize_ms"] = finalizeMs / n;
    v["core.digest_ms"] = digestMs / n;
    v["core.runapp_overhead_pct"] = 100.0 * (runAppMs - rigMs) / rigMs;
    v["sched.migrations_up"] = migUp / n;
    v["sched.migrations_down"] = migDown / n;
    v["governor.opp_transitions"] = opp / n;
    v["platform.throttle_events"] = throttle / n;
    v["abrace.batches"] = raceBatches / n;
    v["abrace.events_tracked"] = raceTracked / n;
    v["trace.overhead_pct"] = 100.0 * (tracedLoopMs - loopMs) / loopMs;
    v["trace.loop_ms"] = tracedLoopMs / n;
    // The band split must account for the traced loop's wall time.
    if (std::fabs(band_ms - tracedLoopMs) > 0.05 * tracedLoopMs) {
        out.fail(format("band times sum to %.3f ms but the traced loop "
                        "took %.3f ms",
                        band_ms, tracedLoopMs),
                 0);
    }
}

/**
 * Drive the bare and the hooked rig for one (condition, app), check
 * both against runApp's @p reference, and fold their numbers in.
 */
void
traceRun(const ExperimentConfig &cfg, const AppSpec &app,
         const AppRunResult &reference, double reference_ms,
         LayerTotals &totals, Outcome &out)
{
    const RigRun plain = runRig(cfg, app, nullptr);
    BandTrace trace;
    const RigRun traced = runRig(cfg, app, &trace);
    out.attempted += 2;
    const std::string want = recordLine(reference);
    for (const RigRun *rig : {&plain, &traced}) {
        if (recordLine(rig->result) != want) {
            out.fail(runName(cfg, app) + ": rig differs from runApp: " +
                     recordLine(rig->result));
        } else if (rig->raceConflicts > 0) {
            out.fail(runName(cfg, app) + ": abrace conflict in the rig");
        }
    }

    const auto window = static_cast<std::size_t>(
        std::max(1L, std::lround(plain.meanPending)));
    totals.replayMs += replayQueueMs(trace.stream, window);
    const std::vector<ServiceKey> &s = trace.stream;
    for (std::size_t i = 0; i < s.size();) {
        std::size_t j = i + 1;
        while (j < s.size() && s[j].when == s[i].when &&
               s[j].priority == s[i].priority)
            ++j;
        ++totals.batches;
        totals.singletons += j - i == 1 ? 1 : 0;
        i = j;
    }
    for (std::size_t b = 0; b < bandCount; ++b) {
        totals.bandNs[b] += trace.ns[b];
        totals.bandEvents[b] += trace.events[b];
    }
    ++totals.runs;
    totals.runAppMs += reference_ms;
    totals.rigMs += plain.totalMs();
    totals.buildMs += plain.buildMs;
    totals.loopMs += plain.loopMs;
    totals.finalizeMs += plain.finalizeMs;
    totals.digestMs += plain.digestMs;
    totals.tracedLoopMs += traced.loopMs;
    totals.events += plain.events;
    totals.migUp += static_cast<double>(reference.sched.migrationsUp);
    totals.migDown += static_cast<double>(reference.sched.migrationsDown);
    totals.opp += static_cast<double>(plain.oppTransitions);
    totals.throttle += static_cast<double>(plain.throttleEvents);
    totals.raceBatches += static_cast<double>(plain.raceBatches);
    totals.raceTracked += static_cast<double>(plain.raceTracked);
}

/** One runApp call with its wall and CPU time. */
struct TimedRun
{
    AppRunResult result;
    double wallMs = 0.0;
    double cpuMs = 0.0;
};

TimedRun
timedRun(const ExperimentConfig &cfg, const AppSpec &app)
{
    TimedRun run;
    const Clock::time_point t0 = Clock::now();
    const double c0 = threadCpuMs();
    run.result = Experiment(cfg).runApp(app);
    run.cpuMs = threadCpuMs() - c0;
    run.wallMs = msBetween(t0, Clock::now());
    return run;
}

/**
 * One untimed run per app settles allocator and caches before the
 * first timed run; setup_s leaves it out.
 */
void
warmUp(const ExperimentConfig &cfg, const std::vector<AppSpec> &apps)
{
    for (const AppSpec &app : apps)
        (void)Experiment(cfg).runApp(app);
}

} // namespace

Outcome
runPaperSuite(const Options &opt)
{
    Outcome out;
    std::vector<AppSpec> apps;
    std::vector<ExperimentConfig> conds;
    Reference ref;
    Status loaded;
    SetupTimer setup([&] {
        apps = allApps();
        conds = paperConditions(opt.seed);
        if (opt.smoke) {
            apps.resize(2);
            conds.resize(2);
        } else {
            Result<Reference> r = loadReference(opt.referencePath, opt.seed);
            loaded = r.status();
            if (r.ok())
                ref = std::move(r.value());
        }
    });
    if (!loaded.ok())
        out.fail(loaded.message(), 0);
    ExperimentConfig warm = baselineConfig();
    warm.masterSeed = opt.seed;
    warmUp(warm, apps);
    out.params = format(
        "paper_suite: %zu apps x %zu conditions = %zu runApp calls per "
        "pass, masterSeed=%llu",
        apps.size(), conds.size(), apps.size() * conds.size(),
        static_cast<unsigned long long>(opt.seed));

    BestTimes best;
    LayerTotals totals;
    PassRecord record;
    double sim_ms = 0.0;
    std::uint64_t passes = 0;
    const Clock::time_point t0 = Clock::now();
    do {
        std::size_t i = 0;
        for (const ExperimentConfig &cfg : conds) {
            for (const AppSpec &app : apps) {
                const TimedRun run = timedRun(cfg, app);
                const AppRunResult &r = run.result;
                ++out.attempted;
                best.record(i, run.wallMs, run.cpuMs);
                if (passes == 0)
                    sim_ms += simMs(r);
                std::string problem = intrinsicProblem(r);
                const std::string repeat = record.check(i++, recordLine(r));
                if (problem.empty())
                    problem = repeat;
                if (!problem.empty())
                    out.fail(runName(cfg, app) + ": " + problem);
                if (opt.trace)
                    traceRun(cfg, app, r, run.wallMs, totals, out);
            }
        }
        ++passes;
        setup.again();
    } while (keepMeasuring(opt, t0, passes));
    if (!opt.smoke && loaded.ok())
        checkReference(ref, record.first(), passes, out);

    if (opt.trace)
        totals.report(out);
    else
        reportWindow(opt, setup.seconds(), best, sim_ms, out);
    return out;
}

Outcome
runRaceReplay(const Options &opt)
{
    Outcome out;
    std::vector<AppSpec> apps;
    std::vector<ExperimentConfig> conds;
    SetupTimer setup([&] {
        apps = fpsApps();
        conds = fig13Conditions();
        if (opt.smoke) {
            apps.resize(1);
            conds.resize(1);
        }
    });
    warmUp(conds.front(), apps);
    out.params = format(
        "race_replay: %zu FPS apps x %zu conditions x (fifo + lifo + "
        "shuffle) = %zu runs per pass, shuffle seed=%llu",
        apps.size(), conds.size(), 3 * apps.size() * conds.size(),
        static_cast<unsigned long long>(opt.seed));

    BestTimes best;
    LayerTotals totals;
    PassRecord record;
    double sim_ms = 0.0, plain_ms = 0.0, detect_ms = 0.0;
    double permute_ms = 0.0, compare_us = 0.0;
    std::uint64_t compares = 0, passes = 0;
    const Clock::time_point t0 = Clock::now();
    do {
        std::size_t i = 0, slot = 0;
        const auto timed = [&](const ExperimentConfig &cfg,
                               const AppSpec &app) {
            TimedRun run = timedRun(cfg, app);
            ++out.attempted;
            best.record(slot++, run.wallMs, run.cpuMs);
            if (passes == 0)
                sim_ms += simMs(run.result);
            return run;
        };
        for (const ExperimentConfig &cfg : conds) {
            for (const AppSpec &app : apps) {
                const std::string name = runName(cfg, app);
                const auto judge = [&](const AppRunResult &r,
                                       const char *order) {
                    const std::string problem = intrinsicProblem(r);
                    if (!problem.empty())
                        out.fail(name + " (" + order + "): " + problem);
                };

                const TimedRun fifo_run = timed(cfg, app);
                const AppRunResult &fifo = fifo_run.result;
                detect_ms += fifo_run.wallMs;
                judge(fifo, "fifo");
                const std::string repeat =
                    record.check(i++, recordLine(fifo));
                if (!repeat.empty())
                    out.fail(name + ": " + repeat);

                for (const TieBreak mode :
                     {TieBreak::lifo, TieBreak::shuffle}) {
                    const char *order =
                        mode == TieBreak::lifo ? "lifo" : "shuffle";
                    ExperimentConfig rerun_cfg = cfg;
                    rerun_cfg.race.tieBreak = mode;
                    rerun_cfg.race.shuffleSeed = opt.seed;
                    const TimedRun rerun_run = timed(rerun_cfg, app);
                    const AppRunResult &rerun = rerun_run.result;
                    permute_ms += rerun_run.wallMs;
                    judge(rerun, order);
                    const Clock::time_point c0 = Clock::now();
                    const Status same = compareStateDigests(fifo, rerun);
                    compare_us += msBetween(c0, Clock::now()) * 1e3;
                    ++compares;
                    if (!same.ok()) {
                        out.fail(name + ": " + order +
                                 " tie-break diverged: " + same.message());
                    }
                }

                if (opt.trace) {
                    ExperimentConfig plain_cfg = cfg;
                    plain_cfg.race.detect = false;
                    const TimedRun plain = timedRun(plain_cfg, app);
                    ++out.attempted;
                    plain_ms += plain.wallMs;
                    judge(plain.result, "no detector");
                    if (recordLine(plain.result) != recordLine(fifo))
                        out.fail(name + ": the detector changed the run");
                    traceRun(cfg, app, fifo, fifo_run.wallMs, totals, out);
                }
            }
        }
        ++passes;
        setup.again();
    } while (keepMeasuring(opt, t0, passes));

    if (opt.trace) {
        totals.report(out);
        out.values["abrace.detect_x"] = detect_ms / plain_ms;
        out.values["abrace.permute_x"] = permute_ms / (2.0 * plain_ms);
        out.values["abrace.compare_us"] =
            compare_us / static_cast<double>(compares);
    } else {
        reportWindow(opt, setup.seconds(), best, sim_ms, out);
    }
    return out;
}

int
writePaperReference(const std::string &path)
{
    std::ofstream file(path, std::ios::trunc);
    if (!file) {
        std::fprintf(stderr, "perfbench: cannot write '%s'\n", path.c_str());
        return 1;
    }
    file << "# paper_suite reference.  `suite <seed> <digest>` is the\n"
            "# fnv1a64 of one pass's run lines; the run lines of the\n"
            "# default seed 0 follow.  Regenerate with\n"
            "# `python3 perfbench/run.py --write-reference` only when the\n"
            "# simulated behaviour is meant to change.\n";
    const std::vector<AppSpec> apps = allApps();
    std::vector<std::string> default_lines;
    for (std::uint64_t seed = 0; seed < referenceSeeds; ++seed) {
        std::vector<std::string> lines;
        for (const ExperimentConfig &cfg : paperConditions(seed)) {
            for (const AppSpec &app : apps)
                lines.push_back(recordLine(Experiment(cfg).runApp(app)));
        }
        file << format("suite %llu %016llx\n",
                       static_cast<unsigned long long>(seed),
                       static_cast<unsigned long long>(suiteDigest(lines)));
        if (seed == 0)
            default_lines = lines;
    }
    for (const std::string &line : default_lines)
        file << "run " << line << "\n";
    return file ? 0 : 1;
}

} // namespace perfbench
