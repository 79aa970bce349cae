/**
 * @file
 * Kill/resume integration suite: a run that is checkpointed, killed,
 * and resumed must be bit-identical to an uninterrupted run — across
 * many seeds, with and without fault injection — and the event-trace
 * record/replay machinery must pinpoint the first diverging event of
 * a perturbed run.  This is the end-to-end proof of the determinism
 * contract in docs/DETERMINISM.md.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <sys/stat.h>
#include <unistd.h>

#include "base/strutil.hh"
#include "core/experiment.hh"
#include "snapshot/event_trace.hh"
#include "workload/apps.hh"

using namespace biglittle;

namespace
{

/**
 * Exact fingerprint of everything a run reports.  Doubles are
 * rendered with %a (hex float) so any difference — even one ULP —
 * changes the string; "bit-identical" is meant literally.
 */
std::string
fingerprint(const AppRunResult &r)
{
    std::string out = r.app + "|" + r.configLabel + "|";
    out += format("st=%llu done=%d lat=%llu frames=%llu ",
                  static_cast<unsigned long long>(r.simulatedTime),
                  r.completed ? 1 : 0,
                  static_cast<unsigned long long>(r.latency),
                  static_cast<unsigned long long>(r.frames));
    out += format("fps=%a min=%a pwr=%a ", r.avgFps, r.minFps,
                  r.avgPowerMw);
    out += format("eDyn=%a eStat=%a eClus=%a eBase=%a ",
                  r.energy.coreDynamicMj, r.energy.coreStaticMj,
                  r.energy.clusterStaticMj, r.energy.baseMj);
    out += format("tlp=%a idle=%a ", r.tlp.tlp, r.tlp.idlePct);
    out += format("up=%llu down=%llu bal=%llu wake=%llu abrk=%llu ",
                  static_cast<unsigned long long>(r.sched.migrationsUp),
                  static_cast<unsigned long long>(
                      r.sched.migrationsDown),
                  static_cast<unsigned long long>(r.sched.balanceMoves),
                  static_cast<unsigned long long>(r.sched.wakeups),
                  static_cast<unsigned long long>(
                      r.sched.affinityBreaks));
    out += format("fHp=%llu fDvfs=%llu fTherm=%llu fStall=%llu inv=%llu ",
                  static_cast<unsigned long long>(r.faults.hotplugOff +
                                                  r.faults.hotplugOn),
                  static_cast<unsigned long long>(r.faults.dvfsDenied +
                                                  r.faults.dvfsDelayed),
                  static_cast<unsigned long long>(
                      r.faults.thermalSpikes),
                  static_cast<unsigned long long>(r.faults.taskStalls),
                  static_cast<unsigned long long>(
                      r.invariantViolations));
    for (const TaskSummary &t : r.tasks) {
        out += format("%s:%a:%llu:%llu ", t.name.c_str(),
                      t.instructionsRetired,
                      static_cast<unsigned long long>(t.littleRuntime),
                      static_cast<unsigned long long>(t.bigRuntime));
    }
    return out;
}

std::string
scratchDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name;
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

AppSpec
testApp(std::uint64_t seed)
{
    AppSpec app = eternityWarrior2App();
    app.seed = seed;
    app.duration = msToTicks(1500);
    return app;
}

ExperimentConfig
faultyConfig(std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.fault = scaledFaultParams(1.5, seed);
    cfg.label = "chaos";
    return cfg;
}

/**
 * The core property: run to completion with periodic checkpoints,
 * then "kill" the run at an intermediate checkpoint and resume from
 * its file; the resumed run's full result must be bit-identical.
 */
void
expectResumeBitIdentical(const ExperimentConfig &base_cfg,
                         const AppSpec &app, const std::string &dir)
{
    // Truncated run: the "killed" process.  It gets its own
    // checkpoint dir so its files are the ones a real crash leaves.
    AppSpec killed = app;
    killed.duration = msToTicks(900);
    ExperimentConfig killed_cfg = base_cfg;
    killed_cfg.snapshot.checkpointEvery = msToTicks(400);
    killed_cfg.snapshot.checkpointDir = dir;
    Experiment killed_exp(killed_cfg);
    const AppRunResult partial = killed_exp.runApp(killed);
    ASSERT_EQ(partial.checkpoints.count, 2u); // 400 ms and 800 ms
    ASSERT_FALSE(partial.checkpoints.lastPath.empty());

    // Reference: the same run uninterrupted, no snapshotting at all.
    Experiment full_exp(base_cfg);
    const AppRunResult full = full_exp.runApp(app);

    // Resumed: fast-forward through the checkpoint, then finish.
    ExperimentConfig resume_cfg = base_cfg;
    resume_cfg.snapshot.resumePath = partial.checkpoints.lastPath;
    Experiment resumed_exp(resume_cfg);
    const AppRunResult resumed = resumed_exp.runApp(app);

    EXPECT_EQ(resumed.resumedFrom, msToTicks(800));
    EXPECT_EQ(fingerprint(resumed), fingerprint(full));
}

} // namespace

class ResumeSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ResumeSeeds, ResumedRunIsBitIdentical)
{
    // Per-seed dir: the tick-named checkpoint files are identical
    // across seeds, so a shared dir races under parallel ctest.
    expectResumeBitIdentical(
        ExperimentConfig{}, testApp(GetParam()),
        scratchDir("bl_resume_clean_" +
                   std::to_string(GetParam())));
}

TEST_P(ResumeSeeds, ResumedChaosRunIsBitIdentical)
{
    // Fault injection participates in the determinism contract: the
    // injector's RNG and counters are checkpointed, so a perturbed
    // run resumes exactly as it would have continued.
    expectResumeBitIdentical(
        faultyConfig(GetParam()), testApp(GetParam()),
        scratchDir("bl_resume_chaos_" +
                   std::to_string(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, ResumeSeeds,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull,
                                           5ull, 6ull, 7ull, 8ull,
                                           9ull, 10ull));

TEST(Resume, KilledRunCheckpointEqualsUninterruptedCheckpoint)
{
    // Crash-equivalence: the checkpoint a killed run leaves behind is
    // byte-identical to the one an uninterrupted run writes at the
    // same tick — checkpoint contents depend only on simulated
    // history, never on how much future the process went on to have.
    const std::string dir_killed = scratchDir("bl_ckpt_killed");
    const std::string dir_full = scratchDir("bl_ckpt_full");

    AppSpec killed = testApp(42);
    killed.duration = msToTicks(900);
    ExperimentConfig cfg;
    cfg.snapshot.checkpointEvery = msToTicks(400);
    cfg.snapshot.checkpointDir = dir_killed;
    const AppRunResult partial = Experiment(cfg).runApp(killed);

    cfg.snapshot.checkpointDir = dir_full;
    const AppRunResult complete = Experiment(cfg).runApp(testApp(42));
    ASSERT_GT(complete.checkpoints.count, partial.checkpoints.count);

    const std::string base = partial.checkpoints.lastPath.substr(
        dir_killed.size());
    const Result<Checkpoint> a =
        Checkpoint::readFile(dir_killed + base);
    const Result<Checkpoint> b = Checkpoint::readFile(dir_full + base);
    ASSERT_TRUE(a.ok()) << a.status().message();
    ASSERT_TRUE(b.ok()) << b.status().message();
    EXPECT_EQ(a.value().encode(), b.value().encode());
}

TEST(Resume, LatencyAppResumesBitIdentical)
{
    AppSpec app = virusScannerApp();
    app.seed = 3;
    const std::string dir = scratchDir("bl_resume_latency");

    ExperimentConfig ckpt_cfg;
    ckpt_cfg.snapshot.checkpointEvery = msToTicks(300);
    ckpt_cfg.snapshot.checkpointDir = dir;
    const AppRunResult partial = Experiment(ckpt_cfg).runApp(app);
    ASSERT_GT(partial.checkpoints.count, 0u);

    const AppRunResult full = Experiment().runApp(app);

    ExperimentConfig resume_cfg;
    resume_cfg.snapshot.resumePath = partial.checkpoints.lastPath;
    const AppRunResult resumed = Experiment(resume_cfg).runApp(app);

    EXPECT_GT(resumed.resumedFrom, 0u);
    EXPECT_EQ(fingerprint(resumed), fingerprint(full));
}

TEST(Resume, CheckpointOverheadIsReported)
{
    const std::string dir = scratchDir("bl_resume_overhead");
    ExperimentConfig cfg;
    cfg.snapshot.checkpointEvery = msToTicks(500);
    cfg.snapshot.checkpointDir = dir;
    const AppRunResult r = Experiment(cfg).runApp(testApp(1));
    EXPECT_EQ(r.checkpoints.count, 3u); // 500 ms, 1000 ms, 1500 ms
    EXPECT_GT(r.checkpoints.bytes, 0u);
    EXPECT_GT(r.checkpoints.writeMs, 0.0);
    const Result<Checkpoint> last =
        Checkpoint::readFile(r.checkpoints.lastPath);
    ASSERT_TRUE(last.ok()) << last.status().message();
    EXPECT_EQ(last.value().tick, msToTicks(1500));
}

TEST(Resume, TamperedDigestFailsAtTheCheckpointTick)
{
    // A checkpoint that decodes but no longer matches the state the
    // fast-forward reaches must end the run as a resume-divergence
    // failure at the checkpoint's tick, naming the section.  The run
    // stopped early, so it must not claim it hit the simulation cap.
    AppSpec app = virusScannerApp();
    app.seed = 3;
    const std::string dir = scratchDir("bl_resume_tampered");
    ExperimentConfig ckpt_cfg;
    ckpt_cfg.snapshot.checkpointEvery = msToTicks(300);
    ckpt_cfg.snapshot.checkpointDir = dir;
    const AppRunResult written = Experiment(ckpt_cfg).runApp(app);
    ASSERT_GT(written.checkpoints.count, 0u);

    const Result<Checkpoint> loaded =
        Checkpoint::readFile(written.checkpoints.lastPath);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    Checkpoint tampered = loaded.value();
    const auto sched = std::find_if(
        tampered.sections.begin(), tampered.sections.end(),
        [](const auto &section) { return section.first == "sched"; });
    ASSERT_NE(sched, tampered.sections.end());
    sched->second ^= 1;
    const std::string path = dir + "/tampered.ckpt";
    ASSERT_TRUE(tampered.writeFile(path).ok());

    ExperimentConfig resume_cfg;
    resume_cfg.snapshot.resumePath = path;
    ::testing::internal::CaptureStderr();
    const AppRunResult r = Experiment(resume_cfg).runApp(app);
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_TRUE(r.failed);
    EXPECT_EQ(r.failureTrigger, RecoveryTrigger::resumeDivergence);
    EXPECT_EQ(r.failedAt, tampered.tick);
    EXPECT_EQ(r.resumedFrom, 0u);
    EXPECT_NE(r.failureDetail.find("section 'sched'"), std::string::npos)
        << r.failureDetail;
    EXPECT_EQ(log.find("hit the simulation cap"), std::string::npos)
        << log;
}

TEST(Resume, MismatchedIdentityFallsBackToFreshRun)
{
    // A checkpoint from a different config must not be restored —
    // but neither should it kill a long batch.  The run warns and
    // starts from scratch, producing the same result as one that
    // never asked to resume.
    const std::string dir = scratchDir("bl_resume_mismatch");
    ExperimentConfig cfg;
    cfg.snapshot.checkpointEvery = msToTicks(400);
    cfg.snapshot.checkpointDir = dir;
    const AppRunResult r = Experiment(cfg).runApp(testApp(1));
    ASSERT_GT(r.checkpoints.count, 0u);

    ExperimentConfig other;
    other.label = "different-config";
    other.snapshot.resumePath = r.checkpoints.lastPath;
    const AppRunResult fresh = Experiment(other).runApp(testApp(1));
    EXPECT_EQ(fresh.resumedFrom, 0u);
    EXPECT_TRUE(fresh.completed);
}

TEST(Resume, MissingCheckpointFallsBackToFreshRun)
{
    ExperimentConfig cfg;
    cfg.snapshot.resumePath = "/nonexistent/x.ckpt";
    const AppRunResult fresh = Experiment(cfg).runApp(testApp(1));
    EXPECT_EQ(fresh.resumedFrom, 0u);
    EXPECT_TRUE(fresh.completed);
}

TEST(Resume, CorruptNewestFallsBackToOlderCheckpoint)
{
    // Last-good-checkpoint recovery: when the newest checkpoint is
    // truncated (the classic crash-mid-write artifact), --resume
    // must fall back to the older tick-named sibling and still
    // reproduce the uninterrupted run bit-for-bit.
    const std::string dir = scratchDir("bl_resume_corrupt");
    AppSpec killed = testApp(7);
    killed.duration = msToTicks(900);
    ExperimentConfig cfg;
    cfg.snapshot.checkpointEvery = msToTicks(400);
    cfg.snapshot.checkpointDir = dir;
    const AppRunResult partial = Experiment(cfg).runApp(killed);
    ASSERT_EQ(partial.checkpoints.count, 2u);

    // Truncate the newest (800 ms) checkpoint to half its size.
    {
        FILE *f = std::fopen(partial.checkpoints.lastPath.c_str(),
                             "rb");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        const long size = std::ftell(f);
        std::fclose(f);
        ASSERT_GT(size, 0);
        ASSERT_EQ(::truncate(partial.checkpoints.lastPath.c_str(),
                             size / 2),
                  0);
    }

    const AppRunResult full = Experiment().runApp(testApp(7));

    ExperimentConfig resume_cfg;
    resume_cfg.snapshot.resumePath = partial.checkpoints.lastPath;
    const AppRunResult resumed =
        Experiment(resume_cfg).runApp(testApp(7));
    EXPECT_EQ(resumed.resumedFrom, msToTicks(400));
    EXPECT_EQ(fingerprint(resumed), fingerprint(full));
}

TEST(TraceReplay, IdenticalRunMatchesRecordedTrace)
{
    const std::string trace =
        ::testing::TempDir() + "bl_replay_match.trace";

    ExperimentConfig record_cfg;
    record_cfg.snapshot.recordTracePath = trace;
    (void)Experiment(record_cfg).runApp(testApp(5));

    ExperimentConfig replay_cfg;
    replay_cfg.snapshot.replayTracePath = trace;
    const AppRunResult r = Experiment(replay_cfg).runApp(testApp(5));
    EXPECT_FALSE(r.traceDiverged);
    EXPECT_TRUE(r.divergenceReport.empty());
    std::remove(trace.c_str());
}

TEST(TraceReplay, RecordAndReplayInOneRun)
{
    // One run can replay-compare against an earlier recording and
    // record its own trace at the same time.
    const std::string earlier =
        ::testing::TempDir() + "bl_replay_both_earlier.trace";
    const std::string again =
        ::testing::TempDir() + "bl_replay_both_again.trace";
    std::remove(again.c_str());

    ExperimentConfig record_cfg;
    record_cfg.snapshot.recordTracePath = earlier;
    (void)Experiment(record_cfg).runApp(testApp(5));

    ExperimentConfig both_cfg;
    both_cfg.snapshot.recordTracePath = again;
    both_cfg.snapshot.replayTracePath = earlier;
    const AppRunResult r = Experiment(both_cfg).runApp(testApp(5));
    EXPECT_FALSE(r.traceDiverged) << r.divergenceReport;

    const Result<EventTrace> first = EventTrace::readFile(earlier);
    const Result<EventTrace> second = EventTrace::readFile(again);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok()) << second.status().toString();
    EXPECT_FALSE(first.value().records.empty());
    EXPECT_EQ(second.value().encode(), first.value().encode());
    std::remove(earlier.c_str());
    std::remove(again.c_str());
}

TEST(TraceReplay, PerturbedRunReportsFirstDivergence)
{
    const std::string trace =
        ::testing::TempDir() + "bl_replay_diverge.trace";

    ExperimentConfig record_cfg;
    record_cfg.snapshot.recordTracePath = trace;
    (void)Experiment(record_cfg).runApp(testApp(5));

    // A different app seed shifts jitter draws: the runs diverge,
    // and the report must name the first differing event.
    ExperimentConfig replay_cfg;
    replay_cfg.snapshot.replayTracePath = trace;
    const AppRunResult r = Experiment(replay_cfg).runApp(testApp(6));
    EXPECT_TRUE(r.traceDiverged);
    EXPECT_NE(r.divergenceReport.find("first divergence"),
              std::string::npos);
    std::remove(trace.c_str());
}

TEST(TraceReplay, ChaosRunReplaysCleanly)
{
    // Fault-injected runs are deterministic too; their recorded
    // trace replays without divergence.
    const std::string trace =
        ::testing::TempDir() + "bl_replay_chaos.trace";

    ExperimentConfig record_cfg = faultyConfig(7);
    record_cfg.snapshot.recordTracePath = trace;
    (void)Experiment(record_cfg).runApp(testApp(7));

    ExperimentConfig replay_cfg = faultyConfig(7);
    replay_cfg.snapshot.replayTracePath = trace;
    const AppRunResult r = Experiment(replay_cfg).runApp(testApp(7));
    EXPECT_FALSE(r.traceDiverged) << r.divergenceReport;
    std::remove(trace.c_str());
}
