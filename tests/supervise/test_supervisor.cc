/**
 * @file
 * Supervisor unit suite: the rollback-retry state machine over real
 * (small) experiment runs.  Clean pass-through, quarantine of a
 * persistently failing core, class-disable fallback when the faulty
 * core cannot be hotplugged out, fresh-start recovery without
 * checkpoints, byte-identical recovery decisions per seed, a fresh
 * restart after a rollback target fails verification, and a golden
 * of the report digests of a small chaos sweep.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "base/strutil.hh"
#include "supervise/supervisor.hh"
#include "workload/apps.hh"

using namespace biglittle;

namespace
{

AppSpec
shortApp(Tick duration = msToTicks(2000))
{
    // Duration-driven fps app: completes once the window elapses, so
    // a short run still ends with completed = true.
    AppSpec app = eternityWarrior2App();
    app.duration = duration;
    return app;
}

/** Config with periodic checkpoints. */
ExperimentConfig
supervisedConfig(const std::string &name, std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.masterSeed = seed;
    cfg.label = name;
    cfg.snapshot.checkpointEvery = msToTicks(200);
    return cfg;
}

/** abrun's cell config under --chaos, with the watchdog off. */
ExperimentConfig
chaosCellConfig(std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.masterSeed = seed;
    cfg.label = format("abrun.s%llu", static_cast<unsigned long long>(seed));
    cfg.snapshot.checkpointEvery = msToTicks(200);
    cfg.fault.enabled = true;
    cfg.fault.hotplugRatePerSec = 2.0;
    cfg.fault.thermalSpikeRatePerSec = 1.0;
    cfg.fault.taskStallRatePerSec = 1.0;
    cfg.fault.crashRatePerSec = 0.2;
    cfg.fault.invariantBreakRatePerSec = 0.2;
    return cfg;
}

} // namespace

TEST(Supervisor, CleanRunPassesThrough)
{
    ExperimentConfig cfg = supervisedConfig("sup_clean", 11);
    Supervisor supervisor(cfg);
    const SupervisedRunResult r = supervisor.run(shortApp());
    EXPECT_EQ(r.report.outcome, RecoveryOutcome::clean);
    EXPECT_EQ(r.report.attempts, 1u);
    EXPECT_EQ(r.report.retries, 0u);
    EXPECT_TRUE(r.report.events.empty());
    EXPECT_FALSE(r.run.failed);
    EXPECT_TRUE(r.run.completed);
    EXPECT_NE(r.report.finalStateDigest, 0u);
    EXPECT_EQ(r.report.finalStateDigest, finalStateDigest(r.run));
}

TEST(Supervisor, PersistentCrashIsQuarantinedAndRunContinues)
{
    // Core 6 (a big core, not the boot core) develops failing
    // silicon mid-run.  Retries with a perturbed fault stream cannot
    // cure a deterministic persistent fault, so the supervisor must
    // escalate: hotplug the core out and continue degraded.
    ExperimentConfig cfg = supervisedConfig("sup_pcrash", 21);
    cfg.fault.enabled = true;
    cfg.fault.persistentCrashCore = 6;
    cfg.fault.persistentCrashAt = msToTicks(700);
    Supervisor supervisor(cfg);
    const SupervisedRunResult r = supervisor.run(shortApp());
    EXPECT_EQ(r.report.outcome, RecoveryOutcome::degraded);
    EXPECT_FALSE(r.run.failed);
    EXPECT_GE(r.report.quarantines, 1u);
    bool quarantined_core6 = false;
    for (const RecoveryEvent &ev : r.report.events) {
        EXPECT_EQ(ev.trigger, RecoveryTrigger::fatalFault);
        for (const RecoveryAction &act : ev.actions) {
            if (act.kind == RecoveryActionKind::quarantineCore &&
                act.arg == 6)
                quarantined_core6 = true;
        }
    }
    EXPECT_TRUE(quarantined_core6);
}

TEST(Supervisor, BootCoreCrashFallsBackToClassDisable)
{
    // The boot core cannot be hotplugged out, so the quarantine
    // action cannot stick; the next rung disables the crash class
    // entirely and the run still completes.
    ExperimentConfig cfg = supervisedConfig("sup_bootcrash", 31);
    cfg.fault.enabled = true;
    cfg.fault.persistentCrashCore = 0;
    cfg.fault.persistentCrashAt = msToTicks(700);
    Supervisor supervisor(cfg);
    const SupervisedRunResult r = supervisor.run(shortApp());
    EXPECT_EQ(r.report.outcome, RecoveryOutcome::degraded);
    EXPECT_FALSE(r.run.failed);
    bool disabled_crash = false;
    for (const RecoveryEvent &ev : r.report.events) {
        for (const RecoveryAction &act : ev.actions) {
            if (act.kind == RecoveryActionKind::disableFaultClass &&
                act.arg ==
                    static_cast<std::uint64_t>(FaultClass::crash))
                disabled_crash = true;
        }
    }
    EXPECT_TRUE(disabled_crash);
}

TEST(Supervisor, RecoversByFreshRestartWithoutCheckpoints)
{
    // No periodic checkpoints: every rollback is a fresh start, and
    // recovery actions scripted at tick 0 apply before any event
    // runs.  The quarantine must still land and the run complete.
    ExperimentConfig cfg = supervisedConfig("sup_nockpt", 41);
    cfg.snapshot.checkpointEvery = 0;
    cfg.fault.enabled = true;
    cfg.fault.persistentCrashCore = 5;
    cfg.fault.persistentCrashAt = msToTicks(500);
    Supervisor supervisor(cfg);
    const SupervisedRunResult r = supervisor.run(shortApp());
    EXPECT_EQ(r.report.outcome, RecoveryOutcome::degraded);
    EXPECT_FALSE(r.run.failed);
    for (const RecoveryEvent &ev : r.report.events)
        EXPECT_EQ(ev.rollbackTo, 0u);
}

TEST(Supervisor, InjectedInvariantBreaksAreRecovered)
{
    ExperimentConfig cfg = supervisedConfig("sup_inv", 51);
    cfg.fault.enabled = true;
    cfg.fault.invariantBreakRatePerSec = 3.0;
    Supervisor supervisor(cfg);
    const SupervisedRunResult r = supervisor.run(shortApp());
    EXPECT_NE(r.report.outcome, RecoveryOutcome::failed);
    EXPECT_FALSE(r.run.failed);
    EXPECT_GE(r.report.attempts, 2u);
}

TEST(Supervisor, RecoveryDecisionsAreDeterministicPerSeed)
{
    // The whole point of scripted recovery: two supervised runs of
    // the same master seed make byte-identical decisions and land on
    // the same final state digest.
    const auto run_once = [](const std::string &label) {
        ExperimentConfig cfg = supervisedConfig(label, 61);
        cfg.fault.enabled = true;
        cfg.fault.persistentCrashCore = 6;
        cfg.fault.persistentCrashAt = msToTicks(700);
        cfg.fault.hotplugRatePerSec = 1.0;
        Supervisor supervisor(cfg);
        return supervisor.run(shortApp());
    };
    const SupervisedRunResult a = run_once("sup_det_a");
    const SupervisedRunResult b = run_once("sup_det_b");
    EXPECT_EQ(a.report.toString(), b.report.toString());
    EXPECT_EQ(a.report.finalStateDigest, b.report.finalStateDigest);
    EXPECT_EQ(a.report.digest(), b.report.digest());
    ASSERT_EQ(a.report.events.size(), b.report.events.size());
}

TEST(Supervisor, ReportRendersActionsAndDigest)
{
    ExperimentConfig cfg = supervisedConfig("sup_render", 21);
    cfg.fault.enabled = true;
    cfg.fault.persistentCrashCore = 6;
    cfg.fault.persistentCrashAt = msToTicks(700);
    Supervisor supervisor(cfg);
    const SupervisedRunResult r = supervisor.run(shortApp());
    const std::string text = r.report.toString();
    EXPECT_NE(text.find("outcome=degraded"), std::string::npos);
    EXPECT_NE(text.find("fatal-fault:cpu6"), std::string::npos);
    EXPECT_NE(text.find("quarantine-core(6)"), std::string::npos);
    EXPECT_NE(text.find("digest=0x"), std::string::npos);
}

TEST(Supervisor, ChaosRecoveryDigestsMatchGolden)
{
    // Every latency app x seeds 1-3 under abrun's --chaos cell config
    // (a cell's report does not depend on the watchdog while it never
    // trips).  The table pins each cell's outcome and report digest:
    // a change that moves any recovery decision shows up here.
    const std::string golden = R"(
pdf_reader s1 recovered a453448e4c4af2b9
pdf_reader s2 clean 007efa5f757573a9
pdf_reader s3 clean 6d535c3ec7c5eef5
video_editor s1 recovered 649b2985fd986908
video_editor s2 clean 09cc03a94fc0fad8
video_editor s3 clean dec691b7c4fe744b
photo_editor s1 recovered de26d002a6eb279b
photo_editor s2 clean 8e223de671ab34fb
photo_editor s3 clean 1f4afcbc5c3ffc2b
bbench s1 recovered d28b32261012ef1b
bbench s2 clean 2a37696f013d6553
bbench s3 degraded e9c5a05591f07a8c
virus_scanner s1 recovered bbeb788884b96c6e
virus_scanner s2 clean acdd367e49443c55
virus_scanner s3 degraded 692fdaf39ec8296a
browser s1 recovered ae701db21366886b
browser s2 recovered 2642f654ad46d0da
browser s3 degraded 3ed8de25057efe2c
encoder s1 recovered 7795cdd1bb9798b2
encoder s2 recovered 4356171ff2aff75e
encoder s3 degraded 8b862ea17d972576
)";
    std::string actual = "\n";
    for (const AppSpec &app : latencyApps()) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            Supervisor supervisor(chaosCellConfig(seed));
            const RecoveryReport report = supervisor.run(app).report;
            actual += format("%s s%llu %s %016llx\n", app.name.c_str(),
                             static_cast<unsigned long long>(seed),
                             recoveryOutcomeName(report.outcome),
                             static_cast<unsigned long long>(
                                 report.digest()));
        }
    }
    EXPECT_EQ(actual, golden) << "actual table:" << actual;
}

TEST(Supervisor, DivergentRollbackTargetRestartsFresh)
{
    // A rollback target whose digests the re-executed state does not
    // reach fails resume verification.  The supervisor retries from
    // a fresh start (the failed attempt kept no checkpoint) and ends
    // on the same state as a clean supervised run.
    ExperimentConfig cfg = supervisedConfig("sup_diverge", 5);
    const SupervisedRunResult clean = Supervisor(cfg).run(bbenchApp());
    ASSERT_EQ(clean.report.outcome, RecoveryOutcome::clean);

    ExperimentConfig attempt = cfg;
    attempt.recovery.supervised = true;
    const AppRunResult first = Experiment(attempt).runApp(bbenchApp());
    ASSERT_FALSE(first.checkpoints.kept.empty());
    Checkpoint target = first.checkpoints.kept.back();
    target.sections.back().second ^= 1;

    cfg.recovery.rollback = target;
    const SupervisedRunResult r = Supervisor(cfg).run(bbenchApp());
    EXPECT_EQ(r.report.outcome, RecoveryOutcome::recovered);
    EXPECT_EQ(r.report.attempts, 2u);
    ASSERT_EQ(r.report.events.size(), 1u);
    EXPECT_EQ(r.report.events[0].trigger,
              RecoveryTrigger::resumeDivergence);
    EXPECT_EQ(r.report.events[0].rollbackTo, 0u);
    EXPECT_EQ(r.report.finalStateDigest, clean.report.finalStateDigest);
}

TEST(Supervisor, RollbackNeedsNoCheckpointFiles)
{
    // bbench seed 1 of the golden rolls back to its 800 ms checkpoint.
    // That target lives in memory, so the run leaves the checkpoint
    // dir empty and does not depend on the dir being writable.
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir()) /
        format("sup_nofiles_%d", static_cast<int>(getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    ExperimentConfig cfg = chaosCellConfig(1);
    cfg.snapshot.checkpointDir = dir.string();
    const SupervisedRunResult a = Supervisor(cfg).run(bbenchApp());
    ASSERT_FALSE(a.report.events.empty());
    EXPECT_EQ(a.report.events.back().rollbackTo, msToTicks(800));
    EXPECT_TRUE(fs::is_empty(dir));

    cfg.snapshot.checkpointDir = (dir / "missing").string();
    const SupervisedRunResult b = Supervisor(cfg).run(bbenchApp());
    EXPECT_EQ(b.report.digest(), a.report.digest())
        << a.report.toString() << b.report.toString();
    fs::remove_all(dir);
}
