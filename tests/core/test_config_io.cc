/**
 * @file
 * Tests for the ExperimentConfig text format: parsing, defaults,
 * comments, error handling, and save/parse round-trips.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/config_io.hh"

using namespace biglittle;

namespace
{

/** Unwrap a Result<ExperimentConfig>, failing the test on error. */
ExperimentConfig
parseOk(const std::string &text)
{
    Result<ExperimentConfig> r = parseExperimentConfig(text);
    EXPECT_TRUE(r.ok()) << r.status().toString();
    return r.ok() ? r.value() : ExperimentConfig{};
}

/** The Status of a parse that is expected to fail. */
Status
parseErr(const std::string &text)
{
    Result<ExperimentConfig> r = parseExperimentConfig(text);
    EXPECT_FALSE(r.ok());
    return r.ok() ? okStatus() : r.status();
}

} // namespace

TEST(ConfigIo, EmptyTextYieldsDefaults)
{
    const ExperimentConfig cfg = parseOk("");
    EXPECT_EQ(cfg.governor, GovernorKind::interactive);
    EXPECT_EQ(cfg.sched.upThreshold, 700u);
    EXPECT_EQ(cfg.coreConfig.littleCores, 4u);
    EXPECT_EQ(cfg.coreConfig.bigCores, 4u);
    EXPECT_TRUE(cfg.thermalEnabled);
}

TEST(ConfigIo, ParsesAllKeyKinds)
{
    const ExperimentConfig cfg = parseOk(R"(
# a Section VI-C style point
governor = ondemand
label = my-point
interactive.sampling_ms = 60
interactive.target_load = 80
sched.up_threshold = 850
sched.down_threshold = 400
sched.half_life_ms = 64
sched.boost_khz = 0
cores.little = 2
cores.big = 1
thermal.enabled = false
sample_window_ms = 20
)");
    EXPECT_EQ(cfg.governor, GovernorKind::ondemand);
    EXPECT_EQ(cfg.label, "my-point");
    EXPECT_EQ(cfg.interactive.samplingRate, msToTicks(60));
    EXPECT_DOUBLE_EQ(cfg.interactive.targetLoad, 80.0);
    EXPECT_EQ(cfg.sched.upThreshold, 850u);
    EXPECT_EQ(cfg.sched.downThreshold, 400u);
    EXPECT_DOUBLE_EQ(cfg.sched.loadHalfLifeMs, 64.0);
    EXPECT_EQ(cfg.sched.upMigrationBoostFreq, 0u);
    EXPECT_EQ(cfg.coreConfig.littleCores, 2u);
    EXPECT_EQ(cfg.coreConfig.bigCores, 1u);
    EXPECT_EQ(cfg.coreConfig.label, "L2+B1");
    EXPECT_FALSE(cfg.thermalEnabled);
    EXPECT_EQ(cfg.sampleWindow, msToTicks(20));
}

TEST(ConfigIo, CommentsAndWhitespaceIgnored)
{
    const ExperimentConfig cfg = parseOk(
        "  # full-line comment\n"
        "\n"
        "   governor =   powersave   # trailing comment\n");
    EXPECT_EQ(cfg.governor, GovernorKind::powersave);
}

TEST(ConfigIo, BooleanSpellings)
{
    for (const char *yes : {"true", "1", "yes", "on"}) {
        const ExperimentConfig cfg =
            parseOk(std::string("thermal.enabled = ") + yes);
        EXPECT_TRUE(cfg.thermalEnabled) << yes;
    }
    for (const char *no : {"false", "0", "no", "off"}) {
        const ExperimentConfig cfg =
            parseOk(std::string("thermal.enabled = ") + no);
        EXPECT_FALSE(cfg.thermalEnabled) << no;
    }
}

TEST(ConfigIo, UnknownKeyIsAnError)
{
    const Status st = parseErr("bogus.key = 1");
    EXPECT_EQ(st.code(), StatusCode::invalidArgument);
    EXPECT_NE(st.message().find("unknown config key"),
              std::string::npos);
}

TEST(ConfigIo, UnknownKeyReportsLineNumber)
{
    const Status st = parseErr("# comment\n"
                               "governor = ondemand\n"
                               "bogus.key = 1\n");
    EXPECT_NE(st.message().find("line 3: unknown config key "
                                "'bogus.key'"),
              std::string::npos);
}

TEST(ConfigIo, MalformedLineIsAnError)
{
    const Status st = parseErr("governor interactive");
    EXPECT_NE(st.message().find("expected 'key = value'"),
              std::string::npos);
}

TEST(ConfigIo, NonNumericValueIsAnError)
{
    const Status st = parseErr("sched.up_threshold = high");
    EXPECT_NE(st.message().find("not a number"), std::string::npos);
}

TEST(ConfigIo, NonNumericValueReportsLineAndKey)
{
    const Status st = parseErr("\n\nsched.up_threshold = high");
    EXPECT_NE(st.message().find("line 3: key 'sched.up_threshold': "
                                "'high' is not a number"),
              std::string::npos);
}

TEST(ConfigIo, BadBooleanReportsLineAndKey)
{
    const Status st = parseErr("fault.enabled = maybe");
    EXPECT_NE(st.message().find("line 1: key 'fault.enabled': "
                                "'maybe' is not a boolean"),
              std::string::npos);
}

TEST(ConfigIo, UnknownGovernorIsAnError)
{
    const Status st = parseErr("governor = warpdrive");
    EXPECT_NE(st.message().find("unknown governor"),
              std::string::npos);
}

TEST(ConfigIo, NegativeUnsignedValueIsAnError)
{
    const Status st = parseErr("seed = -7");
    EXPECT_NE(st.message().find("out of range"), std::string::npos);
}

TEST(ConfigIo, OutOfRangeValuesAreRejectedWithLineAndKey)
{
    // Each value reached a component's assert (the timeslice: an
    // endless loop) before the parser range-checked it.
    const struct
    {
        const char *text;
        const char *where;
    } cases[] = {
        {"watchdog.stall_limit_sec = 0",
         "line 1: key 'watchdog.stall_limit_sec'"},
        {"watchdog.stall_limit_sec = -1",
         "line 1: key 'watchdog.stall_limit_sec'"},
        {"watchdog.stall_limit_sec = nan",
         "line 1: key 'watchdog.stall_limit_sec'"},
        {"watchdog.runaway_limit_sec = -5",
         "line 1: key 'watchdog.runaway_limit_sec'"},
        {"sample_window_ms = 0", "line 1: key 'sample_window_ms'"},
        {"interactive.sampling_ms = 0",
         "line 1: key 'interactive.sampling_ms'"},
        {"interactive.target_load = 0",
         "line 1: key 'interactive.target_load'"},
        {"interactive.target_load = 150",
         "line 1: key 'interactive.target_load'"},
        {"interactive.target_load = nan",
         "line 1: key 'interactive.target_load'"},
        {"sched.half_life_ms = 0", "line 1: key 'sched.half_life_ms'"},
        {"sched.half_life_ms = -3", "line 1: key 'sched.half_life_ms'"},
        {"sched.timeslice_ms = 0", "line 1: key 'sched.timeslice_ms'"},
        {"fault.enabled = true\nfault.draw_period_ms = 0",
         "line 2: key 'fault.draw_period_ms'"},
        {"fault.enabled = true\nfault.dvfs_deny_prob = 2",
         "line 2: key 'fault.dvfs_deny_prob'"},
        {"fault.enabled = true\nfault.dvfs_delay_prob = -0.5",
         "line 2: key 'fault.dvfs_delay_prob'"},
        {"fault.dvfs_delay_prob = nan",
         "line 1: key 'fault.dvfs_delay_prob'"},
        {"thermal.hot_trip_c = 10", "line 1: key 'thermal.hot_trip_c'"},
        {"thermal.cool_trip_c = 200",
         "line 1: key 'thermal.cool_trip_c'"},
        {"thermal.hot_trip_c = nan",
         "line 1: key 'thermal.hot_trip_c'"},
        // Cross-key: blamed on the last trip key read.
        {"thermal.cool_trip_c = 60\nthermal.hot_trip_c = 60\nseed = 1",
         "line 2: key 'thermal.hot_trip_c'"},
        // The message prints both trip points exactly.
        {"thermal.cool_trip_c = 75.0000001\nthermal.hot_trip_c = 75",
         "line 2: key 'thermal.hot_trip_c': thermal.hot_trip_c (75) must "
         "be above thermal.cool_trip_c (75.0000001)"},
        // Too big for the field: narrowing or scaling into ticks
        // would wrap them to a small, valid-looking value.
        {"sched.up_threshold = 4294967297",
         "line 1: key 'sched.up_threshold'"},
        {"cores.little = 4294967300", "line 1: key 'cores.little'"},
        {"userspace.big_khz = 4295967296",
         "line 1: key 'userspace.big_khz'"},
        {"sched.boost_khz = 4294967296", "line 1: key 'sched.boost_khz'"},
        {"fault.persistent_crash_core = 4294967296",
         "line 1: key 'fault.persistent_crash_core'"},
        {"interactive.sampling_ms = 18446744073710",
         "line 1: key 'interactive.sampling_ms'"},
        {"snapshot.checkpoint_every_ms = 18446744073710",
         "line 1: key 'snapshot.checkpoint_every_ms'"},
        {"fault.dvfs_extra_latency_us = 18446744073709552",
         "line 1: key 'fault.dvfs_extra_latency_us'"},
    };
    for (const auto &c : cases) {
        const Status st = parseErr(c.text);
        EXPECT_EQ(st.code(), StatusCode::invalidArgument) << c.text;
        EXPECT_NE(st.message().find(c.where), std::string::npos)
            << c.text << " -> " << st.message();
    }

    // The edges of each range stay accepted.
    const ExperimentConfig cfg = parseOk("interactive.target_load = 100\n"
                                         "fault.dvfs_deny_prob = 1\n"
                                         "fault.dvfs_delay_prob = 0\n"
                                         "watchdog.runaway_limit_sec = 0\n"
                                         "sched.timeslice_ms = 1\n"
                                         "thermal.hot_trip_c = 200\n"
                                         "thermal.cool_trip_c = 199\n"
                                         "fault.persistent_crash_core = "
                                         "4294967295\n"
                                         "snapshot.checkpoint_every_ms = "
                                         "18446744073709\n");
    EXPECT_DOUBLE_EQ(cfg.interactive.targetLoad, 100.0);
    EXPECT_EQ(cfg.sched.timeslice, msToTicks(1));
    EXPECT_DOUBLE_EQ(cfg.thermal.coolTripC, 199.0);
    // What saveExperimentConfig writes for "no core".
    EXPECT_EQ(cfg.fault.persistentCrashCore, invalidCoreId);
    EXPECT_EQ(cfg.snapshot.checkpointEvery, msToTicks(18446744073709));
}

TEST(ConfigIo, EmptyKeyOrValueIsAnError)
{
    EXPECT_NE(parseErr("= 5").message().find("empty key or value"),
              std::string::npos);
    EXPECT_NE(parseErr("seed =").message().find("empty key or value"),
              std::string::npos);
}

TEST(ConfigIo, MissingFileIsAnError)
{
    Result<ExperimentConfig> r =
        loadExperimentConfig("/nonexistent/x.conf");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::notFound);
    EXPECT_NE(r.status().message().find("cannot open config"),
              std::string::npos);
}

TEST(ConfigIo, SaveParseRoundTrip)
{
    ExperimentConfig cfg;
    cfg.governor = GovernorKind::schedutil;
    cfg.label = "round-trip";
    cfg.interactive.samplingRate = msToTicks(100);
    cfg.interactive.targetLoad = 60.0;
    cfg.sched.upThreshold = 550;
    cfg.sched.downThreshold = 100;
    cfg.sched.loadHalfLifeMs = 16.0;
    cfg.sched.upMigrationBoostFreq = 1700000;
    cfg.coreConfig = {3, 2, "L3+B2"};
    cfg.thermalEnabled = false;
    cfg.userspaceBigFreq = 1100000;

    const ExperimentConfig back =
        parseOk(saveExperimentConfig(cfg));
    EXPECT_EQ(back.governor, cfg.governor);
    EXPECT_EQ(back.label, cfg.label);
    EXPECT_EQ(back.interactive.samplingRate,
              cfg.interactive.samplingRate);
    EXPECT_DOUBLE_EQ(back.interactive.targetLoad,
                     cfg.interactive.targetLoad);
    EXPECT_EQ(back.sched.upThreshold, cfg.sched.upThreshold);
    EXPECT_EQ(back.sched.downThreshold, cfg.sched.downThreshold);
    EXPECT_DOUBLE_EQ(back.sched.loadHalfLifeMs,
                     cfg.sched.loadHalfLifeMs);
    EXPECT_EQ(back.sched.upMigrationBoostFreq,
              cfg.sched.upMigrationBoostFreq);
    EXPECT_EQ(back.coreConfig.littleCores, cfg.coreConfig.littleCores);
    EXPECT_EQ(back.coreConfig.bigCores, cfg.coreConfig.bigCores);
    EXPECT_EQ(back.thermalEnabled, cfg.thermalEnabled);
    EXPECT_EQ(back.userspaceBigFreq, cfg.userspaceBigFreq);
}

TEST(ConfigIo, EveryDoubleRoundTripsBitForBit)
{
    // Each value needs more significant digits than %g's six.
    ExperimentConfig cfg;
    cfg.interactive.targetLoad = 70.123456789;
    cfg.interactive.goHispeedLoad = 85.000000001;
    cfg.interactive.hispeedFraction = 0.1 + 0.2;
    cfg.sched.loadHalfLifeMs = 31.987654321;
    cfg.thermal.hotTripC = 75.0000001; // %g saves both as 75
    cfg.thermal.coolTripC = 75.0;
    cfg.fault.hotplugRatePerSec = 2.718281828459045;
    cfg.fault.dvfsDenyProb = 0.123456789012;
    cfg.fault.dvfsDelayProb = 1.0 / 3.0;
    cfg.fault.thermalSpikeRatePerSec = 1.0000001;
    cfg.fault.thermalSpikeC = 46.0 / 3.0;
    cfg.fault.taskStallRatePerSec = 3.14159265358979;
    cfg.fault.taskStallInstructions = 5000001.5;
    cfg.fault.crashRatePerSec = 3.3333333e-07;
    cfg.fault.invariantBreakRatePerSec = 0.000123456789;
    cfg.watchdog.stallLimitSec = 45.0000001;
    cfg.watchdog.runawayLimitSec = 900.00000001;

    const ExperimentConfig back =
        parseOk(saveExperimentConfig(cfg));
    EXPECT_EQ(back.interactive.targetLoad, cfg.interactive.targetLoad);
    EXPECT_EQ(back.interactive.goHispeedLoad,
              cfg.interactive.goHispeedLoad);
    EXPECT_EQ(back.interactive.hispeedFraction,
              cfg.interactive.hispeedFraction);
    EXPECT_EQ(back.sched.loadHalfLifeMs, cfg.sched.loadHalfLifeMs);
    EXPECT_EQ(back.thermal.hotTripC, cfg.thermal.hotTripC);
    EXPECT_EQ(back.thermal.coolTripC, cfg.thermal.coolTripC);
    EXPECT_EQ(back.fault.hotplugRatePerSec, cfg.fault.hotplugRatePerSec);
    EXPECT_EQ(back.fault.dvfsDenyProb, cfg.fault.dvfsDenyProb);
    EXPECT_EQ(back.fault.dvfsDelayProb, cfg.fault.dvfsDelayProb);
    EXPECT_EQ(back.fault.thermalSpikeRatePerSec,
              cfg.fault.thermalSpikeRatePerSec);
    EXPECT_EQ(back.fault.thermalSpikeC, cfg.fault.thermalSpikeC);
    EXPECT_EQ(back.fault.taskStallRatePerSec,
              cfg.fault.taskStallRatePerSec);
    EXPECT_EQ(back.fault.taskStallInstructions,
              cfg.fault.taskStallInstructions);
    EXPECT_EQ(back.fault.crashRatePerSec, cfg.fault.crashRatePerSec);
    EXPECT_EQ(back.fault.invariantBreakRatePerSec,
              cfg.fault.invariantBreakRatePerSec);
    EXPECT_EQ(back.watchdog.stallLimitSec, cfg.watchdog.stallLimitSec);
    EXPECT_EQ(back.watchdog.runawayLimitSec,
              cfg.watchdog.runawayLimitSec);
}

TEST(ConfigIo, ParsesFaultKeys)
{
    const ExperimentConfig cfg = parseOk(R"(
fault.enabled = true
fault.seed = 99
fault.draw_period_ms = 5
fault.hotplug_rate_hz = 2.5
fault.hotplug_downtime_ms = 100
fault.dvfs_deny_prob = 0.25
fault.dvfs_delay_prob = 0.1
fault.dvfs_extra_latency_us = 750
fault.thermal_spike_rate_hz = 1.5
fault.thermal_spike_c = 15
fault.task_stall_rate_hz = 3
fault.task_stall_instructions = 5e6
)");
    EXPECT_TRUE(cfg.fault.enabled);
    EXPECT_EQ(cfg.fault.seed, 99u);
    EXPECT_EQ(cfg.fault.drawPeriod, msToTicks(5));
    EXPECT_DOUBLE_EQ(cfg.fault.hotplugRatePerSec, 2.5);
    EXPECT_EQ(cfg.fault.hotplugDownTime, msToTicks(100));
    EXPECT_DOUBLE_EQ(cfg.fault.dvfsDenyProb, 0.25);
    EXPECT_DOUBLE_EQ(cfg.fault.dvfsDelayProb, 0.1);
    EXPECT_EQ(cfg.fault.dvfsExtraLatency, usToTicks(750));
    EXPECT_DOUBLE_EQ(cfg.fault.thermalSpikeRatePerSec, 1.5);
    EXPECT_DOUBLE_EQ(cfg.fault.thermalSpikeC, 15.0);
    EXPECT_DOUBLE_EQ(cfg.fault.taskStallRatePerSec, 3.0);
    EXPECT_DOUBLE_EQ(cfg.fault.taskStallInstructions, 5e6);
}

TEST(ConfigIo, FaultKeysRoundTrip)
{
    ExperimentConfig cfg;
    cfg.fault = scaledFaultParams(1.5, 31);
    const ExperimentConfig back =
        parseOk(saveExperimentConfig(cfg));
    EXPECT_EQ(back.fault.enabled, cfg.fault.enabled);
    EXPECT_EQ(back.fault.seed, cfg.fault.seed);
    EXPECT_DOUBLE_EQ(back.fault.hotplugRatePerSec,
                     cfg.fault.hotplugRatePerSec);
    EXPECT_EQ(back.fault.hotplugDownTime, cfg.fault.hotplugDownTime);
    EXPECT_DOUBLE_EQ(back.fault.dvfsDenyProb, cfg.fault.dvfsDenyProb);
    EXPECT_DOUBLE_EQ(back.fault.dvfsDelayProb,
                     cfg.fault.dvfsDelayProb);
    EXPECT_EQ(back.fault.dvfsExtraLatency, cfg.fault.dvfsExtraLatency);
    EXPECT_DOUBLE_EQ(back.fault.thermalSpikeRatePerSec,
                     cfg.fault.thermalSpikeRatePerSec);
    EXPECT_DOUBLE_EQ(back.fault.thermalSpikeC, cfg.fault.thermalSpikeC);
    EXPECT_DOUBLE_EQ(back.fault.taskStallRatePerSec,
                     cfg.fault.taskStallRatePerSec);
    EXPECT_DOUBLE_EQ(back.fault.taskStallInstructions,
                     cfg.fault.taskStallInstructions);
}

TEST(ConfigIo, FileRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "biglittle_config_test.conf";
    ExperimentConfig cfg;
    cfg.governor = GovernorKind::conservative;
    cfg.coreConfig = {2, 2, "L2+B2"};
    ASSERT_TRUE(writeExperimentConfig(cfg, path).ok());
    Result<ExperimentConfig> back = loadExperimentConfig(path);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back.value().governor, GovernorKind::conservative);
    EXPECT_EQ(back.value().coreConfig.bigCores, 2u);
    std::remove(path.c_str());
}

TEST(ConfigIo, GovernorNamesRoundTrip)
{
    for (const GovernorKind kind :
         {GovernorKind::interactive, GovernorKind::performance,
          GovernorKind::powersave, GovernorKind::ondemand,
          GovernorKind::conservative, GovernorKind::schedutil,
          GovernorKind::userspace}) {
        Result<GovernorKind> back =
            governorKindFromName(governorKindName(kind));
        ASSERT_TRUE(back.ok());
        EXPECT_EQ(back.value(), kind);
    }
}

TEST(ConfigIo, ParsesSnapshotAndWatchdogKeys)
{
    const ExperimentConfig cfg = parseOk(R"(
seed = 777
snapshot.checkpoint_every_ms = 250
snapshot.checkpoint_dir = /tmp/ckpts
snapshot.resume = /tmp/ckpts/run.ckpt
snapshot.record_trace = /tmp/run.trace
watchdog.enabled = true
watchdog.stall_limit_sec = 12.5
watchdog.runaway_limit_sec = 3600
watchdog.report = /tmp/watchdog.txt
watchdog.ring_depth = 128
)");
    EXPECT_EQ(cfg.masterSeed, 777u);
    EXPECT_EQ(cfg.snapshot.checkpointEvery, msToTicks(250));
    EXPECT_EQ(cfg.snapshot.checkpointDir, "/tmp/ckpts");
    EXPECT_EQ(cfg.snapshot.resumePath, "/tmp/ckpts/run.ckpt");
    EXPECT_EQ(cfg.snapshot.recordTracePath, "/tmp/run.trace");
    EXPECT_TRUE(cfg.watchdog.enabled);
    EXPECT_DOUBLE_EQ(cfg.watchdog.stallLimitSec, 12.5);
    EXPECT_DOUBLE_EQ(cfg.watchdog.runawayLimitSec, 3600.0);
    EXPECT_EQ(cfg.watchdog.reportPath, "/tmp/watchdog.txt");
    EXPECT_EQ(cfg.watchdog.ringDepth, 128u);
}

TEST(ConfigIo, ParsesReplayTraceKey)
{
    const ExperimentConfig cfg =
        parseOk("snapshot.replay_trace = /tmp/ref.trace");
    EXPECT_EQ(cfg.snapshot.replayTracePath, "/tmp/ref.trace");
}

TEST(ConfigIo, SnapshotAndWatchdogKeysRoundTrip)
{
    ExperimentConfig cfg;
    cfg.masterSeed = 424242;
    cfg.snapshot.checkpointEvery = msToTicks(500);
    cfg.snapshot.checkpointDir = "/var/ckpt";
    cfg.snapshot.resumePath = "/var/ckpt/app.default.5.ckpt";
    cfg.snapshot.recordTracePath = "/var/ckpt/app.trace";
    cfg.watchdog.enabled = true;
    cfg.watchdog.stallLimitSec = 45.0;
    cfg.watchdog.runawayLimitSec = 900.0;
    cfg.watchdog.reportPath = "/var/ckpt/dog.txt";
    cfg.watchdog.ringDepth = 32;

    const ExperimentConfig back =
        parseOk(saveExperimentConfig(cfg));
    EXPECT_EQ(back.masterSeed, cfg.masterSeed);
    EXPECT_EQ(back.snapshot.checkpointEvery,
              cfg.snapshot.checkpointEvery);
    EXPECT_EQ(back.snapshot.checkpointDir, cfg.snapshot.checkpointDir);
    EXPECT_EQ(back.snapshot.resumePath, cfg.snapshot.resumePath);
    EXPECT_EQ(back.snapshot.recordTracePath,
              cfg.snapshot.recordTracePath);
    EXPECT_EQ(back.watchdog.enabled, cfg.watchdog.enabled);
    EXPECT_DOUBLE_EQ(back.watchdog.stallLimitSec,
                     cfg.watchdog.stallLimitSec);
    EXPECT_DOUBLE_EQ(back.watchdog.runawayLimitSec,
                     cfg.watchdog.runawayLimitSec);
    EXPECT_EQ(back.watchdog.reportPath, cfg.watchdog.reportPath);
    EXPECT_EQ(back.watchdog.ringDepth, cfg.watchdog.ringDepth);
}

TEST(ConfigIo, DefaultSnapshotConfigRoundTripsWithEmptyPaths)
{
    // Empty path values are omitted on save (the parser rejects a
    // key with no value), so defaults must survive a round trip.
    const ExperimentConfig back =
        parseOk(saveExperimentConfig(ExperimentConfig{}));
    EXPECT_EQ(back.masterSeed, 0u);
    EXPECT_EQ(back.snapshot.checkpointEvery, 0u);
    EXPECT_TRUE(back.snapshot.resumePath.empty());
    EXPECT_TRUE(back.snapshot.recordTracePath.empty());
    EXPECT_TRUE(back.snapshot.replayTracePath.empty());
    EXPECT_FALSE(back.watchdog.enabled);
}
