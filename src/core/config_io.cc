#include "core/config_io.hh"

#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>

#include "base/logging.hh"
#include "base/strutil.hh"

namespace biglittle
{

Result<GovernorKind>
governorKindFromName(const std::string &name)
{
    const std::string lower = toLower(name);
    if (lower == "interactive")
        return GovernorKind::interactive;
    if (lower == "performance")
        return GovernorKind::performance;
    if (lower == "powersave")
        return GovernorKind::powersave;
    if (lower == "ondemand")
        return GovernorKind::ondemand;
    if (lower == "conservative")
        return GovernorKind::conservative;
    if (lower == "schedutil")
        return GovernorKind::schedutil;
    if (lower == "userspace")
        return GovernorKind::userspace;
    return invalidArgument(format("unknown governor '%s'",
                                  name.c_str()));
}

namespace
{

/**
 * @p v in the shortest form strtod() reads back bit for bit; %g
 * keeps only six significant digits.
 */
std::string
exactDouble(double v)
{
    char buf[32];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

std::string
trim(const std::string &s)
{
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    const auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

Result<double>
parseNumber(int line_no, const std::string &key,
            const std::string &value)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0')
        return invalidArgument(
            format("config line %d: key '%s': '%s' is not a number",
                   line_no, key.c_str(), value.c_str()));
    return v;
}

Result<bool>
parseBool(int line_no, const std::string &key,
          const std::string &value)
{
    const std::string lower = toLower(value);
    if (lower == "true" || lower == "1" || lower == "yes" ||
        lower == "on")
        return true;
    if (lower == "false" || lower == "0" || lower == "no" ||
        lower == "off")
        return false;
    return invalidArgument(
        format("config line %d: key '%s': '%s' is not a boolean",
               line_no, key.c_str(), value.c_str()));
}

Status
applyKey(ExperimentConfig &cfg, int line_no, const std::string &key,
         const std::string &value)
{
    // Sticky-error accessors: the first malformed value records the
    // Status and every later use yields a harmless zero, so each
    // key's branch below can stay a one-liner.
    Status st = okStatus();
    const auto num = [&]() -> double {
        Result<double> r = parseNumber(line_no, key, value);
        if (!r.ok()) {
            if (st.ok())
                st = r.status();
            return 0;
        }
        return r.value();
    };
    // Unsigned fields go through unum(max): casting a negative or
    // huge double straight to an unsigned type is undefined behavior,
    // and a value above @p max would wrap when narrowed to its field
    // or scaled into ticks, so both are rejected before the cast.
    const auto unum = [&](std::uint64_t max) -> std::uint64_t {
        const double v = num();
        if (!st.ok())
            return 0;
        if (!(v >= 0.0) || v >= 18446744073709551616.0 ||
            static_cast<std::uint64_t>(v) > max) {
            st = invalidArgument(format(
                "config line %d: key '%s': '%s' is out of range",
                line_no, key.c_str(), value.c_str()));
            return 0;
        }
        return static_cast<std::uint64_t>(v);
    };
    const auto u32 = [&] {
        return static_cast<std::uint32_t>(
            unum(std::numeric_limits<std::uint32_t>::max()));
    };
    const auto u64 = [&] {
        return unum(std::numeric_limits<std::uint64_t>::max());
    };
    const auto msTicks = [&] { return msToTicks(unum(maxTick / oneMs)); };
    const auto usTicks = [&] { return usToTicks(unum(maxTick / oneUs)); };
    const auto boolean = [&]() -> bool {
        Result<bool> r = parseBool(line_no, key, value);
        if (!r.ok()) {
            if (st.ok())
                st = r.status();
            return false;
        }
        return r.value();
    };
    // Reject a parsed value its component would assert on (or, for
    // the timeslice, spin on).  Each condition mirrors the
    // component's check and is false for NaN.
    const auto require = [&](bool in_range, const char *range) {
        if (st.ok() && !in_range)
            st = invalidArgument(format(
                "config line %d: key '%s': '%s' is out of range "
                "(must be %s)",
                line_no, key.c_str(), value.c_str(), range));
    };
    if (key == "governor") {
        Result<GovernorKind> g = governorKindFromName(value);
        if (!g.ok())
            return invalidArgument(format("config line %d: %s", line_no,
                                          g.status().message().c_str()));
        cfg.governor = g.value();
    } else if (key == "label") {
        cfg.label = value;
    } else if (key == "interactive.sampling_ms") {
        cfg.interactive.samplingRate = msTicks();
        require(cfg.interactive.samplingRate > 0, "at least 1");
    } else if (key == "interactive.target_load") {
        cfg.interactive.targetLoad = num();
        require(cfg.interactive.targetLoad > 0.0 &&
                    cfg.interactive.targetLoad <= 100.0,
                "above 0 and at most 100");
    } else if (key == "interactive.go_hispeed_load") {
        cfg.interactive.goHispeedLoad = num();
    } else if (key == "interactive.hispeed_fraction") {
        cfg.interactive.hispeedFraction = num();
    } else if (key == "sched.up_threshold") {
        cfg.sched.upThreshold = u32();
    } else if (key == "sched.down_threshold") {
        cfg.sched.downThreshold = u32();
    } else if (key == "sched.half_life_ms") {
        cfg.sched.loadHalfLifeMs = num();
        require(cfg.sched.loadHalfLifeMs > 0.0, "above 0");
    } else if (key == "sched.timeslice_ms") {
        cfg.sched.timeslice = msTicks();
        require(cfg.sched.timeslice > 0, "at least 1");
    } else if (key == "sched.boost_khz") {
        cfg.sched.upMigrationBoostFreq = u32();
    } else if (key == "cores.little") {
        cfg.coreConfig.littleCores = u32();
    } else if (key == "cores.big") {
        cfg.coreConfig.bigCores = u32();
    } else if (key == "thermal.enabled") {
        cfg.thermalEnabled = boolean();
    } else if (key == "thermal.hot_trip_c") {
        cfg.thermal.hotTripC = num();
    } else if (key == "thermal.cool_trip_c") {
        cfg.thermal.coolTripC = num();
    } else if (key == "userspace.little_khz") {
        cfg.userspaceLittleFreq = u32();
    } else if (key == "userspace.big_khz") {
        cfg.userspaceBigFreq = u32();
    } else if (key == "sample_window_ms") {
        cfg.sampleWindow = msTicks();
        require(cfg.sampleWindow > 0, "at least 1");
    } else if (key == "fault.enabled") {
        cfg.fault.enabled = boolean();
    } else if (key == "fault.seed") {
        cfg.fault.seed = u64();
    } else if (key == "fault.draw_period_ms") {
        cfg.fault.drawPeriod = msTicks();
        require(cfg.fault.drawPeriod > 0, "at least 1");
    } else if (key == "fault.hotplug_rate_hz") {
        cfg.fault.hotplugRatePerSec = num();
    } else if (key == "fault.hotplug_downtime_ms") {
        cfg.fault.hotplugDownTime = msTicks();
    } else if (key == "fault.dvfs_deny_prob") {
        cfg.fault.dvfsDenyProb = num();
        require(cfg.fault.dvfsDenyProb >= 0.0 &&
                    cfg.fault.dvfsDenyProb <= 1.0,
                "in [0, 1]");
    } else if (key == "fault.dvfs_delay_prob") {
        cfg.fault.dvfsDelayProb = num();
        require(cfg.fault.dvfsDelayProb >= 0.0 &&
                    cfg.fault.dvfsDelayProb <= 1.0,
                "in [0, 1]");
    } else if (key == "fault.dvfs_extra_latency_us") {
        cfg.fault.dvfsExtraLatency = usTicks();
    } else if (key == "fault.thermal_spike_rate_hz") {
        cfg.fault.thermalSpikeRatePerSec = num();
    } else if (key == "fault.thermal_spike_c") {
        cfg.fault.thermalSpikeC = num();
    } else if (key == "fault.task_stall_rate_hz") {
        cfg.fault.taskStallRatePerSec = num();
    } else if (key == "fault.task_stall_instructions") {
        cfg.fault.taskStallInstructions = num();
    } else if (key == "fault.crash_rate_hz") {
        cfg.fault.crashRatePerSec = num();
    } else if (key == "fault.persistent_crash_at_ms") {
        cfg.fault.persistentCrashAt = msTicks();
    } else if (key == "fault.persistent_crash_core") {
        cfg.fault.persistentCrashCore = u32();
    } else if (key == "fault.invariant_break_rate_hz") {
        cfg.fault.invariantBreakRatePerSec = num();
    } else if (key == "seed") {
        cfg.masterSeed = u64();
    } else if (key == "snapshot.checkpoint_every_ms") {
        cfg.snapshot.checkpointEvery = msTicks();
    } else if (key == "snapshot.checkpoint_dir") {
        cfg.snapshot.checkpointDir = value;
    } else if (key == "snapshot.resume") {
        cfg.snapshot.resumePath = value;
    } else if (key == "snapshot.record_trace") {
        cfg.snapshot.recordTracePath = value;
    } else if (key == "snapshot.replay_trace") {
        cfg.snapshot.replayTracePath = value;
    } else if (key == "watchdog.enabled") {
        cfg.watchdog.enabled = boolean();
    } else if (key == "watchdog.stall_limit_sec") {
        cfg.watchdog.stallLimitSec = num();
        require(cfg.watchdog.stallLimitSec > 0.0, "above 0");
    } else if (key == "watchdog.runaway_limit_sec") {
        cfg.watchdog.runawayLimitSec = num();
        require(cfg.watchdog.runawayLimitSec >= 0.0, "at least 0");
    } else if (key == "watchdog.report") {
        cfg.watchdog.reportPath = value;
    } else if (key == "watchdog.ring_depth") {
        cfg.watchdog.ringDepth = u64();
    } else {
        return invalidArgument(
            format("config line %d: unknown config key '%s'", line_no,
                   key.c_str()));
    }
    return st;
}

} // namespace

Result<ExperimentConfig>
parseExperimentConfig(const std::string &text)
{
    ExperimentConfig cfg;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    // The last thermal trip key read, for the cross-key check below.
    int trip_line = 0;
    std::string trip_key;
    while (std::getline(in, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            return invalidArgument(format(
                "config line %d: expected 'key = value', got '%s'",
                line_no, line.c_str()));
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty() || value.empty())
            return invalidArgument(
                format("config line %d: empty key or value", line_no));
        Status st = applyKey(cfg, line_no, key, value);
        if (!st.ok())
            return st;
        if (key == "thermal.hot_trip_c" || key == "thermal.cool_trip_c") {
            trip_line = line_no;
            trip_key = key;
        }
    }
    // ThermalThrottle asserts hot > cool.  The defaults satisfy it,
    // so a violation always has a trip key to blame.
    if (!(cfg.thermal.hotTripC > cfg.thermal.coolTripC))
        return invalidArgument(format(
            "config line %d: key '%s': thermal.hot_trip_c (%s) must be "
            "above thermal.cool_trip_c (%s)",
            trip_line, trip_key.c_str(),
            exactDouble(cfg.thermal.hotTripC).c_str(),
            exactDouble(cfg.thermal.coolTripC).c_str()));
    // Keep the label of the core combination coherent.
    cfg.coreConfig.label = format("L%u+B%u",
                                  cfg.coreConfig.littleCores,
                                  cfg.coreConfig.bigCores);
    return cfg;
}

Result<ExperimentConfig>
loadExperimentConfig(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return notFound(
            format("cannot open config file '%s'", path.c_str()));
    std::stringstream ss;
    ss << in.rdbuf();
    return parseExperimentConfig(ss.str());
}

std::string
saveExperimentConfig(const ExperimentConfig &cfg)
{
    std::string out;
    // Every double-valued key, so that a reparse restores it exactly.
    const auto real = [&out](const char *key, double v) {
        out += format("%s = %s\n", key, exactDouble(v).c_str());
    };
    out += format("governor = %s\n", governorKindName(cfg.governor));
    out += format("label = %s\n", cfg.label.c_str());
    out += format("interactive.sampling_ms = %llu\n",
                  static_cast<unsigned long long>(
                      ticksToMs(cfg.interactive.samplingRate)));
    real("interactive.target_load", cfg.interactive.targetLoad);
    real("interactive.go_hispeed_load", cfg.interactive.goHispeedLoad);
    real("interactive.hispeed_fraction", cfg.interactive.hispeedFraction);
    out += format("sched.up_threshold = %u\n",
                  cfg.sched.upThreshold);
    out += format("sched.down_threshold = %u\n",
                  cfg.sched.downThreshold);
    real("sched.half_life_ms", cfg.sched.loadHalfLifeMs);
    out += format("sched.timeslice_ms = %llu\n",
                  static_cast<unsigned long long>(
                      ticksToMs(cfg.sched.timeslice)));
    out += format("sched.boost_khz = %u\n",
                  cfg.sched.upMigrationBoostFreq);
    out += format("cores.little = %u\n", cfg.coreConfig.littleCores);
    out += format("cores.big = %u\n", cfg.coreConfig.bigCores);
    out += format("thermal.enabled = %s\n",
                  cfg.thermalEnabled ? "true" : "false");
    real("thermal.hot_trip_c", cfg.thermal.hotTripC);
    real("thermal.cool_trip_c", cfg.thermal.coolTripC);
    out += format("userspace.little_khz = %u\n",
                  cfg.userspaceLittleFreq);
    out += format("userspace.big_khz = %u\n", cfg.userspaceBigFreq);
    out += format("sample_window_ms = %llu\n",
                  static_cast<unsigned long long>(
                      ticksToMs(cfg.sampleWindow)));
    out += format("fault.enabled = %s\n",
                  cfg.fault.enabled ? "true" : "false");
    out += format("fault.seed = %llu\n",
                  static_cast<unsigned long long>(cfg.fault.seed));
    out += format("fault.draw_period_ms = %llu\n",
                  static_cast<unsigned long long>(
                      ticksToMs(cfg.fault.drawPeriod)));
    real("fault.hotplug_rate_hz", cfg.fault.hotplugRatePerSec);
    out += format("fault.hotplug_downtime_ms = %llu\n",
                  static_cast<unsigned long long>(
                      ticksToMs(cfg.fault.hotplugDownTime)));
    real("fault.dvfs_deny_prob", cfg.fault.dvfsDenyProb);
    real("fault.dvfs_delay_prob", cfg.fault.dvfsDelayProb);
    out += format("fault.dvfs_extra_latency_us = %llu\n",
                  static_cast<unsigned long long>(
                      cfg.fault.dvfsExtraLatency / oneUs));
    real("fault.thermal_spike_rate_hz", cfg.fault.thermalSpikeRatePerSec);
    real("fault.thermal_spike_c", cfg.fault.thermalSpikeC);
    real("fault.task_stall_rate_hz", cfg.fault.taskStallRatePerSec);
    real("fault.task_stall_instructions", cfg.fault.taskStallInstructions);
    real("fault.crash_rate_hz", cfg.fault.crashRatePerSec);
    out += format("fault.persistent_crash_at_ms = %llu\n",
                  static_cast<unsigned long long>(
                      ticksToMs(cfg.fault.persistentCrashAt)));
    out += format("fault.persistent_crash_core = %u\n",
                  cfg.fault.persistentCrashCore);
    real("fault.invariant_break_rate_hz", cfg.fault.invariantBreakRatePerSec);
    out += format("seed = %llu\n",
                  static_cast<unsigned long long>(cfg.masterSeed));
    out += format("snapshot.checkpoint_every_ms = %llu\n",
                  static_cast<unsigned long long>(
                      ticksToMs(cfg.snapshot.checkpointEvery)));
    // Path-valued keys are omitted when empty: the parser rejects
    // 'key =' with no value, and an absent key means the default.
    out += format("snapshot.checkpoint_dir = %s\n",
                  cfg.snapshot.checkpointDir.c_str());
    if (!cfg.snapshot.resumePath.empty()) {
        out += format("snapshot.resume = %s\n",
                      cfg.snapshot.resumePath.c_str());
    }
    if (!cfg.snapshot.recordTracePath.empty()) {
        out += format("snapshot.record_trace = %s\n",
                      cfg.snapshot.recordTracePath.c_str());
    }
    if (!cfg.snapshot.replayTracePath.empty()) {
        out += format("snapshot.replay_trace = %s\n",
                      cfg.snapshot.replayTracePath.c_str());
    }
    out += format("watchdog.enabled = %s\n",
                  cfg.watchdog.enabled ? "true" : "false");
    real("watchdog.stall_limit_sec", cfg.watchdog.stallLimitSec);
    real("watchdog.runaway_limit_sec", cfg.watchdog.runawayLimitSec);
    if (!cfg.watchdog.reportPath.empty()) {
        out += format("watchdog.report = %s\n",
                      cfg.watchdog.reportPath.c_str());
    }
    out += format("watchdog.ring_depth = %zu\n",
                  cfg.watchdog.ringDepth);
    return out;
}

Status
writeExperimentConfig(const ExperimentConfig &cfg,
                      const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return unavailable(
            format("cannot write config file '%s'", path.c_str()));
    out << saveExperimentConfig(cfg);
    out.flush();
    if (!out)
        return unavailable(
            format("error writing config file '%s'", path.c_str()));
    return okStatus();
}

} // namespace biglittle
