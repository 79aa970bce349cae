#include "fuzz/targets.hh"

#include <string>

#include "base/argparse.hh"
#include "base/serialize.hh"
#include "core/config_io.hh"
#include "snapshot/checkpoint.hh"
#include "snapshot/event_trace.hh"

namespace biglittle
{

namespace
{

std::vector<std::uint8_t>
toBytes(const std::string &s)
{
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::string
toText(const std::vector<std::uint8_t> &bytes)
{
    return std::string(bytes.begin(), bytes.end());
}

} // namespace

bool
mutateBodyRefixChecksum(Rng &rng, std::vector<std::uint8_t> &input)
{
    // Leave a quarter of the rounds to the generic mutator so the
    // broken-checksum path stays covered too.
    const bool refix = rng.chance(0.75);
    if (input.size() < 16 || !refix)
        return false;
    std::vector<std::uint8_t> body(input.begin(), input.end() - 8);
    mutateBytes(rng, body);
    const std::uint64_t sum = fnv1a64(body.data(), body.size());
    for (std::size_t i = 0; i < 8; ++i)
        body.push_back(static_cast<std::uint8_t>(sum >> (8 * i)));
    input = std::move(body);
    return true;
}

// --- config ---------------------------------------------------------

std::vector<std::vector<std::uint8_t>>
ConfigFuzzTarget::seedInputs() const
{
    std::vector<std::vector<std::uint8_t>> seeds;
    seeds.push_back(toBytes(saveExperimentConfig(ExperimentConfig{})));

    ExperimentConfig tuned;
    tuned.label = "fuzz-seed";
    tuned.coreConfig = {2, 4, "L2+B4"};
    seeds.push_back(toBytes(saveExperimentConfig(tuned)));

    seeds.push_back(toBytes("# comment only\n"
                            "governor = interactive\n"
                            "interactive.sampling_ms = 60\n"
                            "\n"
                            "label = interval-60ms\n"));
    return seeds;
}

bool
ConfigFuzzTarget::mutate(Rng &rng,
                         std::vector<std::uint8_t> &input) const
{
    if (!rng.chance(0.6))
        return false; // generic byte mutations still apply to text

    std::string text = toText(input);
    std::vector<std::string> lines;
    std::string cur;
    for (const char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        lines.push_back(cur);

    const std::uint64_t strategy = rng.uniformInt(0, 4);
    switch (strategy) {
      case 0: // duplicate a line (repeated keys must stay defined)
        if (!lines.empty()) {
            const std::size_t at = static_cast<std::size_t>(
                rng.uniformInt(0, lines.size() - 1));
            lines.insert(lines.begin() +
                             static_cast<std::ptrdiff_t>(at),
                         lines[at]);
        }
        break;
      case 1: // unknown key
        lines.push_back("bogus.key.level" +
                        std::to_string(rng.uniformInt(0, 99)) +
                        " = 1");
        break;
      case 2: { // hostile value on a known key
        static const char *const values[] = {
            "1e999", "-5", "nan", "0x10", "yes please", "9" };
        std::string value =
            values[rng.uniformInt(0, 5)];
        if (value == "9") // absurdly long digit string
            value.assign(4096, '9');
        lines.push_back("seed = " + value);
        break;
      }
      case 3: // structurally malformed line
        lines.push_back(rng.chance(0.5) ? "just some words"
                                        : "= value-with-no-key");
        break;
      case 4: { // very long key (parser buffers must be dynamic)
        std::string key(static_cast<std::size_t>(
                            rng.uniformInt(128, 2048)),
                        'k');
        lines.push_back(key + " = 1");
        break;
      }
    }

    std::string out;
    for (const std::string &line : lines) {
        out += line;
        out += '\n';
    }
    input = toBytes(out);
    return true;
}

void
ConfigFuzzTarget::run(const std::vector<std::uint8_t> &input) const
{
    const Result<ExperimentConfig> cfg =
        parseExperimentConfig(toText(input));
    (void)cfg; // any Status outcome is fine; crashing is not
}

// --- checkpoint -----------------------------------------------------

std::vector<std::vector<std::uint8_t>>
CheckpointFuzzTarget::seedInputs() const
{
    std::vector<std::vector<std::uint8_t>> seeds;

    Checkpoint small;
    small.app = "eternity_warrior2";
    small.label = "default";
    small.masterSeed = 7;
    small.tick = 123;
    seeds.push_back(small.encode());

    Checkpoint rich;
    rich.app = "virus_scanner";
    rich.label = "chaos";
    rich.masterSeed = 99;
    rich.tick = 1u << 20;
    rich.sections = {{"eventq", 0xABABABABABABABABull},
                     {"sched", 0x0102030405060708ull},
                     {"", 0},
                     {std::string(200, 'n'), 9}};
    seeds.push_back(rich.encode());

    return seeds;
}

bool
CheckpointFuzzTarget::mutate(Rng &rng,
                             std::vector<std::uint8_t> &input) const
{
    return mutateBodyRefixChecksum(rng, input);
}

void
CheckpointFuzzTarget::run(const std::vector<std::uint8_t> &input) const
{
    const Result<Checkpoint> ckpt = Checkpoint::decode(input);
    (void)ckpt;
}

// --- trace ----------------------------------------------------------

std::vector<std::vector<std::uint8_t>>
TraceFuzzTarget::seedInputs() const
{
    std::vector<std::vector<std::uint8_t>> seeds;

    EventTrace empty;
    seeds.push_back(empty.encode());

    EventTrace busy;
    for (std::uint64_t i = 0; i < 64; ++i) {
        TraceRecord r;
        r.when = i * 1000;
        r.priority = static_cast<std::int32_t>(i % 5) - 2;
        r.sequence = i;
        r.name = "event-" + std::to_string(i);
        busy.records.push_back(std::move(r));
    }
    seeds.push_back(busy.encode());

    return seeds;
}

bool
TraceFuzzTarget::mutate(Rng &rng,
                        std::vector<std::uint8_t> &input) const
{
    return mutateBodyRefixChecksum(rng, input);
}

void
TraceFuzzTarget::run(const std::vector<std::uint8_t> &input) const
{
    const Result<EventTrace> trace = EventTrace::decode(input);
    (void)trace;
}

// --- argparse -------------------------------------------------------

std::vector<std::vector<std::uint8_t>>
ArgparseFuzzTarget::seedInputs() const
{
    const auto argvBytes = [](std::vector<std::string> args) {
        std::vector<std::uint8_t> bytes;
        for (const std::string &arg : args) {
            bytes.insert(bytes.end(), arg.begin(), arg.end());
            bytes.push_back('\0');
        }
        return bytes;
    };
    return {
        argvBytes({"--seed", "42", "--csv", "out.csv"}),
        argvBytes({"--scale", "1.5", "--verbose"}),
        argvBytes({"--help"}),
        argvBytes({"--seed", "-3", "--app", "bbench"}),
    };
}

void
ArgparseFuzzTarget::run(const std::vector<std::uint8_t> &input) const
{
    // The same option shapes the bench front-ends declare.
    ArgParser args("abfuzz-argparse", "fuzz harness parser");
    args.addString("app", "encoder", "app name");
    args.addString("csv", "", "csv output");
    args.addInt("seed", 0, "master seed");
    args.addDouble("scale", 1.0, "fault scale");
    args.addFlag("verbose", "chatty output");

    std::vector<std::string> tokens;
    std::string cur;
    for (const std::uint8_t b : input) {
        if (b == '\0') {
            tokens.push_back(cur);
            cur.clear();
        } else {
            cur += static_cast<char>(b);
        }
    }
    if (!cur.empty())
        tokens.push_back(cur);

    std::vector<const char *> argv;
    argv.push_back("abfuzz-argparse");
    for (const std::string &t : tokens)
        argv.push_back(t.c_str());

    const Result<std::vector<std::string>> rest = args.tryParse(
        static_cast<int>(argv.size()), argv.data());
    if (rest.ok()) {
        // Typed getters run their own validation on hostile
        // values; any Status outcome is acceptable here.
        // ablint:allow(status-drop): fuzz harness, the Result is deliberately unread
        [[maybe_unused]] const Result<std::int64_t> seed =
            args.tryGetInt("seed");
        // ablint:allow(status-drop): fuzz harness, the Result is deliberately unread
        [[maybe_unused]] const Result<double> scale =
            args.tryGetDouble("scale");
        [[maybe_unused]] const std::string app =
            args.getString("app");
        [[maybe_unused]] const bool verbose =
            args.getFlag("verbose");
    }
}

std::vector<std::unique_ptr<FuzzTarget>>
allFuzzTargets()
{
    std::vector<std::unique_ptr<FuzzTarget>> targets;
    targets.push_back(std::make_unique<ConfigFuzzTarget>());
    targets.push_back(std::make_unique<CheckpointFuzzTarget>());
    targets.push_back(std::make_unique<TraceFuzzTarget>());
    targets.push_back(std::make_unique<ArgparseFuzzTarget>());
    return targets;
}

} // namespace biglittle
