#include "snapshot/checkpoint.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "base/logging.hh"
#include "base/serialize.hh"
#include "base/strutil.hh"

namespace biglittle
{

void
Checkpoint::add(std::string name, std::vector<std::uint8_t> payload)
{
    sections.push_back({std::move(name), std::move(payload)});
}

const CheckpointSection *
Checkpoint::find(const std::string &name) const
{
    for (const CheckpointSection &sec : sections) {
        if (sec.name == name)
            return &sec;
    }
    return nullptr;
}

std::vector<std::uint8_t>
Checkpoint::encode() const
{
    Serializer s;
    s.putU32(checkpointMagic);
    s.putU32(checkpointVersion);
    s.putString(app);
    s.putString(label);
    s.putU64(masterSeed);
    s.putU64(tick);
    s.putU64(eventsServiced);
    s.putU64(nextSequence);
    s.putU64(sections.size());
    for (const CheckpointSection &sec : sections) {
        s.putString(sec.name);
        s.putBytes(sec.payload.data(), sec.payload.size());
    }
    const std::uint64_t checksum = s.digest();
    s.putU64(checksum);
    return s.takeBytes();
}

Result<Checkpoint>
Checkpoint::decode(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < 8)
        return invalidArgument("checkpoint truncated");
    // The checksum covers every byte before its own 8.
    const std::size_t body = bytes.size() - 8;
    Deserializer tail(bytes.data() + body, 8);
    const std::uint64_t want = tail.getU64();
    const std::uint64_t have = fnv1a64(bytes.data(), body);
    if (want != have) {
        return invalidArgument(format(
            "checkpoint checksum mismatch: stored %016llx, computed "
            "%016llx (file damaged or truncated)",
            static_cast<unsigned long long>(want),
            static_cast<unsigned long long>(have)));
    }

    Deserializer d(bytes.data(), body);
    // Even a checksum-valid file is untrusted: cap what decoding may
    // allocate to a small multiple of the input so a crafted count
    // or length field cannot balloon memory.
    d.limitAllocations(2, 4096);
    if (d.getU32() != checkpointMagic)
        return invalidArgument("not a checkpoint file (bad magic)");
    const std::uint32_t version = d.getU32();
    if (version != checkpointVersion) {
        return invalidArgument(format(
            "unsupported checkpoint version %u (this build reads %u)",
            version, checkpointVersion));
    }

    Checkpoint ckpt;
    ckpt.app = d.getString();
    ckpt.label = d.getString();
    ckpt.masterSeed = d.getU64();
    ckpt.tick = d.getU64();
    ckpt.eventsServiced = d.getU64();
    ckpt.nextSequence = d.getU64();
    // The smallest possible section is two empty length-prefixed
    // blobs (16 bytes), which bounds a sane sectionCount.
    const std::uint64_t count = d.getCount(16);
    ckpt.sections.reserve(count);
    for (std::uint64_t i = 0; i < count && d.ok(); ++i) {
        CheckpointSection sec;
        sec.name = d.getString();
        sec.payload = d.getBytes();
        ckpt.sections.push_back(std::move(sec));
    }
    if (!d.ok())
        return invalidArgument("checkpoint body truncated");
    return ckpt;
}

Status
Checkpoint::writeFile(const std::string &path) const
{
    return writeBytes(path, encode());
}

Status
Checkpoint::writeBytes(const std::string &path,
                       const std::vector<std::uint8_t> &bytes)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return unavailable("cannot open '" + tmp + "' for writing");
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out)
            return unavailable("short write to '" + tmp + "'");
    }
    // Keep previous checkpoints as a <path>.1 -> <path>.2 chain so a
    // corrupt write (power cut mid-flush, disk full) by a rerun into
    // the same directory never clobbers the newest good copy: the
    // old .1 must rotate to .2 *before* the primary rotates into .1,
    // otherwise the rename would overwrite the only surviving good
    // checkpoint.  Failure to rotate is not fatal: the new write
    // proceeds anyway.  (Supervised rollbacks keep their checkpoints
    // in memory and never rewrite a path.)
    std::error_code ec;
    if (std::filesystem::exists(path + ".1", ec))
        std::rename((path + ".1").c_str(), (path + ".2").c_str());
    if (std::filesystem::exists(path, ec))
        std::rename(path.c_str(), (path + ".1").c_str());
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return unavailable("cannot rename '" + tmp + "' to '" + path +
                           "'");
    }
    return okStatus();
}

Result<Checkpoint>
Checkpoint::readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return notFound("cannot open checkpoint '" + path + "'");
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return decode(bytes);
}

std::vector<std::string>
checkpointCandidates(const std::string &path)
{
    std::vector<std::string> out{path, path + ".1", path + ".2"};

    // Periodic checkpoints are named <stem>.<tick>.ckpt; older ticks
    // of the same stem are valid (if stale) resume points.
    const std::string suffix = ".ckpt";
    if (path.size() <= suffix.size() ||
        path.compare(path.size() - suffix.size(), suffix.size(),
                     suffix) != 0)
        return out;
    const std::string noExt = path.substr(0, path.size() - suffix.size());
    const std::size_t dot = noExt.find_last_of('.');
    if (dot == std::string::npos ||
        dot + 1 == noExt.size() ||
        noExt.size() - dot - 1 > 19 || // stoull range guard
        noExt.find_first_not_of("0123456789", dot + 1) !=
            std::string::npos)
        return out;
    const unsigned long long tick = std::stoull(noExt.substr(dot + 1));
    const std::string stem = noExt.substr(0, dot + 1); // keeps the dot

    std::vector<std::pair<unsigned long long, std::string>> older;
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(
             parent.empty() ? "." : parent, ec)) {
        const std::string candidate = entry.path().string();
        const std::string name = entry.path().filename().string();
        const std::string stemName =
            std::filesystem::path(stem).filename().string();
        if (name.size() <= stemName.size() + suffix.size() ||
            name.compare(0, stemName.size(), stemName) != 0 ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        const std::string mid = name.substr(
            stemName.size(),
            name.size() - stemName.size() - suffix.size());
        if (mid.empty() || mid.size() > 19 ||
            mid.find_first_not_of("0123456789") != std::string::npos)
            continue;
        const unsigned long long candTick = std::stoull(mid);
        if (candTick < tick)
            older.emplace_back(candTick, candidate);
    }
    std::sort(older.begin(), older.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first ? a.first > b.first
                                            : a.second < b.second;
              });
    for (const auto &[candTick, candidate] : older)
        out.push_back(candidate);
    return out;
}

Result<Checkpoint>
loadCheckpointWithFallback(
    const std::string &path,
    const std::function<Status(const Checkpoint &)> &accept)
{
    for (const std::string &candidate : checkpointCandidates(path)) {
        Result<Checkpoint> loaded = Checkpoint::readFile(candidate);
        if (!loaded.ok()) {
            // Only the primary's absence is worth a warning for the
            // rotated/older names; a missing .1 is the common case.
            if (candidate == path ||
                loaded.status().code() != StatusCode::notFound) {
                warn("checkpoint '%s' rejected: %s", candidate.c_str(),
                     loaded.status().message().c_str());
            }
            continue;
        }
        if (accept) {
            const Status st = accept(loaded.value());
            if (!st.ok()) {
                warn("checkpoint '%s' rejected: %s", candidate.c_str(),
                     st.message().c_str());
                continue;
            }
        }
        if (candidate != path) {
            warn("resuming from fallback checkpoint '%s' (newest "
                 "candidate '%s' was unusable)",
                 candidate.c_str(), path.c_str());
        }
        return std::move(loaded.value());
    }
    return notFound("no usable checkpoint for '" + path +
                    "' (all candidates rejected)");
}

Status
compareCheckpoints(const Checkpoint &expected, const Checkpoint &actual)
{
    if (expected.tick != actual.tick) {
        return internalError(format(
            "checkpoint tick mismatch: expected %llu, got %llu",
            static_cast<unsigned long long>(expected.tick),
            static_cast<unsigned long long>(actual.tick)));
    }
    for (const CheckpointSection &want : expected.sections) {
        const CheckpointSection *have = actual.find(want.name);
        if (have == nullptr) {
            return internalError("section '" + want.name +
                                 "' missing from live state");
        }
        if (have->payload != want.payload) {
            return internalError(format(
                "state diverged in section '%s': checkpoint digest "
                "%016llx (%zu bytes), live digest %016llx (%zu bytes)",
                want.name.c_str(),
                static_cast<unsigned long long>(fnv1a64(
                    want.payload.data(), want.payload.size())),
                want.payload.size(),
                static_cast<unsigned long long>(fnv1a64(
                    have->payload.data(), have->payload.size())),
                have->payload.size()));
        }
    }
    for (const CheckpointSection &have : actual.sections) {
        if (expected.find(have.name) == nullptr) {
            return internalError("live state has extra section '" +
                                 have.name + "'");
        }
    }
    return okStatus();
}

} // namespace biglittle
