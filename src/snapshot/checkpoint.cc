#include "snapshot/checkpoint.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "base/logging.hh"
#include "base/strutil.hh"
#include "snapshot/container.hh"

namespace biglittle
{

namespace
{

constexpr ContainerFormat checkpointFormat{"checkpoint", checkpointMagic,
                                           checkpointVersion};

} // namespace

std::vector<std::uint8_t>
Checkpoint::encode() const
{
    Serializer s = checkpointFormat.begin();
    s.putString(app);
    s.putString(label);
    s.putU64(masterSeed);
    s.putU64(tick);
    s.putU64(sections.size());
    for (const auto &[name, digest] : sections) {
        s.putString(name);
        s.putU64(digest);
    }
    return ContainerFormat::seal(s);
}

Result<Checkpoint>
Checkpoint::decode(const std::vector<std::uint8_t> &bytes)
{
    Result<Deserializer> body = checkpointFormat.open(bytes);
    if (!body.ok())
        return body.status();
    Deserializer &d = body.value();

    Checkpoint ckpt;
    ckpt.app = d.getString();
    ckpt.label = d.getString();
    ckpt.masterSeed = d.getU64();
    ckpt.tick = d.getU64();
    // Every record is a length-prefixed name and a digest, at least
    // 16 bytes, which bounds a sane sectionCount.
    const std::uint64_t count = d.getCount(16);
    ckpt.sections.reserve(count);
    for (std::uint64_t i = 0; i < count && d.ok(); ++i) {
        std::string name = d.getString();
        ckpt.sections.emplace_back(std::move(name), d.getU64());
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
    // Keep previous checkpoints as a <path>.1 -> <path>.2 chain so a
    // corrupt write (power cut mid-flush, disk full) by a rerun into
    // the same directory never clobbers the newest good copy: the
    // old .1 must rotate to .2 *before* the primary rotates into .1,
    // otherwise the rename would overwrite the only surviving good
    // checkpoint.  Failure to rotate is not fatal: the new write
    // proceeds anyway.  (Supervised rollbacks keep their checkpoints
    // in memory and never rewrite a path.)
    return ContainerFormat::writeFile(path, bytes, [&path] {
        std::error_code ec;
        if (std::filesystem::exists(path + ".1", ec))
            std::rename((path + ".1").c_str(), (path + ".2").c_str());
        if (std::filesystem::exists(path, ec))
            std::rename(path.c_str(), (path + ".1").c_str());
    });
}

Result<Checkpoint>
Checkpoint::readFile(const std::string &path)
{
    const Result<std::vector<std::uint8_t>> bytes =
        checkpointFormat.readFile(path);
    if (!bytes.ok())
        return bytes.status();
    return decode(bytes.value());
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
compareSections(const SectionDigests &expected,
                const SectionDigests &actual, const std::string &skip)
{
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const auto &[name, want] = expected[i];
        if (i >= actual.size())
            return internalError("section '" + name + "' missing");
        const auto &[have_name, have] = actual[i];
        if (have_name != name) {
            return internalError(format(
                "section %zu is '%s', expected '%s'", i,
                have_name.c_str(), name.c_str()));
        }
        if (name != skip && have != want) {
            return internalError(format(
                "state diverged in section '%s': expected digest "
                "%016llx, actual digest %016llx",
                name.c_str(), static_cast<unsigned long long>(want),
                static_cast<unsigned long long>(have)));
        }
    }
    if (actual.size() > expected.size()) {
        return internalError("extra section '" +
                             actual[expected.size()].first + "'");
    }
    return okStatus();
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
    return compareSections(expected.sections, actual.sections);
}

} // namespace biglittle
