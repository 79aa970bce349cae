/**
 * @file
 * Regression corpus: every file under tests/fuzz/corpus/ is fed to
 * its surface's decoder and must come back as a clean Status —
 * accepted for the `valid*` artifacts, rejected for everything
 * else, crashing for none.  The corpus pins down historically
 * interesting shapes (truncation, broken checksums, length-field
 * inflation with a re-fixed checksum) so they stay covered even if
 * the mutator's distribution drifts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/config_io.hh"
#include "fuzz/targets.hh"
#include "snapshot/checkpoint.hh"
#include "snapshot/event_trace.hh"

using namespace biglittle;

namespace
{

const std::string corpusDir = FUZZ_CORPUS_DIR;

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

/** Sorted corpus file paths under @p sub. */
std::vector<std::string>
corpusFiles(const std::string &sub)
{
    std::vector<std::string> paths;
    for (const auto &entry : std::filesystem::directory_iterator(
             corpusDir + "/" + sub))
        paths.push_back(entry.path().string());
    std::sort(paths.begin(), paths.end());
    EXPECT_FALSE(paths.empty())
        << "empty corpus directory " << sub;
    return paths;
}

bool
isValidArtifact(const std::string &path)
{
    return std::filesystem::path(path).filename().string().rfind(
               "valid", 0) == 0;
}

} // namespace

TEST(FuzzCorpus, EveryFileRunsThroughItsTarget)
{
    // The target's run() contract: total on any input.  Crashes
    // here are caught by the test runner (and sanitizers in CI).
    const auto targets = allFuzzTargets();
    const std::vector<std::pair<std::string, std::size_t>> surfaces =
        {{"config", 0}, {"checkpoint", 1}, {"trace", 2}, {"argv", 3}};
    for (const auto &[sub, index] : surfaces) {
        for (const std::string &path : corpusFiles(sub))
            targets[index]->run(readFile(path));
    }
}

TEST(FuzzCorpus, CheckpointVerdictsMatchFilenames)
{
    for (const std::string &path : corpusFiles("checkpoint")) {
        const Result<Checkpoint> result =
            Checkpoint::decode(readFile(path));
        EXPECT_EQ(result.ok(), isValidArtifact(path)) << path;
    }
}

TEST(FuzzCorpus, TraceVerdictsMatchFilenames)
{
    for (const std::string &path : corpusFiles("trace")) {
        const Result<EventTrace> result =
            EventTrace::decode(readFile(path));
        EXPECT_EQ(result.ok(), isValidArtifact(path)) << path;
    }
}

TEST(FuzzCorpus, InflatedCountsFailTheBoundNotTheChecksum)
{
    // The count-inflated artifacts carry a *valid* checksum and the
    // current version: they must be rejected by getCount()'s bound
    // check, proving the defense sits deeper than the integrity gate.
    // A stale version would get them rejected before the count is
    // ever read.
    const auto expectBoundFailure = [](const Status &status) {
        ASSERT_FALSE(status.ok());
        EXPECT_EQ(status.message().find("checksum"), std::string::npos)
            << status.message();
        EXPECT_EQ(status.message().find("version"), std::string::npos)
            << status.message();
    };
    const Result<Checkpoint> ckpt = Checkpoint::decode(
        readFile(corpusDir + "/checkpoint/count-inflated.ckpt"));
    expectBoundFailure(ckpt.status());
    const Result<EventTrace> trace = EventTrace::decode(
        readFile(corpusDir + "/trace/count-inflated.trace"));
    expectBoundFailure(trace.status());
}

TEST(FuzzCorpus, ConfigVerdictsMatchFilenames)
{
    for (const std::string &path : corpusFiles("config")) {
        const std::vector<std::uint8_t> bytes = readFile(path);
        const Result<ExperimentConfig> result =
            parseExperimentConfig(
                std::string(bytes.begin(), bytes.end()));
        EXPECT_EQ(result.ok(), isValidArtifact(path)) << path;
    }
}
