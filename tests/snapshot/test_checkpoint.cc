/**
 * @file
 * Tests for the Checkpoint container: encode/decode round trips,
 * rejection of damaged files (magic, version, checksum, truncation),
 * crash-safe file I/O, and section-attributing digest comparison.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sys/stat.h>

#include "base/serialize.hh"
#include "snapshot/checkpoint.hh"

using namespace biglittle;

namespace
{

Checkpoint
sampleCheckpoint()
{
    Checkpoint ckpt;
    ckpt.app = "angry_bird";
    ckpt.label = "default";
    ckpt.masterSeed = 42;
    ckpt.tick = 123456789;
    ckpt.sections = {{"eventq", 0x0102030405060708ull},
                     {"sched", 0xAABBull},
                     {"app", 0}};
    return ckpt;
}

} // namespace

TEST(Checkpoint, EncodeDecodeRoundTrip)
{
    const Checkpoint ckpt = sampleCheckpoint();
    const auto bytes = ckpt.encode();
    const Result<Checkpoint> back = Checkpoint::decode(bytes);
    ASSERT_TRUE(back.ok()) << back.status().message();

    EXPECT_EQ(back.value().app, ckpt.app);
    EXPECT_EQ(back.value().label, ckpt.label);
    EXPECT_EQ(back.value().masterSeed, ckpt.masterSeed);
    EXPECT_EQ(back.value().tick, ckpt.tick);
    EXPECT_EQ(back.value().sections, ckpt.sections);
}

TEST(Checkpoint, ReencodeIsByteIdentical)
{
    const Checkpoint ckpt = sampleCheckpoint();
    const auto bytes = ckpt.encode();
    const Result<Checkpoint> back = Checkpoint::decode(bytes);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().encode(), bytes);
}

TEST(Checkpoint, CorruptedByteIsRejected)
{
    auto bytes = sampleCheckpoint().encode();
    bytes[bytes.size() / 2] ^= 0x01;
    const Result<Checkpoint> back = Checkpoint::decode(bytes);
    ASSERT_FALSE(back.ok());
    EXPECT_NE(back.status().message().find("checksum"),
              std::string::npos);
}

TEST(Checkpoint, TruncationIsRejected)
{
    auto bytes = sampleCheckpoint().encode();
    // Truncation at every prefix length must fail cleanly, never
    // crash: the trailing checksum no longer matches the body.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{4}, std::size_t{9},
          bytes.size() / 2, bytes.size() - 1}) {
        const std::vector<std::uint8_t> cut(bytes.begin(),
                                            bytes.begin() + keep);
        EXPECT_FALSE(Checkpoint::decode(cut).ok()) << keep;
    }
}

TEST(Checkpoint, BadMagicIsRejected)
{
    // Rebuild a well-formed file with the wrong magic so the
    // checksum is self-consistent and the magic check itself fires.
    Serializer s;
    s.putU32(0xDEADBEEFU);
    s.putU32(checkpointVersion);
    s.putString("a");
    s.putString("b");
    for (int i = 0; i < 3; ++i)
        s.putU64(0);
    s.putU64(s.digest());
    const Result<Checkpoint> back = Checkpoint::decode(s.bytes());
    ASSERT_FALSE(back.ok());
    EXPECT_NE(back.status().message().find("magic"),
              std::string::npos);
}

TEST(Checkpoint, FutureVersionIsRejected)
{
    Serializer s;
    s.putU32(checkpointMagic);
    s.putU32(checkpointVersion + 1);
    s.putString("a");
    s.putString("b");
    for (int i = 0; i < 3; ++i)
        s.putU64(0);
    s.putU64(s.digest());
    const Result<Checkpoint> back = Checkpoint::decode(s.bytes());
    ASSERT_FALSE(back.ok());
    EXPECT_NE(back.status().message().find("version"),
              std::string::npos);
}

TEST(Checkpoint, FileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "bl_ckpt_rt.ckpt";
    const Checkpoint ckpt = sampleCheckpoint();
    ASSERT_TRUE(ckpt.writeFile(path).ok());
    const Result<Checkpoint> back = Checkpoint::readFile(path);
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_EQ(back.value().encode(), ckpt.encode());
    std::remove(path.c_str());
}

TEST(Checkpoint, WriteLeavesNoTempFile)
{
    const std::string path = ::testing::TempDir() + "bl_ckpt_tmp.ckpt";
    ASSERT_TRUE(sampleCheckpoint().writeFile(path).ok());
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    std::remove(path.c_str());
}

TEST(Checkpoint, WriteToBadDirectoryFailsGracefully)
{
    const Status st =
        sampleCheckpoint().writeFile("/nonexistent-dir/x.ckpt");
    EXPECT_FALSE(st.ok());
}

TEST(Checkpoint, MissingFileFailsGracefully)
{
    const Result<Checkpoint> back =
        Checkpoint::readFile("/nonexistent-dir/x.ckpt");
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), StatusCode::notFound);
}

TEST(CompareCheckpoints, IdenticalIsOk)
{
    const Checkpoint a = sampleCheckpoint();
    const Checkpoint b = sampleCheckpoint();
    EXPECT_TRUE(compareCheckpoints(a, b).ok());
}

TEST(CompareCheckpoints, DifferingSectionIsNamed)
{
    const Checkpoint a = sampleCheckpoint();
    Checkpoint b = sampleCheckpoint();
    b.sections[1].second = 0xAACCull;
    const Status st = compareCheckpoints(a, b);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("section 'sched'"), std::string::npos);
    EXPECT_NE(st.message().find("000000000000aabb"), std::string::npos)
        << st.message();
    EXPECT_NE(st.message().find("000000000000aacc"), std::string::npos)
        << st.message();
}

TEST(CompareCheckpoints, MissingSectionIsNamed)
{
    const Checkpoint a = sampleCheckpoint();
    Checkpoint b = sampleCheckpoint();
    b.sections.pop_back();
    const Status st = compareCheckpoints(a, b);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("'app' missing"), std::string::npos);
}

TEST(CompareCheckpoints, ExtraSectionIsNamed)
{
    const Checkpoint a = sampleCheckpoint();
    Checkpoint b = sampleCheckpoint();
    b.sections.emplace_back("mystery", 1);
    const Status st = compareCheckpoints(a, b);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("extra section 'mystery'"),
              std::string::npos);
}

TEST(CompareSections, SkipIgnoresTheDigestNotThePresence)
{
    // compareStateDigests skips the eventq digest; a run that lost
    // the section entirely still differs.
    const SectionDigests a = sampleCheckpoint().sections;
    SectionDigests b = a;
    b[0].second += 1;
    EXPECT_TRUE(compareSections(a, b, "eventq").ok());
    EXPECT_FALSE(compareSections(a, b).ok());
    b.erase(b.begin());
    const Status st = compareSections(a, b, "eventq");
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("'sched', expected 'eventq'"),
              std::string::npos)
        << st.message();
}

TEST(CompareCheckpoints, TickMismatchIsReported)
{
    const Checkpoint a = sampleCheckpoint();
    Checkpoint b = sampleCheckpoint();
    b.tick += 1;
    const Status st = compareCheckpoints(a, b);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("tick mismatch"), std::string::npos);
}

TEST(CheckpointRotation, RewriteKeepsPreviousGeneration)
{
    const std::string path =
        ::testing::TempDir() + "bl_ckpt_rot.ckpt";
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());

    Checkpoint first = sampleCheckpoint();
    first.tick = 100;
    ASSERT_TRUE(first.writeFile(path).ok());

    Checkpoint second = sampleCheckpoint();
    second.tick = 200;
    ASSERT_TRUE(second.writeFile(path).ok());

    const Result<Checkpoint> now = Checkpoint::readFile(path);
    const Result<Checkpoint> prev =
        Checkpoint::readFile(path + ".1");
    ASSERT_TRUE(now.ok()) << now.status().message();
    ASSERT_TRUE(prev.ok()) << prev.status().message();
    EXPECT_EQ(now.value().tick, 200u);
    EXPECT_EQ(prev.value().tick, 100u);

    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
}

TEST(CheckpointRotation, CandidatesListNewestFirst)
{
    const std::string dir =
        ::testing::TempDir() + "bl_ckpt_cand";
    ::mkdir(dir.c_str(), 0755);
    const auto write = [&](Tick tick) {
        Checkpoint c = sampleCheckpoint();
        c.tick = tick;
        const std::string p =
            dir + "/app.default." + std::to_string(tick) + ".ckpt";
        ASSERT_TRUE(c.writeFile(p).ok());
    };
    write(400);
    write(800);
    write(1200);

    const std::string primary = dir + "/app.default.1200.ckpt";
    const auto candidates = checkpointCandidates(primary);
    // Primary, its rotation chain, then older ticks descending.
    ASSERT_GE(candidates.size(), 5u);
    EXPECT_EQ(candidates[0], primary);
    EXPECT_EQ(candidates[1], primary + ".1");
    EXPECT_EQ(candidates[2], primary + ".2");
    EXPECT_EQ(candidates[3], dir + "/app.default.800.ckpt");
    EXPECT_EQ(candidates[4], dir + "/app.default.400.ckpt");
}

TEST(CheckpointRotation, NonTickNameStillListsRotationSiblings)
{
    const auto candidates = checkpointCandidates("/tmp/foo.bin");
    ASSERT_EQ(candidates.size(), 3u);
    EXPECT_EQ(candidates[0], "/tmp/foo.bin");
    EXPECT_EQ(candidates[1], "/tmp/foo.bin.1");
    EXPECT_EQ(candidates[2], "/tmp/foo.bin.2");
}

TEST(CheckpointRotation, RepeatedRewritesNeverClobberNewestGood)
{
    // An unsupervised --checkpoint-every rerun into the same
    // checkpoint dir rewrites each checkpoint path once per run.  The
    // rotation chain must shift .1 -> .2 before the primary rotates
    // into .1: with a single slot, write 3 would overwrite the .1
    // holding write 2 - the newest good generation - leaving only
    // the (possibly corrupt) primary.
    const std::string path =
        ::testing::TempDir() + "bl_ckpt_chain.ckpt";
    for (const char *suffix : {"", ".1", ".2"})
        std::remove((path + suffix).c_str());

    for (const Tick tick : {Tick{100}, Tick{200}, Tick{300}}) {
        Checkpoint c = sampleCheckpoint();
        c.tick = tick;
        ASSERT_TRUE(c.writeFile(path).ok());
    }

    const Result<Checkpoint> now = Checkpoint::readFile(path);
    const Result<Checkpoint> one = Checkpoint::readFile(path + ".1");
    const Result<Checkpoint> two = Checkpoint::readFile(path + ".2");
    ASSERT_TRUE(now.ok()) << now.status().message();
    ASSERT_TRUE(one.ok()) << one.status().message();
    ASSERT_TRUE(two.ok()) << two.status().message();
    EXPECT_EQ(now.value().tick, 300u);
    EXPECT_EQ(one.value().tick, 200u);
    EXPECT_EQ(two.value().tick, 100u);

    // A fourth write drops the oldest generation, keeps the rest.
    Checkpoint c = sampleCheckpoint();
    c.tick = 400;
    ASSERT_TRUE(c.writeFile(path).ok());
    EXPECT_EQ(Checkpoint::readFile(path).value().tick, 400u);
    EXPECT_EQ(Checkpoint::readFile(path + ".1").value().tick, 300u);
    EXPECT_EQ(Checkpoint::readFile(path + ".2").value().tick, 200u);

    for (const char *suffix : {"", ".1", ".2"})
        std::remove((path + suffix).c_str());
}

TEST(CheckpointRotation, FallbackSkipsCorruptNewest)
{
    const std::string dir =
        ::testing::TempDir() + "bl_ckpt_fall";
    ::mkdir(dir.c_str(), 0755);
    const auto pathFor = [&](Tick tick) {
        return dir + "/app.default." + std::to_string(tick) +
               ".ckpt";
    };
    for (const Tick tick : {Tick{500}, Tick{1000}}) {
        Checkpoint c = sampleCheckpoint();
        c.tick = tick;
        ASSERT_TRUE(c.writeFile(pathFor(tick)).ok());
    }
    // Damage the newest: flip one body bit so the checksum
    // check rejects it.
    {
        std::fstream f(pathFor(1000),
                       std::ios::in | std::ios::out |
                           std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekg(40);
        const int orig = f.get();
        ASSERT_NE(orig, EOF);
        f.seekp(40);
        f.put(static_cast<char>(orig ^ 0x01));
    }

    const Result<Checkpoint> loaded =
        loadCheckpointWithFallback(pathFor(1000));
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_EQ(loaded.value().tick, 500u);
}

TEST(CheckpointRotation, FallbackHonorsAcceptPredicate)
{
    const std::string dir =
        ::testing::TempDir() + "bl_ckpt_accept";
    ::mkdir(dir.c_str(), 0755);
    const auto pathFor = [&](Tick tick) {
        return dir + "/app.default." + std::to_string(tick) +
               ".ckpt";
    };
    for (const Tick tick : {Tick{300}, Tick{600}}) {
        Checkpoint c = sampleCheckpoint();
        c.tick = tick;
        ASSERT_TRUE(c.writeFile(pathFor(tick)).ok());
    }

    // Predicate rejects everything: the load must fail with a
    // message naming the primary path.
    const auto reject = [](const Checkpoint &) {
        return failedPrecondition("not wanted");
    };
    const Result<Checkpoint> none =
        loadCheckpointWithFallback(pathFor(600), reject);
    ASSERT_FALSE(none.ok());
    EXPECT_NE(none.status().message().find(pathFor(600)),
              std::string::npos);

    // Predicate accepting only the older tick exercises the
    // accept-driven fallback (newest is intact but unwanted).
    const auto only300 = [](const Checkpoint &c) {
        return c.tick == 300 ? okStatus()
                             : failedPrecondition("wrong tick");
    };
    const Result<Checkpoint> older =
        loadCheckpointWithFallback(pathFor(600), only300);
    ASSERT_TRUE(older.ok()) << older.status().message();
    EXPECT_EQ(older.value().tick, 300u);
}

TEST(CheckpointRotation, AllCandidatesMissingIsNotFound)
{
    const Result<Checkpoint> none = loadCheckpointWithFallback(
        ::testing::TempDir() + "bl_no_such_ckpt.ckpt");
    ASSERT_FALSE(none.ok());
    EXPECT_EQ(none.status().code(), StatusCode::notFound);
}
