/**
 * @file
 * Exhaustive truncation tests: every strict prefix of a valid
 * checkpoint and a valid event trace must be rejected with a clean
 * Status — never a crash, hang, or sanitizer report.  Truncation is
 * the single most common real-world corruption (a process killed
 * mid-write, a full disk), so this boundary gets byte-exhaustive
 * coverage rather than sampled fuzzing.  CI runs this suite under
 * ASan+UBSan, which turns any out-of-bounds read in a decoder into
 * a hard failure here.
 */

#include <gtest/gtest.h>

#include "snapshot/checkpoint.hh"
#include "snapshot/event_trace.hh"

using namespace biglittle;

namespace
{

Checkpoint
sampleCheckpoint()
{
    Checkpoint ckpt;
    ckpt.app = "eternity_warrior2";
    ckpt.label = "default";
    ckpt.masterSeed = 11;
    ckpt.tick = 987654;
    ckpt.sections = {{"eventq", 0x0102030405ull},
                     {"sched", 0xCDCDCDCDCDCDCDCDull},
                     {"", 0}};
    return ckpt;
}

EventTrace
sampleTrace()
{
    EventTrace trace;
    for (std::uint64_t i = 0; i < 16; ++i) {
        TraceRecord r;
        r.when = 100 * i;
        r.priority = static_cast<std::int32_t>(i) - 8;
        r.sequence = i;
        r.name = "ev" + std::to_string(i);
        trace.records.push_back(std::move(r));
    }
    return trace;
}

} // namespace

TEST(Truncate, EveryCheckpointPrefixIsRejectedGracefully)
{
    const std::vector<std::uint8_t> full =
        sampleCheckpoint().encode();
    ASSERT_TRUE(Checkpoint::decode(full).ok());
    for (std::size_t len = 0; len < full.size(); ++len) {
        const std::vector<std::uint8_t> prefix(
            full.begin(),
            full.begin() + static_cast<std::ptrdiff_t>(len));
        const Result<Checkpoint> result =
            Checkpoint::decode(prefix);
        EXPECT_FALSE(result.ok())
            << "a " << len << "-byte prefix of a " << full.size()
            << "-byte checkpoint decoded successfully";
    }
}

TEST(Truncate, EveryTracePrefixIsRejectedGracefully)
{
    const std::vector<std::uint8_t> full = sampleTrace().encode();
    ASSERT_TRUE(EventTrace::decode(full).ok());
    for (std::size_t len = 0; len < full.size(); ++len) {
        const std::vector<std::uint8_t> prefix(
            full.begin(),
            full.begin() + static_cast<std::ptrdiff_t>(len));
        const Result<EventTrace> result =
            EventTrace::decode(prefix);
        EXPECT_FALSE(result.ok())
            << "a " << len << "-byte prefix of a " << full.size()
            << "-byte trace decoded successfully";
    }
}

TEST(Truncate, SuffixesAndInteriorCutsAreRejectedGracefully)
{
    // Dropping bytes from the front or the middle must be as safe
    // as dropping them from the end.
    const std::vector<std::uint8_t> full =
        sampleCheckpoint().encode();
    for (std::size_t start = 1; start < full.size(); ++start) {
        const std::vector<std::uint8_t> suffix(
            full.begin() + static_cast<std::ptrdiff_t>(start),
            full.end());
        EXPECT_FALSE(Checkpoint::decode(suffix).ok());
    }
    for (std::size_t cut = 8; cut + 8 < full.size(); cut += 7) {
        std::vector<std::uint8_t> gouged = full;
        gouged.erase(gouged.begin() +
                         static_cast<std::ptrdiff_t>(cut),
                     gouged.begin() +
                         static_cast<std::ptrdiff_t>(cut + 8));
        EXPECT_FALSE(Checkpoint::decode(gouged).ok());
    }
}
