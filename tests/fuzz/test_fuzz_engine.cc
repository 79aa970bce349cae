/**
 * @file
 * Engine-level tests for the deterministic fuzzer: input derivation
 * is a pure function of (seed, target, iteration), the generic
 * mutator is seeded and total, and each failure kind (exception,
 * hang, allocation) is detected and attributed with a reproducible
 * iteration number.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "fuzz/fuzz.hh"

using namespace biglittle;

namespace
{

/** Trivial target: one seed, no structure-aware mutation. */
class BenignTarget : public FuzzTarget
{
  public:
    std::string name() const override { return "benign"; }

    std::vector<std::vector<std::uint8_t>>
    seedInputs() const override
    {
        return {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}};
    }

    void
    run(const std::vector<std::uint8_t> &input) const override
    {
        (void)input;
    }
};

/** Throws whenever the input starts with an odd byte. */
class ThrowingTarget : public BenignTarget
{
  public:
    std::string name() const override { return "throwing"; }

    void
    run(const std::vector<std::uint8_t> &input) const override
    {
        if (!input.empty() && input[0] % 2 == 1)
            throw std::runtime_error("decoder exploded");
    }
};

/** Burns a fixed amount of CPU on every input. */
class SlowTarget : public BenignTarget
{
  public:
    std::string name() const override { return "slow"; }

    void
    run(const std::vector<std::uint8_t> &input) const override
    {
        (void)input;
        volatile std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < 50'000'000; ++i)
            sink = sink + i;
    }
};

std::uint64_t fakeHeap = 0;

std::uint64_t
fakeHeapProbe()
{
    return fakeHeap;
}

/** Pretends to allocate 10 MiB per input via the fake probe. */
class HungryTarget : public BenignTarget
{
  public:
    std::string name() const override { return "hungry"; }

    void
    run(const std::vector<std::uint8_t> &input) const override
    {
        (void)input;
        fakeHeap += 10u << 20;
    }
};

} // namespace

TEST(FuzzEngine, MutateBytesIsSeedDeterministic)
{
    const std::vector<std::uint8_t> base = {0, 1, 2, 3, 4, 5, 6, 7,
                                            8, 9, 10, 11, 12, 13};
    Rng a(42), b(42), c(43);
    std::vector<std::uint8_t> ma = base, mb = base, mc = base;
    for (int i = 0; i < 16; ++i) {
        mutateBytes(a, ma);
        mutateBytes(b, mb);
        mutateBytes(c, mc);
    }
    EXPECT_EQ(ma, mb);
    EXPECT_NE(ma, base); // 16 rounds always change something
    EXPECT_NE(ma, mc); // different seed, different walk
}

TEST(FuzzEngine, MutateBytesGrowsEmptyInput)
{
    Rng rng(1);
    std::vector<std::uint8_t> empty;
    mutateBytes(rng, empty);
    EXPECT_FALSE(empty.empty());
}

TEST(FuzzEngine, InputDerivationIsPure)
{
    const BenignTarget target;
    FuzzOptions opts;
    opts.seed = 7;
    const Fuzzer one(opts), two(opts);
    for (std::uint64_t iter = 0; iter < 32; ++iter) {
        EXPECT_EQ(one.inputFor(target, iter),
                  two.inputFor(target, iter))
            << "iteration " << iter;
    }

    FuzzOptions other = opts;
    other.seed = 8;
    const Fuzzer three(other);
    bool anyDiffer = false;
    for (std::uint64_t iter = 4; iter < 32 && !anyDiffer; ++iter)
        anyDiffer = one.inputFor(target, iter) !=
                    three.inputFor(target, iter);
    EXPECT_TRUE(anyDiffer);
}

TEST(FuzzEngine, EarlyIterationsReplaySeedsUnmutated)
{
    const BenignTarget target;
    const Fuzzer fuzzer(FuzzOptions{});
    EXPECT_EQ(fuzzer.inputFor(target, 0),
              target.seedInputs()[0]);
}

TEST(FuzzEngine, CleanTargetProducesNoFindings)
{
    const BenignTarget target;
    FuzzOptions opts;
    opts.iterations = 100;
    const FuzzStats stats = Fuzzer(opts).run(target);
    EXPECT_EQ(stats.iterations, 100u);
    EXPECT_TRUE(stats.clean());
}

TEST(FuzzEngine, ExceptionIsCaughtAndAttributed)
{
    const ThrowingTarget target;
    FuzzOptions opts;
    opts.iterations = 50;
    const FuzzStats stats = Fuzzer(opts).run(target);
    ASSERT_FALSE(stats.clean());
    const FuzzFailure &first = stats.failures.front();
    EXPECT_EQ(first.kind, FuzzFailureKind::exception);
    EXPECT_EQ(first.detail, "decoder exploded");
    EXPECT_EQ(first.target, "throwing");

    // The recorded iteration reproduces the identical finding.
    FuzzOptions repro = opts;
    repro.onlyIteration =
        static_cast<std::int64_t>(first.iteration);
    const FuzzStats again = Fuzzer(repro).run(target);
    ASSERT_EQ(again.failures.size(), 1u);
    EXPECT_EQ(again.failures.front().input, first.input);
    EXPECT_EQ(again.iterations, 1u);
}

TEST(FuzzEngine, HangDetectionUsesTheBudget)
{
    const SlowTarget target;
    FuzzOptions opts;
    opts.iterations = 1;
    opts.budgetMsPerInput = 1; // the 50M-step burn takes far longer
    const FuzzStats flagged = Fuzzer(opts).run(target);
    ASSERT_EQ(flagged.failures.size(), 1u);
    EXPECT_EQ(flagged.failures.front().kind, FuzzFailureKind::hang);

    opts.budgetMsPerInput = 0; // 0 disables the check
    EXPECT_TRUE(Fuzzer(opts).run(target).clean());
}

TEST(FuzzEngine, AllocationCapUsesTheProbe)
{
    const HungryTarget target;
    FuzzOptions opts;
    opts.iterations = 1;
    opts.allocProbe = fakeHeapProbe;
    opts.allocMultiple = 2;
    opts.allocSlack = 1 << 10;
    const FuzzStats stats = Fuzzer(opts).run(target);
    ASSERT_EQ(stats.failures.size(), 1u);
    EXPECT_EQ(stats.failures.front().kind,
              FuzzFailureKind::allocation);
    EXPECT_NE(stats.failures.front().detail.find("cap"),
              std::string::npos);

    // Without a probe the same target runs clean.
    opts.allocProbe = nullptr;
    EXPECT_TRUE(Fuzzer(opts).run(target).clean());
}
