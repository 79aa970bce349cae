/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic element of the workbench (input-event arrival,
 * burst sizes, frame-cost jitter) draws from an explicitly seeded
 * Rng so that experiments are exactly reproducible.  The generator is
 * xoshiro256** seeded through SplitMix64, which gives high-quality
 * streams from arbitrary 64-bit seeds.
 */

#ifndef BIGLITTLE_BASE_RANDOM_HH
#define BIGLITTLE_BASE_RANDOM_HH

#include <cstdint>
#include <string>

namespace biglittle
{

class Serializer;

/**
 * A small, fast, deterministic random number generator
 * (xoshiro256**) with convenience distributions.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; any value (incl. 0) is valid. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Re-seed in place. */
    void seed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Exponentially distributed double with the given mean. */
    double exponential(double mean);

    /** Normally distributed double (Box-Muller). */
    double normal(double mean, double stddev);

    /**
     * Log-normal value whose *median* is @p median and whose spread
     * is controlled by @p sigma (sigma of the underlying normal).
     * Handy for heavy-tailed burst costs.
     */
    double logNormal(double median, double sigma);

    /** Bernoulli trial. */
    bool chance(double p);

    /**
     * Derive an independent child generator.  Used to give each
     * simulated thread its own stream so that adding a thread does
     * not perturb the draws of existing threads.
     */
    Rng fork();

    /**
     * Write the full generator state (xoshiro words plus the cached
     * Box-Muller variate): the bytes determine every later draw.
     */
    void serialize(Serializer &s) const;

  private:
    std::uint64_t s[4];

    /** Cached second Box-Muller variate. */
    double cachedNormal = 0.0;
    bool hasCachedNormal = false;
};

/**
 * Seed of the named random stream of one subsystem, derived from the
 * experiment's master seed.  Every stochastic subsystem (fault
 * injector, each workload thread, future consumers) owns a stream
 * keyed by a stable name, so adding a consumer - or reordering
 * construction - never perturbs the draws of unrelated subsystems.
 * The derivation hashes the name and mixes it with the master seed,
 * so streams are independent for any (master, name) pair.
 */
std::uint64_t deriveStreamSeed(std::uint64_t master_seed,
                               const std::string &name);

/** Rng seeded by deriveStreamSeed(master_seed, name). */
Rng namedStream(std::uint64_t master_seed, const std::string &name);

} // namespace biglittle

#endif // BIGLITTLE_BASE_RANDOM_HH
