#include "base/random.hh"

#include <cmath>

#include "base/logging.hh"
#include "base/serialize.hh"

namespace biglittle
{

namespace
{

/** SplitMix64: used only to expand seeds into full generator state. */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(std::uint64_t seed_value)
{
    std::uint64_t sm = seed_value;
    for (auto &word : s)
        word = splitMix64(sm);
    hasCachedNormal = false;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;

    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    BL_ASSERT(lo <= hi);
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    BL_ASSERT(lo <= hi);
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) // full 64-bit range
        return next();
    return lo + next() % span;
}

double
Rng::exponential(double mean)
{
    BL_ASSERT(mean > 0.0);
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Rng::normal(double mean, double stddev)
{
    if (hasCachedNormal) {
        hasCachedNormal = false;
        return mean + stddev * cachedNormal;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal = r * std::sin(theta);
    hasCachedNormal = true;
    return mean + stddev * r * std::cos(theta);
}

double
Rng::logNormal(double median, double sigma)
{
    BL_ASSERT(median > 0.0);
    return median * std::exp(normal(0.0, sigma));
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

Rng
Rng::fork()
{
    return Rng(next());
}

void
Rng::serialize(Serializer &ser) const
{
    for (const auto &word : s)
        ser.putU64(word);
    ser.putDouble(cachedNormal);
    ser.putBool(hasCachedNormal);
}

std::uint64_t
deriveStreamSeed(std::uint64_t master_seed, const std::string &name)
{
    // Mix the master seed once through SplitMix64 before folding in
    // the name hash so that master seeds 0 and 1 do not yield nearby
    // stream families.
    std::uint64_t sm = master_seed;
    const std::uint64_t mixed = splitMix64(sm);
    sm = mixed ^ fnv1a64(name);
    return splitMix64(sm);
}

Rng
namedStream(std::uint64_t master_seed, const std::string &name)
{
    return Rng(deriveStreamSeed(master_seed, name));
}

} // namespace biglittle
