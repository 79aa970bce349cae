/**
 * @file
 * Weighted histograms over fixed bin edges and over discrete keys.
 *
 * Used for frequency-residency distributions (time spent at each OPP)
 * and for utilization-bucket decompositions, where each observation
 * carries a duration weight rather than a unit count.
 */

#ifndef BIGLITTLE_BASE_HISTOGRAM_HH
#define BIGLITTLE_BASE_HISTOGRAM_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace biglittle
{

class Serializer;

/**
 * Histogram over half-open numeric bins [edge_i, edge_{i+1}) with
 * under/overflow buckets and per-observation weights.
 */
class BinnedHistogram
{
  public:
    /** @param edges strictly increasing bin boundaries (>= 1 edge). */
    explicit BinnedHistogram(std::vector<double> edges);

    /** Accumulate @p weight into the bin containing @p x. */
    void add(double x, double weight = 1.0);

    /** Number of interior bins (edges.size() - 1). */
    std::size_t bins() const;

    /** Weight in interior bin @p i. */
    double binWeight(std::size_t i) const;

    /** Weight of observations below the first edge. */
    double underflow() const { return under; }

    /** Weight of observations at/above the last edge. */
    double overflow() const { return over; }

    /** Total accumulated weight including under/overflow. */
    double totalWeight() const { return total; }

    /** Fraction of total weight in interior bin @p i (0 if empty). */
    double binFraction(std::size_t i) const;

    /** Lower edge of interior bin @p i. */
    double binLow(std::size_t i) const;

    /** Upper edge of interior bin @p i. */
    double binHigh(std::size_t i) const;

    /** Drop all accumulated weight. */
    void reset();

  private:
    std::vector<double> edges;
    std::vector<double> weights;
    double under = 0.0;
    double over = 0.0;
    double total = 0.0;
};

/**
 * Weighted histogram over arbitrary discrete 64-bit keys (e.g. OPP
 * frequencies in kHz).  Keys are kept sorted for stable reporting.
 */
class DiscreteHistogram
{
  public:
    /** Accumulate @p weight at @p key. */
    void add(std::uint64_t key, double weight = 1.0);

    /** Total accumulated weight across all keys. */
    double totalWeight() const { return total; }

    /** Weight at @p key (0 if never seen). */
    double weightAt(std::uint64_t key) const;

    /** Fraction of total weight at @p key (0 if total is 0). */
    double fractionAt(std::uint64_t key) const;

    /** Sorted (key, weight) view. */
    const std::map<std::uint64_t, double> &cells() const { return map; }

    /** Drop all accumulated weight. */
    void reset();

    /** Write cells + total (sorted, so byte-stable). */
    void serialize(Serializer &s) const;

  private:
    std::map<std::uint64_t, double> map;
    double total = 0.0;
};

} // namespace biglittle

#endif // BIGLITTLE_BASE_HISTOGRAM_HH
