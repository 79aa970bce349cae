#include "base/histogram.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/serialize.hh"

namespace biglittle
{

BinnedHistogram::BinnedHistogram(std::vector<double> edges_in)
    : edges(std::move(edges_in))
{
    BL_ASSERT(!edges.empty());
    BL_ASSERT(std::is_sorted(edges.begin(), edges.end()));
    for (std::size_t i = 1; i < edges.size(); ++i)
        BL_ASSERT(edges[i] > edges[i - 1]);
    weights.assign(edges.size() > 1 ? edges.size() - 1 : 0, 0.0);
}

void
BinnedHistogram::add(double x, double weight)
{
    total += weight;
    if (x < edges.front()) {
        under += weight;
        return;
    }
    if (x >= edges.back()) {
        over += weight;
        return;
    }
    const auto it = std::upper_bound(edges.begin(), edges.end(), x);
    const auto bin = static_cast<std::size_t>(it - edges.begin()) - 1;
    weights[bin] += weight;
}

std::size_t
BinnedHistogram::bins() const
{
    return weights.size();
}

double
BinnedHistogram::binWeight(std::size_t i) const
{
    BL_ASSERT(i < weights.size());
    return weights[i];
}

double
BinnedHistogram::binFraction(std::size_t i) const
{
    return total > 0.0 ? binWeight(i) / total : 0.0;
}

double
BinnedHistogram::binLow(std::size_t i) const
{
    BL_ASSERT(i < weights.size());
    return edges[i];
}

double
BinnedHistogram::binHigh(std::size_t i) const
{
    BL_ASSERT(i < weights.size());
    return edges[i + 1];
}

void
BinnedHistogram::reset()
{
    std::fill(weights.begin(), weights.end(), 0.0);
    under = over = total = 0.0;
}

void
DiscreteHistogram::add(std::uint64_t key, double weight)
{
    map[key] += weight;
    total += weight;
}

double
DiscreteHistogram::weightAt(std::uint64_t key) const
{
    const auto it = map.find(key);
    return it == map.end() ? 0.0 : it->second;
}

double
DiscreteHistogram::fractionAt(std::uint64_t key) const
{
    return total > 0.0 ? weightAt(key) / total : 0.0;
}

void
DiscreteHistogram::reset()
{
    map.clear();
    total = 0.0;
}

void
DiscreteHistogram::serialize(Serializer &s) const
{
    s.putU64(map.size());
    for (const auto &[key, weight] : map) {
        s.putU64(key);
        s.putDouble(weight);
    }
    s.putDouble(total);
}

} // namespace biglittle
