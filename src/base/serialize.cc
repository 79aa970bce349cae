#include "base/serialize.hh"

namespace biglittle
{

std::uint64_t
fnv1a64(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

std::uint64_t
fnv1a64(const std::string &s)
{
    return fnv1a64(s.data(), s.size());
}

void
Serializer::putU32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
Serializer::putU64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
Serializer::putDouble(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
Serializer::putString(const std::string &s)
{
    putU64(s.size());
    buf.insert(buf.end(), s.begin(), s.end());
}

bool
Deserializer::take(void *out, std::size_t len)
{
    if (!st.ok() || len > remaining) {
        if (st.ok())
            st = outOfRange("deserializer ran past end of buffer");
        std::memset(out, 0, len);
        return false;
    }
    std::memcpy(out, ptr, len);
    ptr += len;
    remaining -= len;
    return true;
}

std::uint32_t
Deserializer::getU32()
{
    std::uint8_t raw[4] = {};
    take(raw, sizeof(raw));
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(raw[i]) << (8 * i);
    return v;
}

std::uint64_t
Deserializer::getU64()
{
    std::uint8_t raw[8] = {};
    take(raw, sizeof(raw));
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(raw[i]) << (8 * i);
    return v;
}

std::string
Deserializer::getString()
{
    const std::uint64_t len = getU64();
    if (!st.ok() || len > remaining) {
        if (st.ok())
            st = outOfRange("deserializer: string past end");
        return {};
    }
    if (!charge(len))
        return {};
    std::string out(reinterpret_cast<const char *>(ptr), len);
    ptr += len;
    remaining -= len;
    return out;
}

std::uint64_t
Deserializer::getCount(std::size_t elemSize)
{
    const std::uint64_t count = getU64();
    if (!st.ok())
        return 0;
    const std::uint64_t maxCount =
        elemSize ? remaining / elemSize : remaining;
    if (count > maxCount) {
        st = outOfRange("deserializer: count field exceeds remaining input");
        return 0;
    }
    if (!charge(count * (elemSize ? elemSize : 1)))
        return 0;
    return count;
}

void
Deserializer::limitAllocations(std::size_t multiple, std::size_t slack)
{
    budgeted = true;
    allocBudget = multiple * remaining + slack;
}

bool
Deserializer::charge(std::size_t bytes)
{
    if (!budgeted)
        return true;
    if (bytes > allocBudget) {
        if (st.ok())
            st = outOfRange("deserializer: allocation budget exceeded");
        allocBudget = 0;
        return false;
    }
    allocBudget -= bytes;
    return true;
}

} // namespace biglittle
