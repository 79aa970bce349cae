/**
 * @file
 * Binary state serialization for state digests, and the bounded
 * reader of the checkpoint and trace containers.
 *
 * The encoding is deliberately dumb: fixed-width little-endian
 * primitives, doubles as their IEEE-754 bit patterns, strings as
 * length-prefixed bytes.  Dumbness is the point - the checkpoint
 * contract is "the same state serializes to the same bytes", and a
 * format with no discretion (no varints, no text rounding, no
 * map-iteration ambiguity) makes that property trivial to audit.
 * Every multi-field component writes its fields in one fixed order,
 * and a checkpoint keeps only the fnv1a64 digest() of those bytes; a
 * version field at the container level (see snapshot/checkpoint.hh)
 * guards layout evolution.  Component state is never decoded back:
 * the Deserializer reads only the checkpoint and trace containers
 * (snapshot/container.hh).
 */

#ifndef BIGLITTLE_BASE_SERIALIZE_HH
#define BIGLITTLE_BASE_SERIALIZE_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "base/status.hh"

namespace biglittle
{

/** FNV-1a 64-bit hash of arbitrary bytes (stable across platforms). */
std::uint64_t fnv1a64(const void *data, std::size_t len);

/** FNV-1a 64-bit hash of a string. */
std::uint64_t fnv1a64(const std::string &s);

/** Appends fixed-layout little-endian fields to a byte buffer. */
class Serializer
{
  public:
    Serializer() = default;

    void putU8(std::uint8_t v) { buf.push_back(v); }
    void putBool(bool v) { putU8(v ? 1 : 0); }
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putI64(std::int64_t v) { putU64(static_cast<std::uint64_t>(v)); }

    /** IEEE-754 bit pattern; bit-exact round trip. */
    void putDouble(double v);

    /** Length-prefixed string. */
    void putString(const std::string &s);

    const std::vector<std::uint8_t> &bytes() const { return buf; }
    std::vector<std::uint8_t> takeBytes() { return std::move(buf); }
    std::size_t size() const { return buf.size(); }

    /** FNV-1a hash of everything written so far. */
    std::uint64_t digest() const { return fnv1a64(buf.data(), buf.size()); }

  private:
    std::vector<std::uint8_t> buf;
};

/**
 * Reads fields back in the order they were written.  Over-reads are
 * recoverable errors (a truncated or corrupt checkpoint must never
 * crash the tool), surfaced through ok()/status(): after the first
 * failed read every subsequent read returns zero values, so callers
 * may decode a whole struct and check ok() once at the end.
 */
class Deserializer
{
  public:
    Deserializer(const void *data, std::size_t len)
        : ptr(static_cast<const std::uint8_t *>(data)), remaining(len)
    {
    }

    explicit Deserializer(const std::vector<std::uint8_t> &bytes)
        : Deserializer(bytes.data(), bytes.size())
    {
    }

    std::uint32_t getU32();
    std::uint64_t getU64();
    std::int64_t getI64() { return static_cast<std::int64_t>(getU64()); }
    std::string getString();

    /**
     * Read an element count that the caller is about to trust with a
     * reserve()/resize() of @p elemSize-byte elements.  A legitimate
     * count can never exceed left()/elemSize (each element still has
     * to be decoded from the remaining bytes), so anything larger is
     * a corrupt or hostile length field: the read fails with
     * outOfRange and returns 0, exactly like an over-read.  Use this
     * instead of a bare getU64() wherever the value sizes an
     * allocation; the fuzz tests fail a decoder that does not
     * (docs/ROBUSTNESS.md §7).
     */
    std::uint64_t getCount(std::size_t elemSize);

    /**
     * Arm the cumulative allocation budget: after this call, bytes
     * "admitted" by getString()/getCount() (count *
     * elemSize) are charged against `multiple * left() + slack`,
     * and the first read that would exceed the budget fails with
     * outOfRange.  This bounds total memory a decode can commit to a
     * small multiple of the input size even across many sections.
     */
    void limitAllocations(std::size_t multiple, std::size_t slack);

    /** True while every read so far stayed in bounds. */
    bool ok() const { return st.ok(); }
    const Status &status() const { return st; }

    /** Bytes not yet consumed. */
    std::size_t left() const { return remaining; }

  private:
    const std::uint8_t *ptr;
    std::size_t remaining;
    Status st;

    bool budgeted = false;
    std::size_t allocBudget = 0;

    bool take(void *out, std::size_t len);
    bool charge(std::size_t bytes);
};

} // namespace biglittle

#endif // BIGLITTLE_BASE_SERIALIZE_HH
