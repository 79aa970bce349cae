/**
 * @file
 * The container codec that checkpoint and event-trace files share.
 * Both file formats are framed the same way:
 *
 *   magic u32 | version u32 | body | checksum u64
 *
 * where checksum is the FNV-1a hash of every byte before it.  Opening
 * checks the checksum first, then the magic and the version, and
 * hands the body to the format's own decoder through a Deserializer
 * whose allocations are capped at a small multiple of the input, so
 * even a checksum-valid file with a crafted count or length field
 * cannot balloon memory (docs/ROBUSTNESS.md §7).  Files are written
 * to `<path>.tmp` and renamed into place, so a crash mid-write never
 * leaves a truncated file under the real name.
 */

#ifndef BIGLITTLE_SNAPSHOT_CONTAINER_HH
#define BIGLITTLE_SNAPSHOT_CONTAINER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/serialize.hh"
#include "base/status.hh"

namespace biglittle
{

/** One framed file format: its name in messages, magic and version. */
struct ContainerFormat
{
    const char *what; ///< "checkpoint", "event trace"
    std::uint32_t magic;
    std::uint32_t version;

    /** A Serializer already holding the magic and the version. */
    Serializer begin() const;

    /** Append the checksum of everything in @p s; the file's bytes. */
    static std::vector<std::uint8_t> seal(Serializer &s);

    /**
     * Check the checksum of @p bytes, then the magic and the version,
     * and return a budgeted Deserializer over the body between them
     * and the checksum.  It reads @p bytes, which must outlive it.
     */
    [[nodiscard]] Result<Deserializer>
    open(const std::vector<std::uint8_t> &bytes) const;

    /** The whole file at @p path; notFound when it cannot be opened. */
    [[nodiscard]] Result<std::vector<std::uint8_t>>
    readFile(const std::string &path) const;

    /**
     * Write @p bytes to `<path>.tmp`, call @p beforeRename (when
     * set), then rename the tmp file onto @p path.
     */
    [[nodiscard]] static Status
    writeFile(const std::string &path,
              const std::vector<std::uint8_t> &bytes,
              const std::function<void()> &beforeRename = nullptr);
};

} // namespace biglittle

#endif // BIGLITTLE_SNAPSHOT_CONTAINER_HH
