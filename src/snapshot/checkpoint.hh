/**
 * @file
 * Checkpoint: a versioned container of named binary state sections,
 * with crash-safe file I/O.
 *
 * A checkpoint captures everything mutable about a run at one tick:
 * each simulation component contributes one section of bytes written
 * with a Serializer.  The file layout is
 *
 *   magic u32 | version u32 | app string | label string |
 *   masterSeed u64 | tick u64 | eventsServiced u64 |
 *   nextSequence u64 | sectionCount u64 |
 *   (name string | payload bytes) * sectionCount | checksum u64
 *
 * where checksum is the FNV-1a hash of every byte before it.  Writes
 * go to a temporary file that is renamed into place, so a crash
 * mid-write can never leave a truncated checkpoint under the real
 * name; reads validate magic, version, and checksum and return a
 * Status instead of crashing on a damaged file.
 *
 * Restoring does NOT rebuild the event queue from these bytes - the
 * queue holds closures that cannot round-trip through a file.
 * Resume re-executes deterministically up to `tick` and then
 * byte-compares every section against the live state (see
 * docs/DETERMINISM.md), so the sections double as a tamper-evident
 * fingerprint of the run.
 */

#ifndef BIGLITTLE_SNAPSHOT_CHECKPOINT_HH
#define BIGLITTLE_SNAPSHOT_CHECKPOINT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/status.hh"
#include "base/types.hh"

namespace biglittle
{

/**
 * File format magic ("BLCK") and the current layout version.  The
 * version guards every section payload layout, not just the container
 * framing: bump it whenever any component's serialize() bytes change
 * (v2: FaultInjector gained the crash/invariant-break/suppressed
 * counters; v3: EventQueue dropped its recent-event ring, which
 * changed its field schema but no byte), so an old-build checkpoint
 * is rejected up front instead of under-reading a section into
 * garbage.
 */
constexpr std::uint32_t checkpointMagic = 0x424C434BU;
constexpr std::uint32_t checkpointVersion = 3;

/** One component's serialized state. */
struct CheckpointSection
{
    std::string name;
    std::vector<std::uint8_t> payload;
};

/** A full simulation snapshot at one tick. */
struct Checkpoint
{
    std::string app; ///< workload identity guard
    std::string label; ///< config label guard
    std::uint64_t masterSeed = 0;
    Tick tick = 0;
    std::uint64_t eventsServiced = 0;
    std::uint64_t nextSequence = 0;
    std::vector<CheckpointSection> sections;

    /** Append a named section. */
    void add(std::string name, std::vector<std::uint8_t> payload);

    /** Section by name, or nullptr. */
    const CheckpointSection *find(const std::string &name) const;

    /** Serialized size of the whole container in bytes. */
    std::size_t byteSize() const;

    /** Encode to the flat file layout (including the checksum). */
    std::vector<std::uint8_t> encode() const;

    /** Decode; rejects bad magic/version/checksum/truncation. */
    [[nodiscard]] static Result<Checkpoint>
    decode(const std::vector<std::uint8_t> &bytes);

    /**
     * Atomically write to @p path (tmp file + rename).  Existing
     * generations rotate down the `<path>.1` -> `<path>.2` chain
     * first (oldest dropped), so the last good checkpoints survive a
     * bad write when a rerun writes into the same directory.
     */
    [[nodiscard]] Status writeFile(const std::string &path) const;

    /** Read and decode @p path. */
    [[nodiscard]] static Result<Checkpoint>
    readFile(const std::string &path);

    /**
     * Atomically write pre-encoded bytes (tmp file + rename),
     * rotating existing generations down the `<path>.1` ->
     * `<path>.2` chain.
     */
    [[nodiscard]] static Status
    writeBytes(const std::string &path,
               const std::vector<std::uint8_t> &bytes);
};

/**
 * Resume candidates for @p path, newest first: the file itself, its
 * `<path>.1` and `<path>.2` rotations, then - when the name follows
 * the periodic
 * `<stem>.<tick>.ckpt` convention of Experiment - every sibling
 * checkpoint of the same stem with an older tick, newest to oldest.
 */
std::vector<std::string> checkpointCandidates(const std::string &path);

/**
 * Load the newest readable (and, when @p accept is given, accepted)
 * checkpoint from checkpointCandidates(path).  Every rejected
 * candidate is warn()ed with its reason; the Result is the first
 * survivor, or notFound when none is usable.  This is what turns a
 * corrupt newest checkpoint into a logged fallback instead of a dead
 * run.
 */
[[nodiscard]] Result<Checkpoint> loadCheckpointWithFallback(
    const std::string &path,
    const std::function<Status(const Checkpoint &)> &accept = nullptr);

/**
 * Compare two checkpoints section by section.  Returns ok when every
 * section matches byte for byte; otherwise names the first differing
 * (or missing) section and the digests of both sides, which
 * attributes nondeterminism to a component instead of a vague
 * "results differ".
 */
[[nodiscard]] Status compareCheckpoints(const Checkpoint &expected,
                                        const Checkpoint &actual);

} // namespace biglittle

#endif // BIGLITTLE_SNAPSHOT_CHECKPOINT_HH
