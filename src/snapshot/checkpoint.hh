/**
 * @file
 * Checkpoint: a versioned, checksummed list of named state digests,
 * with crash-safe file I/O.
 *
 * A checkpoint fingerprints everything mutable about a run at one
 * tick: each simulation component contributes one section, the
 * fnv1a64 digest of the bytes its serialize() writes.  The file
 * layout (snapshot/container.hh frames it) is
 *
 *   magic u32 | version u32 | app string | label string |
 *   masterSeed u64 | tick u64 | sectionCount u64 |
 *   (name string | digest u64) * sectionCount | checksum u64
 *
 * where checksum is the FNV-1a hash of every byte before it.  Writes
 * go to a temporary file that is renamed into place, so a crash
 * mid-write can never leave a truncated checkpoint under the real
 * name; reads validate checksum, magic, and version and return a
 * Status instead of crashing on a damaged file.
 *
 * Nothing rebuilds a component from a checkpoint (the event queue
 * alone holds closures that could not round-trip through a file).
 * Resume re-executes deterministically up to `tick` and then compares
 * every live section digest against the file (see
 * docs/DETERMINISM.md), so a checkpoint is a tamper-evident
 * fingerprint of the run, and the same digest list is a run's
 * end-state fingerprint (AppRunResult::stateDigests).
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
 * version covers every section's digest, not just the container
 * framing: bump it whenever any section's serialized bytes change
 * (v2: FaultInjector gained the crash/invariant-break/suppressed
 * counters; v3 changed no byte; v4 stores each section's digest
 * instead of its bytes and drops the serviced/sequence header
 * counters, which the eventq section already holds).  The bump makes
 * a file written with an old layout fail at decode, up front, instead
 * of failing resume verification after the whole fast-forward.
 */
constexpr std::uint32_t checkpointMagic = 0x424C434BU;
constexpr std::uint32_t checkpointVersion = 4;

/**
 * Named fnv1a64 state digests, one per component, in collection order
 * ("eventq", "cluster.N", ..., "app").
 */
using SectionDigests = std::vector<std::pair<std::string, std::uint64_t>>;

/** A full simulation fingerprint at one tick. */
struct Checkpoint
{
    std::string app; ///< workload identity guard
    std::string label; ///< config label guard
    std::uint64_t masterSeed = 0;
    Tick tick = 0;
    SectionDigests sections;

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
 * Compare two section digest lists, position by position, skipping
 * the digest (not the presence) of the section named @p skip.
 * Returns ok when every section matches; otherwise names the first
 * differing, missing or extra section and the digests of both sides,
 * which attributes nondeterminism to a component instead of a vague
 * "results differ".
 */
[[nodiscard]] Status compareSections(const SectionDigests &expected,
                                     const SectionDigests &actual,
                                     const std::string &skip = "");

/** Compare the ticks, then the sections (compareSections). */
[[nodiscard]] Status compareCheckpoints(const Checkpoint &expected,
                                        const Checkpoint &actual);

} // namespace biglittle

#endif // BIGLITTLE_SNAPSHOT_CHECKPOINT_HH
