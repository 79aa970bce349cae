/**
 * @file
 * Event-trace recording and replay comparison.
 *
 * An EventTrace is the ordered list of every event the queue
 * serviced: (when, priority, sequence, name).  Recording one run and
 * comparing a second run against it turns "the results differ" into
 * "the first diverging event was X at tick T" - the single most
 * useful fact when hunting nondeterminism, because everything before
 * that event is known-identical and everything after it is fallout.
 *
 * The recorder taps EventQueue::setServiceHook.  Record and replay
 * both use it: replay records the run too, and once the run ends
 * compareTraces() finds the first event where it left the reference.
 *
 * A trace file is framed like a checkpoint (snapshot/container.hh):
 *
 *   magic u32 | version u32 | recordCount u64 |
 *   (when u64 | priority i64 | sequence u64 | name string)
 *       * recordCount | checksum u64
 */

#ifndef BIGLITTLE_SNAPSHOT_EVENT_TRACE_HH
#define BIGLITTLE_SNAPSHOT_EVENT_TRACE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/status.hh"
#include "base/types.hh"
#include "sim/eventq.hh"

namespace biglittle
{

/** One serviced event, as written to a trace. */
struct TraceRecord
{
    Tick when = 0;
    std::int32_t priority = 0;
    std::uint64_t sequence = 0;
    std::string name;

    /** FNV-1a fingerprint of the whole record. */
    std::uint64_t payloadHash() const;

    /** One line: tick, sequence, priority, name and payload hash. */
    std::string describe() const;

    bool
    operator==(const TraceRecord &other) const
    {
        return when == other.when && priority == other.priority &&
               sequence == other.sequence && name == other.name;
    }
};

/** File format magic ("BLTR") and layout version. */
constexpr std::uint32_t traceMagic = 0x424C5452U;
constexpr std::uint32_t traceVersion = 1;

/** An ordered record of every serviced event. */
struct EventTrace
{
    std::vector<TraceRecord> records;

    /** Encode to the file layout above (including the checksum). */
    std::vector<std::uint8_t> encode() const;

    /** Decode; rejects bad checksum/magic/version/truncation. */
    [[nodiscard]] static Result<EventTrace>
    decode(const std::vector<std::uint8_t> &bytes);

    /** Atomically write to @p path (tmp file + rename). */
    [[nodiscard]] Status writeFile(const std::string &path) const;

    /** Read and decode @p path. */
    [[nodiscard]] static Result<EventTrace>
    readFile(const std::string &path);
};

/** Where and how two event streams first differ. */
struct Divergence
{
    std::size_t index = 0; ///< position in the reference trace
    std::optional<TraceRecord> expected; ///< absent: extra event
    std::optional<TraceRecord> actual; ///< absent: premature end

    /** Human-readable one-paragraph report. */
    std::string describe() const;
};

/**
 * Captures serviced events from a queue via its service hook.
 * Install with attach(); detach() (or destruction) restores the
 * queue's previous hookless state.
 */
class EventTraceRecorder
{
  public:
    EventTraceRecorder() = default;
    ~EventTraceRecorder();

    EventTraceRecorder(const EventTraceRecorder &) = delete;
    EventTraceRecorder &operator=(const EventTraceRecorder &) = delete;

    /** Start recording every serviced event of @p queue. */
    void attach(EventQueue &queue);

    /** Stop recording and release the queue's hook. */
    void detach();

    const EventTrace &trace() const { return recorded; }

  private:
    EventQueue *queuePtr = nullptr;
    EventTrace recorded;
};

/** Where @p actual first leaves @p expected (nullopt: identical). */
[[nodiscard]] std::optional<Divergence>
compareTraces(const EventTrace &expected, const EventTrace &actual);

} // namespace biglittle

#endif // BIGLITTLE_SNAPSHOT_EVENT_TRACE_HH
