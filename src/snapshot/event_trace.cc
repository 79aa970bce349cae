#include "snapshot/event_trace.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/strutil.hh"
#include "snapshot/container.hh"

namespace biglittle
{

std::uint64_t
TraceRecord::payloadHash() const
{
    Serializer s;
    s.putU64(when);
    s.putI64(priority);
    s.putU64(sequence);
    s.putString(name);
    return s.digest();
}

std::string
TraceRecord::describe() const
{
    return format("t=%llu seq=%llu prio=%d '%s' (hash %016llx)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(sequence),
                  static_cast<int>(priority), name.c_str(),
                  static_cast<unsigned long long>(payloadHash()));
}

std::string
Divergence::describe() const
{
    std::string out =
        format("first divergence at event #%zu:\n", index);
    out += "  expected: ";
    out += expected ? expected->describe()
                    : "(no more events in reference trace)";
    out += "\n  actual:   ";
    out += actual ? actual->describe()
                  : "(run ended before this event)";
    return out;
}

namespace
{

constexpr ContainerFormat traceFormat{"event trace", traceMagic,
                                      traceVersion};

} // namespace

std::vector<std::uint8_t>
EventTrace::encode() const
{
    Serializer s = traceFormat.begin();
    s.putU64(records.size());
    for (const TraceRecord &r : records) {
        s.putU64(r.when);
        s.putI64(r.priority);
        s.putU64(r.sequence);
        s.putString(r.name);
    }
    return ContainerFormat::seal(s);
}

Result<EventTrace>
EventTrace::decode(const std::vector<std::uint8_t> &bytes)
{
    Result<Deserializer> body = traceFormat.open(bytes);
    if (!body.ok())
        return body.status();
    Deserializer &d = body.value();

    EventTrace trace;
    // A record is at least when+priority+sequence+name-length =
    // 32 bytes, which bounds any honest count field.
    const std::uint64_t count = d.getCount(32);
    trace.records.reserve(count);
    for (std::uint64_t i = 0; i < count && d.ok(); ++i) {
        TraceRecord r;
        r.when = d.getU64();
        r.priority = static_cast<std::int32_t>(d.getI64());
        r.sequence = d.getU64();
        r.name = d.getString();
        trace.records.push_back(std::move(r));
    }
    if (!d.ok())
        return invalidArgument("event trace body truncated");
    return trace;
}

Status
EventTrace::writeFile(const std::string &path) const
{
    return ContainerFormat::writeFile(path, encode());
}

Result<EventTrace>
EventTrace::readFile(const std::string &path)
{
    const Result<std::vector<std::uint8_t>> bytes =
        traceFormat.readFile(path);
    if (!bytes.ok())
        return bytes.status();
    return decode(bytes.value());
}

EventTraceRecorder::~EventTraceRecorder()
{
    detach();
}

void
EventTraceRecorder::attach(EventQueue &queue)
{
    BL_ASSERT(queuePtr == nullptr);
    queuePtr = &queue;
    queue.setServiceHook([this](const ServicedEvent &ev) {
        recorded.records.push_back(
            {ev.when, ev.priority, ev.sequence, std::string(ev.name)});
    });
}

void
EventTraceRecorder::detach()
{
    if (queuePtr != nullptr) {
        queuePtr->setServiceHook(nullptr);
        queuePtr = nullptr;
    }
}

std::optional<Divergence>
compareTraces(const EventTrace &expected, const EventTrace &actual)
{
    const std::size_t n =
        std::min(expected.records.size(), actual.records.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (!(expected.records[i] == actual.records[i])) {
            return Divergence{i, expected.records[i],
                              actual.records[i]};
        }
    }
    if (expected.records.size() > n)
        return Divergence{n, expected.records[n], std::nullopt};
    if (actual.records.size() > n)
        return Divergence{n, std::nullopt, actual.records[n]};
    return std::nullopt;
}

} // namespace biglittle
