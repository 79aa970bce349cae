#include "snapshot/event_trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "base/logging.hh"
#include "base/serialize.hh"
#include "base/strutil.hh"

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

std::vector<std::uint8_t>
EventTrace::encode() const
{
    Serializer s;
    s.putU32(traceMagic);
    s.putU32(traceVersion);
    s.putU64(records.size());
    for (const TraceRecord &r : records) {
        s.putU64(r.when);
        s.putI64(r.priority);
        s.putU64(r.sequence);
        s.putString(r.name);
    }
    s.putU64(s.digest());
    return s.takeBytes();
}

Result<EventTrace>
EventTrace::decode(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < 8)
        return invalidArgument("event trace truncated");
    const std::size_t body = bytes.size() - 8;
    Deserializer tail(bytes.data() + body, 8);
    if (tail.getU64() != fnv1a64(bytes.data(), body))
        return invalidArgument("event trace checksum mismatch");

    Deserializer d(bytes.data(), body);
    // Cap decode-time allocations at a small multiple of the input:
    // a crafted count or string length must not balloon memory.
    d.limitAllocations(2, 4096);
    if (d.getU32() != traceMagic)
        return invalidArgument("not an event trace (bad magic)");
    const std::uint32_t version = d.getU32();
    if (version != traceVersion) {
        return invalidArgument(format(
            "unsupported trace version %u (this build reads %u)",
            version, traceVersion));
    }
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
    const std::vector<std::uint8_t> bytes = encode();
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return unavailable("cannot open '" + tmp + "' for writing");
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out)
            return unavailable("short write to '" + tmp + "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return unavailable("cannot rename '" + tmp + "' to '" + path +
                           "'");
    }
    return okStatus();
}

Result<EventTrace>
EventTrace::readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return notFound("cannot open event trace '" + path + "'");
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return decode(bytes);
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
