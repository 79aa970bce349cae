#include "sim/abrace.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "base/logging.hh"
#include "sim/event.hh"

namespace biglittle
{

namespace
{

const char *
mode(bool write)
{
    return write ? "WRITE" : "READ ";
}

} // namespace

std::string
RaceDetector::Conflict::key() const
{
    // Canonical (sorted) event order so the key is stable regardless
    // of which side happened to be serviced first.
    const std::string &lo = std::min(eventA, eventB);
    const std::string &hi = std::max(eventA, eventB);
    return lo + "|" + hi + "|" + cell;
}

std::string
RaceDetector::Conflict::describe() const
{
    std::ostringstream os;
    os << "abrace: same-tick event order conflict ("
       << (writeA && writeB ? "write-write" : "read-write") << ")\n"
       << "  tick " << tick << " priority " << priority
       << ", contested state '" << cell << "'\n"
       << "  event '" << eventA << "' " << mode(writeA) << " ("
       << provenanceA << ")\n"
       << "  event '" << eventB << "' " << mode(writeB) << " ("
       << provenanceB << ")\n"
       << "  seen " << count << " time(s); service order between these"
       << " events is an arbitrary tie-break.\n"
       << "  Fix: give the handlers distinct EventPriority values"
       << " (docs/DETERMINISM.md).\n"
       << "  conflict key: " << key() << "\n";
    return os.str();
}

void
RaceDetector::noteRead(std::string_view component,
                       std::string_view field)
{
    note(component, field, false);
}

void
RaceDetector::noteWrite(std::string_view component,
                        std::string_view field)
{
    note(component, field, true);
}

void
RaceDetector::note(std::string_view component, std::string_view field,
                   bool write)
{
    // Accesses outside any event handler (setup, teardown, direct
    // calls from the driver loop) have no same-tick peer to race
    // with; ignore them so components can note unconditionally.
    if (!inEvent)
        return;
    touched = true;
    // An event that cannot race only needs to be counted.
    if (!recording)
        return;
    std::string cell;
    cell.reserve(component.size() + 1 + field.size());
    cell.append(component);
    cell.push_back('/');
    cell.append(field);
    Access &a = current.cells[std::move(cell)];
    if (write)
        a.write = true;
    else
        a.read = true;
}

std::string
RaceDetector::describe(const Provenance &p) const
{
    switch (p.site) {
      case Provenance::Site::handler:
        return "scheduled during '" + names[p.scheduler] + "' at tick " +
               std::to_string(p.tick);
      case Provenance::Site::outside:
        return "scheduled at tick " + std::to_string(p.tick) +
               " (outside any event)";
      case Provenance::Site::unknown:
        break;
    }
    return "schedule site unknown";
}

std::uint32_t
RaceDetector::intern(std::string_view name, std::uint32_t hint)
{
    // A periodic or self-rescheduling event was scheduled by an event
    // of its own name, so the scheduler's index usually matches.
    if (hint < names.size() && names[hint] == name)
        return hint;
    if (const auto it = nameIndex.find(name); it != nameIndex.end())
        return it->second;
    const auto index = static_cast<std::uint32_t>(names.size());
    names.emplace_back(name);
    nameIndex.emplace(names.back(), index);
    return index;
}

RaceDetector::Pending *
RaceDetector::findPending(std::uint64_t sequence)
{
    auto it = std::lower_bound(
        pending.begin(), pending.end(), sequence,
        [](const Pending &p, std::uint64_t seq) { return p.sequence < seq; });
    if (it == pending.end() || it->sequence != sequence || !it->live)
        return nullptr;
    return &*it;
}

void
RaceDetector::dropPending(Pending &entry)
{
    entry.live = false;
    // Sweeping costs the vector's length, paid for by the (at least
    // as many) drops since the last sweep.
    if (++pendingDead * 2 > pending.size()) {
        std::erase_if(pending, [](const Pending &p) { return !p.live; });
        pendingDead = 0;
    }
}

void
RaceDetector::onScheduled(const Event &event, Tick now)
{
    BL_ASSERT(pending.empty() ||
              pending.back().sequence < event.sequenceNumber());
    Pending &p = pending.emplace_back();
    p.sequence = event.sequenceNumber();
    p.provenance.tick = now;
    if (inEvent) {
        p.provenance.site = Provenance::Site::handler;
        p.provenance.scheduler = current.name;
        p.provenance.schedulerSeq = current.sequence;
    } else {
        p.provenance.site = Provenance::Site::outside;
    }
}

void
RaceDetector::onDescheduled(const Event &event)
{
    if (Pending *p = findPending(event.sequenceNumber()))
        dropPending(*p);
}

void
RaceDetector::beginEvent(const ServicedEvent &event, bool peerPending)
{
    BL_ASSERT(!inEvent);
    if (batchOpen &&
        (event.when != batchTick || event.priority != batchPriority))
        analyzeBatch();
    if (!batchOpen) {
        batchOpen = true;
        batchTick = event.when;
        batchPriority = event.priority;
    }

    inEvent = true;
    touched = false;
    // Record when a peer could be serviced after this event without
    // descending from it, or when an earlier recorded member could
    // race with this one.
    recording = peerPending || !batch.empty();
    current.sequence = event.sequence;
    current.provenance = Provenance{};
    current.cells.clear();
    if (Pending *p = findPending(event.sequence)) {
        current.provenance = p->provenance;
        dropPending(*p);
    }
    current.name = intern(event.name, current.provenance.scheduler);
    if (recording && current.provenance.site == Provenance::Site::handler)
        batchParent[event.sequence] = current.provenance.schedulerSeq;
}

void
RaceDetector::endEvent()
{
    BL_ASSERT(inEvent);
    inEvent = false;
    if (!touched)
        return;
    ++tracked;
    ++batchTouched;
    if (recording)
        batch.push_back(std::move(current));
}

void
RaceDetector::finish()
{
    BL_ASSERT(!inEvent);
    if (batchOpen)
        analyzeBatch();
}

bool
RaceDetector::isAncestor(std::uint64_t ancestorSeq,
                         std::uint64_t seq) const
{
    // Walk the schedule-parent chain within this batch.  The chain is
    // short (it can only grow within one batch) and acyclic (a parent
    // always has a smaller sequence number than its child).
    auto it = batchParent.find(seq);
    while (it != batchParent.end()) {
        if (it->second == ancestorSeq)
            return true;
        it = batchParent.find(it->second);
    }
    return false;
}

void
RaceDetector::analyzeBatch()
{
    batchOpen = false;
    if (batchTouched > 1)
        ++batches;
    if (batch.size() > 1) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
            for (std::size_t j = i + 1; j < batch.size(); ++j) {
                const Record &a = batch[i];
                const Record &b = batch[j];
                // An event scheduled (transitively) by another batch
                // member is causally ordered after it: not a race.
                if (isAncestor(a.sequence, b.sequence) ||
                    isAncestor(b.sequence, a.sequence))
                    continue;
                // Walk the smaller access set, probe the larger.
                const Record &probe =
                    a.cells.size() <= b.cells.size() ? a : b;
                const Record &other = (&probe == &a) ? b : a;
                for (const auto &[cell, pa] : probe.cells) {
                    auto it = other.cells.find(cell);
                    if (it == other.cells.end())
                        continue;
                    const Access &oa = it->second;
                    // Read-read is commutative; anything with a
                    // write on either side is order-sensitive.
                    if (!pa.write && !oa.write)
                        continue;
                    const bool probeIsA = (&probe == &a);
                    Conflict c;
                    c.tick = batchTick;
                    c.priority = batchPriority;
                    c.eventA = names[a.name];
                    c.eventB = names[b.name];
                    c.cell = cell;
                    c.writeA = probeIsA ? pa.write : oa.write;
                    c.writeB = probeIsA ? oa.write : pa.write;
                    const std::string k = c.key();
                    auto found_it = foundIndex.find(k);
                    if (found_it != foundIndex.end()) {
                        ++found[found_it->second].count;
                    } else {
                        c.provenanceA = describe(a.provenance);
                        c.provenanceB = describe(b.provenance);
                        foundIndex.emplace(k, found.size());
                        found.push_back(std::move(c));
                    }
                }
            }
        }
    }
    batch.clear();
    batchTouched = 0;
    batchParent.clear();
}

std::string
RaceDetector::report() const
{
    if (found.empty())
        return "";
    std::ostringstream os;
    for (const Conflict &c : found)
        os << c.describe() << "\n";
    os << "abrace: " << found.size() << " distinct conflict(s), "
       << batches << " multi-event batch(es) analyzed, " << tracked
       << " event(s) tracked\n";
    return os.str();
}

} // namespace biglittle
