#include "journal/Journal.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/Fnv.h"

namespace darth
{
namespace journal
{

namespace
{

/** Binary file magic ("DARTHJNL"). */
constexpr char kMagic[8] = {'D', 'A', 'R', 'T', 'H', 'J', 'N', 'L'};

/** Guards against allocating absurd buffers while parsing a file
 *  whose length fields are corrupt (the checksum would flag the
 *  record anyway, but only after the allocation). */
constexpr u64 kMaxNoteBytes = u64{1} << 20;
constexpr u64 kMaxValueWords = u64{1} << 28;

/** A record body is read this many bytes at a time, so a buffer
 *  grows only with the bytes a stream actually holds. */
constexpr std::size_t kFrameChunkBytes = std::size_t{1} << 16;

std::string
hexU64(u64 v)
{
    static const char hex[] = "0123456789abcdef";
    std::string out = "0x";
    for (int shift = 60; shift >= 0; shift -= 4)
        out.push_back(hex[(v >> shift) & 0xf]);
    return out;
}

} // namespace

void
appendLeU32(std::vector<unsigned char> &buf, u32 v)
{
    for (int shift = 0; shift < 32; shift += 8)
        buf.push_back(static_cast<unsigned char>((v >> shift) & 0xff));
}

void
appendLeU64(std::vector<unsigned char> &buf, u64 v)
{
    for (int shift = 0; shift < 64; shift += 8)
        buf.push_back(static_cast<unsigned char>((v >> shift) & 0xff));
}

u64
readLeU64(std::istream &in, const std::string &what)
{
    unsigned char bytes[8];
    if (!in.read(reinterpret_cast<char *>(bytes), sizeof(bytes)))
        throw std::runtime_error(
            "journal: truncated while reading " + what);
    u64 v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<u64>(bytes[i]) << (8 * i);
    return v;
}

u32
readLeU32(std::istream &in, const std::string &what)
{
    unsigned char bytes[4];
    if (!in.read(reinterpret_cast<char *>(bytes), sizeof(bytes)))
        throw std::runtime_error(
            "journal: truncated while reading " + what);
    u32 v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<u32>(bytes[i]) << (8 * i);
    return v;
}

std::string
RecordName::str() const
{
    std::string name = "record " + std::to_string(record);
    if (segment != kNoSegment)
        name = "segment " + std::to_string(segment) + " " + name;
    return name;
}

namespace
{

/** Read `n` bytes; throws naming `what` when the stream ends first. */
void
readFrameBytes(std::istream &in, unsigned char *buf, std::size_t n,
               const RecordName &what, const char *truncated)
{
    if (!in.read(reinterpret_cast<char *>(buf),
                 static_cast<std::streamsize>(n)))
        throw std::runtime_error(std::string("journal: truncated ") +
                                 truncated + what.str());
}

u64
leBytes(const unsigned char *bytes, int n)
{
    u64 v = 0;
    for (int i = 0; i < n; ++i)
        v |= static_cast<u64>(bytes[i]) << (8 * i);
    return v;
}

/** Append-free little-endian store into a sized buffer. */
unsigned char *
putLe(unsigned char *at, u64 v, int n)
{
    for (int i = 0; i < n; ++i)
        at[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
    return at + n;
}

} // namespace

void
writeFrame(std::ostream &out, const std::vector<unsigned char> &rec,
           u64 checksum)
{
    unsigned char length[4];
    unsigned char sum[8];
    putLe(length, rec.size(), 4);
    putLe(sum, checksum, 8);
    out.write(reinterpret_cast<const char *>(length), sizeof(length));
    out.write(reinterpret_cast<const char *>(rec.data()),
              static_cast<std::streamsize>(rec.size()));
    out.write(reinterpret_cast<const char *>(sum), sizeof(sum));
}

u64
readRecordFrame(std::istream &in, u64 chain, const RecordName &what,
                std::vector<unsigned char> &rec)
{
    unsigned char field[8];
    readFrameBytes(in, field, 4, what, "while reading ");
    const u64 len = leBytes(field, 4);
    rec.clear();
    while (rec.size() < len) {
        const std::size_t have = rec.size();
        const std::size_t chunk =
            std::min<std::size_t>(len - have, kFrameChunkBytes);
        rec.resize(have + chunk);
        readFrameBytes(in, rec.data() + have, chunk, what, "");
    }
    readFrameBytes(in, field, 8, what, "while reading ");
    const u64 stored = leBytes(field, 8);
    const u64 computed = fnv1aBytes(rec.data(), rec.size(), chain);
    if (computed != stored)
        throw std::runtime_error(
            "journal: corrupt " + what.str() +
            " (checksum mismatch, stored " + hexU64(stored) +
            " computed " + hexU64(computed) + ")");
    return stored;
}

/** Field order: kind, cycle, a..d, note length + bytes, value count +
 *  words. */
void
encodeEventBytes(const JournalEvent &e, std::vector<unsigned char> &out)
{
    out.resize(4 + 5 * 8 + 4 + e.note.size() + 4 + 8 * e.values.size());
    unsigned char *at = out.data();
    at = putLe(at, static_cast<u32>(e.kind), 4);
    at = putLe(at, e.cycle, 8);
    at = putLe(at, e.a, 8);
    at = putLe(at, e.b, 8);
    at = putLe(at, e.c, 8);
    at = putLe(at, e.d, 8);
    at = putLe(at, e.note.size(), 4);
    at = std::copy(e.note.begin(), e.note.end(), at);
    at = putLe(at, e.values.size(), 4);
    for (i64 v : e.values)
        at = putLe(at, static_cast<u64>(v), 8);
}

void
decodeEventBytes(const std::vector<unsigned char> &rec,
                 const RecordName &what, JournalEvent &e)
{
    std::size_t pos = 0;
    auto take = [&rec, &pos, &what](int n) -> u64 {
        if (pos + static_cast<std::size_t>(n) > rec.size())
            throw std::runtime_error("journal: malformed " + what.str());
        const u64 v = leBytes(rec.data() + pos, n);
        pos += static_cast<std::size_t>(n);
        return v;
    };
    const u64 kindRaw = take(4);
    if (kindRaw > static_cast<u32>(EventKind::RequestSummary))
        throw std::runtime_error("journal: " + what.str() +
                                 " has unknown event kind " +
                                 std::to_string(kindRaw));
    e.kind = static_cast<EventKind>(kindRaw);
    e.cycle = take(8);
    e.a = take(8);
    e.b = take(8);
    e.c = take(8);
    e.d = take(8);
    const u64 noteLen = take(4);
    if (noteLen > kMaxNoteBytes || pos + noteLen > rec.size())
        throw std::runtime_error("journal: malformed " + what.str());
    e.note.assign(reinterpret_cast<const char *>(rec.data()) + pos,
                  noteLen);
    pos += noteLen;
    const u64 valueCount = take(4);
    if (valueCount > kMaxValueWords || valueCount > (rec.size() - pos) / 8)
        throw std::runtime_error("journal: malformed " + what.str());
    e.values.resize(valueCount);
    for (i64 &v : e.values)
        v = static_cast<i64>(take(8));
    if (pos != rec.size())
        throw std::runtime_error("journal: " + what.str() +
                                 " has trailing bytes");
}

/**
 * Checksum seed for record 0: FNV over the fixed header prefix
 * (magic + format version). A constant of the format, so append()
 * can chain without any file existing yet.
 */
u64
journalChainBasis()
{
    std::vector<unsigned char> buf;
    for (char ch : kMagic)
        buf.push_back(static_cast<unsigned char>(ch));
    appendLeU32(buf, Journal::kFormatVersion);
    return fnv1aBytes(buf.data(), buf.size());
}

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
    case EventKind::RunBegin:
        return "run_begin";
    case EventKind::PoolChip:
        return "pool_chip";
    case EventKind::AdmissionSetup:
        return "admission_setup";
    case EventKind::TenantSetup:
        return "tenant_setup";
    case EventKind::TraceBegin:
        return "trace_begin";
    case EventKind::Arrival:
        return "arrival";
    case EventKind::Placement:
        return "placement";
    case EventKind::Admit:
        return "admit";
    case EventKind::StageSubmit:
        return "stage_submit";
    case EventKind::StageComplete:
        return "stage_complete";
    case EventKind::Backpressure:
        return "backpressure";
    case EventKind::Complete:
        return "complete";
    case EventKind::ChipSummary:
        return "chip_summary";
    case EventKind::RunEnd:
        return "run_end";
    case EventKind::FleetSetup:
        return "fleet_setup";
    case EventKind::TenantArrive:
        return "tenant_arrive";
    case EventKind::TenantDepart:
        return "tenant_depart";
    case EventKind::MigrationBegin:
        return "migration_begin";
    case EventKind::MigrationEnd:
        return "migration_end";
    case EventKind::ChipUp:
        return "chip_up";
    case EventKind::ChipDown:
        return "chip_down";
    case EventKind::RequestSummary:
        return "request_summary";
    }
    return "unknown";
}

std::size_t
Journal::append(JournalEvent event)
{
    if (event.note.size() > kMaxNoteBytes)
        throw std::runtime_error("journal: event note too long");
    if (event.values.size() > kMaxValueWords)
        throw std::runtime_error("journal: event payload too long");
    encodeEventBytes(event, encoded_);
    const u64 prev = count_ == 0 ? journalChainBasis() : chainTail_;
    const u64 checksum =
        fnv1aBytes(encoded_.data(), encoded_.size(), prev);
    chainTail_ = checksum;
    const std::size_t index = count_++;
    if (sink_ != nullptr)
        sink_->onRecord(event, index, checksum, encoded_);
    if (retain_)
        events_.push_back(std::move(event));
    return index;
}

void
Journal::attachSink(JournalSink *sink, bool retainEvents)
{
    if (count_ != 0)
        throw std::logic_error(
            "journal: attachSink requires an empty journal");
    sink_ = sink;
    retain_ = retainEvents;
}

const std::vector<JournalEvent> &
Journal::events() const
{
    if (!retain_)
        throw std::logic_error(
            "journal: events() requires event retention (this "
            "journal streams to a sink without retaining records)");
    return events_;
}

const JournalEvent &
Journal::event(std::size_t i) const
{
    if (!retain_)
        throw std::logic_error(
            "journal: event(i) requires event retention (this "
            "journal streams to a sink without retaining records)");
    if (i >= events_.size())
        throw std::out_of_range("journal: event index out of range");
    return events_[i];
}

u64
Journal::chainChecksum() const
{
    return count_ == 0 ? journalChainBasis() : chainTail_;
}

bool
Journal::operator==(const Journal &other) const
{
    if (chainChecksum() != other.chainChecksum() ||
        count_ != other.count_)
        return false;
    if (retain_ && other.retain_)
        return events_ == other.events_;
    return true;
}

void
Journal::writeBinary(std::ostream &out) const
{
    if (!retain_)
        throw std::logic_error(
            "journal: writeBinary requires event retention (use a "
            "SegmentWriter sink for streaming durable output)");
    std::vector<unsigned char> buf;
    for (char ch : kMagic)
        buf.push_back(static_cast<unsigned char>(ch));
    appendLeU32(buf, kFormatVersion);
    appendLeU32(buf, 0); // reserved
    appendLeU64(buf, events_.size());
    out.write(reinterpret_cast<const char *>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
    u64 chain = journalChainBasis();
    for (const JournalEvent &e : events_) {
        encodeEventBytes(e, buf);
        chain = fnv1aBytes(buf.data(), buf.size(), chain);
        writeFrame(out, buf, chain);
    }
}

Journal
Journal::readBinary(std::istream &in)
{
    char magic[8];
    if (!in.read(magic, sizeof(magic)) ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        throw std::runtime_error("journal: bad magic (not a journal)");
    const u32 version = readLeU32(in, "format version");
    if (version != kFormatVersion)
        throw std::runtime_error(
            "journal: unsupported format version " +
            std::to_string(version));
    if (readLeU32(in, "reserved header field") != 0)
        throw std::runtime_error(
            "journal: reserved header field must be zero");
    const u64 count = readLeU64(in, "record count");

    Journal out;
    u64 chain = journalChainBasis();
    std::vector<unsigned char> rec;
    for (u64 i = 0; i < count; ++i) {
        const RecordName what{i};
        chain = readRecordFrame(in, chain, what, rec);
        // Decode the verified canonical bytes. append() re-derives the
        // same chain from the same bytes, so the in-memory chain
        // equals the verified on-disk chain.
        JournalEvent e;
        decodeEventBytes(rec, what, e);
        out.append(std::move(e));
    }
    return out;
}

} // namespace journal
} // namespace darth
