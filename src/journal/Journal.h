/**
 * @file
 * Append-only structured event journal for serve runs (ROADMAP
 * item 3: durable ops).
 *
 * A Journal is an ordered sequence of JournalEvents — one record per
 * thing the serving cluster did or decided: request arrival,
 * admission (with the WFQ charge), placement decision (with the
 * CostAware score that won), stage submission/completion,
 * backpressure action, request completion, per-chip scheduler
 * summaries, and the run header that makes the log self-describing
 * (pool composition, admission config, tenant table, traffic seed).
 * The serving layer emits events through ChipPool::setJournal /
 * AdmissionController::setJournal; journal/Replayer.h turns a
 * finished journal back into a bit-identical re-run.
 *
 * Integrity is chained per record: every appended record carries an
 * FNV-1a checksum over its canonical binary encoding seeded with the
 * previous record's checksum (the first record chains off the file
 * header), so a flipped byte anywhere breaks every later record and
 * readBinary() reports the first bad record instead of returning
 * silently wrong history. chainChecksum() — the last record's
 * checksum — is therefore a digest of the entire run.
 *
 * Two containers share one canonical record encoding and one record
 * frame (writeFrame / readRecordFrame):
 *
 *  - writeBinary / readBinary — the monolithic stream form
 *    (little-endian, fixed header "DARTHJNL" + format version +
 *    record count), for a retained journal passed through a stream.
 *    Its record count is what catches a cut at a record boundary.
 *    write(read(write(j))) is byte-identical to write(j).
 *  - journal/Segment.h's segment directory — the on-disk form a
 *    SegmentWriter sink streams to as records are appended.
 *
 * The journal itself is serve-agnostic: events carry a kind, a
 * simulated-cycle stamp, four 64-bit arguments, an optional short
 * note, and an optional i64 payload vector. What each field means
 * per kind is documented at EventKind and owned by the emitters.
 */

#ifndef DARTH_JOURNAL_JOURNAL_H
#define DARTH_JOURNAL_JOURNAL_H

#include <cstddef>
#include <cstring>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/Types.h"

namespace darth
{
namespace journal
{

/**
 * What one journal record describes. Argument conventions (a..d,
 * note, values) per kind — doubles travel as bit patterns via
 * doubleBits():
 *
 *  Header records (written once, before any traffic):
 *   RunBegin        a=setup schema version, b=traffic seed,
 *                   c=placement policy, d=pool noise seed;
 *                   values={backlogWindowCycles, slot count,
 *                   uniform flag, trace horizon}.
 *   PoolChip        one per pool slot: a=slot, b=slot factory kind
 *                   (journal/Replayer.h SlotKind), c=the factory's
 *                   tile-count input, d=clockGHz bits, note=spec
 *                   name; values=derived silicon fields (hcts, dce
 *                   pipelines, ace arrays/rows/cols, adc kind) so a
 *                   factory whose derivation drifted since recording
 *                   fails replay loudly.
 *   AdmissionSetup  a=queueDepth, b=qos, c=overflow, d=granularity;
 *                   values={reserved (written 0, ignored on replay),
 *                   per-chip depths...}.
 *   TenantSetup     one per tenant: a=index, b=workload kind,
 *                   c=modelKey, d=weight bits, note=name;
 *                   values={rate bits, burst on, burst off, SLO
 *                   latency target, SLO availability bits,
 *                   arriveNs, departNs}.
 *   FleetSetup      present for a fleet-mode run (FleetConfig):
 *                   a=migration flag, b=autoscale flag, c=minActive,
 *                   d=checkIntervalNs; values={backlogHighNs,
 *                   backlogLowNs, migrateHighNs}.
 *   TraceBegin      a=request count of the recorded trace.
 *
 *  Run records (emitted by ChipPool / AdmissionController). The
 *  cycle stamp of every run record is a *wall-clock nanosecond*
 *  instant — the serving layer's shared time base across frequency
 *  bins; per-chip cycle counts convert exactly through the pool's
 *  integer-picosecond periods:
 *   Arrival         cycle=arrival ns, a=request index, b=tenant,
 *                   d=FNV of the input (word-wise), values=input.
 *   Placement       a=ModelRef, b=model key, c=chip, d=winning
 *                   CostAware score bits (0 unless CostAware),
 *                   note="mvm"/"cnn_infer"/"llm_infer",
 *                   values={1 if an affinity-shared reuse, else 0}.
 *   Admit           cycle=admission ns, a=request index,
 *                   b=tenant, c=chip, d=stage index (kNoStage for a
 *                   whole-unit admission), values={WFQ charge in
 *                   wall picoseconds, nominal whole-unit service
 *                   in wall picoseconds}.
 *   StageSubmit     cycle=admission ns, a=request index,
 *                   b=stage, c=chip, d=stage count of the run.
 *   StageComplete   cycle=stage completion ns, a=request index,
 *                   b=stage, c=chip.
 *   Backpressure    cycle=arrival ns, a=request index, b=tenant,
 *                   c=chip, d=action (0 blocked, 1 rejected).
 *   Complete        cycle=completion ns, a=request index, b=tenant,
 *                   c=chip, d=FNV of the output values (word-wise),
 *                   values={start ns, mvm count}.
 *   ChipSummary     one per chip at end of run: cycle=chip
 *                   makespan ns, a=chip, b=issued, c=pipelineHits,
 *                   d=dependencyStalls (scheduler-counter deltas
 *                   for this run), values={completed, mvms,
 *                   interleavedStages}.
 *   RunEnd          cycle=run makespan ns, a=completed, b=rejected,
 *                   c=output checksum.
 *
 *  Fleet lifecycle records (fleet-mode runs only; stamps are wall
 *  ns like every run record):
 *   TenantArrive    cycle=arrival moment, a=tenant, b=ModelRef of
 *                   the fresh placement, c=its chip.
 *   TenantDepart    cycle=reclaim instant (>= the departure
 *                   moment; begun work drains first), a=tenant,
 *                   b=ModelRef, c=chip, d=departure moment ns.
 *   MigrationBegin  cycle=decision tick, a=lead tenant, b=old
 *                   ModelRef, c=destination chip, d=new ModelRef,
 *                   values={source chip}.
 *   MigrationEnd    cycle=old placement's reclaim instant (its
 *                   begun work drained), a=lead tenant, b=old
 *                   ModelRef, c=source chip, d=new ModelRef.
 *   ChipUp          cycle=activation instant, a=chip, b=1 when an
 *                   arriving tenant forced the reactivation (0 for
 *                   an autoscaler scale-up).
 *   ChipDown        cycle=instant the slot's last placement was
 *                   released (or the scale-down tick when already
 *                   empty), a=chip.
 *
 *  Compaction records (journal/Segment.h Compactor):
 *   RequestSummary  one record replacing a finished request's whole
 *                   event group (Arrival, Admit, StageSubmit,
 *                   StageComplete, Backpressure, Complete):
 *                   cycle=completion ns (arrival ns when rejected),
 *                   a=request index, b=tenant, c=chip, d=FNV of the
 *                   output values (0 when rejected);
 *                   values={arrival ns, start ns, mvm count,
 *                   1 completed / 0 rejected, input words...}. The
 *                   input words keep a compacted journal
 *                   self-describing: Replayer rebuilds the trace
 *                   from summaries exactly as from Arrival records.
 */
enum class EventKind : u32
{
    RunBegin = 0,
    PoolChip,
    AdmissionSetup,
    TenantSetup,
    TraceBegin,
    Arrival,
    Placement,
    Admit,
    StageSubmit,
    StageComplete,
    Backpressure,
    Complete,
    ChipSummary,
    RunEnd,
    FleetSetup,
    TenantArrive,
    TenantDepart,
    MigrationBegin,
    MigrationEnd,
    ChipUp,
    ChipDown,
    RequestSummary,
};

/** Short lowercase kind name (diagnostics). */
const char *eventKindName(EventKind kind);

struct JournalEvent;

/**
 * Where a record sits, for error messages: "record R", or "segment S
 * record R" in a segmented journal. The string is built only when an
 * error is thrown.
 */
struct RecordName
{
    static constexpr u64 kNoSegment = ~u64{0};
    u64 record = 0;
    u64 segment = kNoSegment;
    std::string str() const;
};

/** Canonical little-endian encoding of one record — the bytes the
 *  chained checksum covers and every durable format stores —
 *  replacing the contents of `out` (its capacity is reused). */
void encodeEventBytes(const JournalEvent &e,
                      std::vector<unsigned char> &out);

/** Decode canonical record bytes into `out` (the inverse of
 *  encodeEventBytes; `out`'s capacity is reused); throws
 *  std::runtime_error naming `what` on malformed input. */
void decodeEventBytes(const std::vector<unsigned char> &rec,
                      const RecordName &what, JournalEvent &out);

/** Checksum seed of record 0: FNV-1a over the fixed format prefix
 *  (magic + version) — the chain basis shared by the monolithic
 *  binary format and the segmented one (journal/Segment.h). */
u64 journalChainBasis();

/** Little-endian integer fields of the durable formats (the
 *  monolithic binary journal and journal/Segment.h's segments). */
void appendLeU32(std::vector<unsigned char> &buf, u32 v);
void appendLeU64(std::vector<unsigned char> &buf, u64 v);

/** Write one record frame of the durable formats: u32 record
 *  length, canonical record bytes, u64 chained checksum. */
void writeFrame(std::ostream &out, const std::vector<unsigned char> &rec,
                u64 checksum);

/** Read one field; throws std::runtime_error naming `what` when the
 *  stream is truncated. */
u32 readLeU32(std::istream &in, const std::string &what);
u64 readLeU64(std::istream &in, const std::string &what);

/**
 * Read one record frame of the durable formats — u32 record length,
 * canonical record bytes, u64 chained checksum — into `rec`, verify
 * the checksum against the running `chain`, and return it. The body
 * is read in bounded chunks, so a corrupt length costs memory only
 * for the bytes the stream actually holds. Throws std::runtime_error
 * naming `what` (the record, and the segment) when the frame is
 * truncated or its checksum does not continue the chain.
 */
u64 readRecordFrame(std::istream &in, u64 chain, const RecordName &what,
                    std::vector<unsigned char> &rec);

/** Admit's stage argument for whole-unit admissions. */
constexpr u64 kNoStage = ~u64{0};

/** Bit-pattern transport of doubles through u64 event arguments. */
inline u64
doubleBits(double v)
{
    u64 bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

inline double
bitsToDouble(u64 bits)
{
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/** One journal record (see EventKind for field conventions). */
struct JournalEvent
{
    EventKind kind = EventKind::RunBegin;
    /** Time stamp: wall-clock nanoseconds for run records (0 for
     *  header records). The field keeps its historical name; the
     *  serving layer moved from per-chip cycles to wall ns when
     *  mixed-clock pools became legal. */
    Cycle cycle = 0;
    u64 a = 0;
    u64 b = 0;
    u64 c = 0;
    u64 d = 0;
    /** Short label (tenant/spec name, placement kind). */
    std::string note;
    /** Kind-specific payload (inputs, config words). */
    std::vector<i64> values;

    bool
    operator==(const JournalEvent &other) const
    {
        return kind == other.kind && cycle == other.cycle &&
               a == other.a && b == other.b && c == other.c &&
               d == other.d && note == other.note &&
               values == other.values;
    }
    bool operator!=(const JournalEvent &other) const
    {
        return !(*this == other);
    }
};

/**
 * Observer of appended records: the streaming (flush-on-append)
 * export path. A sink sees every record exactly once, in append
 * order, with its chained checksum and canonical encoded bytes —
 * everything the durable formats store — so exports no longer need
 * the full in-memory event vector. Segment.h's rotating
 * SegmentWriter is the shipped sink.
 */
class JournalSink
{
  public:
    virtual ~JournalSink() = default;
    /** One appended record: decoded form, zero-based index, chained
     *  checksum, and canonical little-endian encoding. */
    virtual void onRecord(const JournalEvent &event, std::size_t index,
                          u64 checksum,
                          const std::vector<unsigned char> &encoded) = 0;
};

/** The append-only event log. */
class Journal
{
  public:
    /** Binary container format version (the file header). */
    static constexpr u32 kFormatVersion = 1;

    /** Append one event; stamps its chained checksum, forwards it to
     *  the attached sink (if any), and returns its index. */
    std::size_t append(JournalEvent event);

    /**
     * Stream appended records into `sink` (nullptr detaches). With
     * `retainEvents` false the journal stops holding decoded
     * records in memory — it becomes a pure chain accumulator
     * (size() / chainChecksum() stay exact; events() / event(i) /
     * writeBinary throw std::logic_error). A million-request run
     * records through a non-retaining journal + SegmentWriter at
     * flat memory. Must be called on an empty journal
     * (std::logic_error otherwise).
     */
    void attachSink(JournalSink *sink, bool retainEvents = true);

    /** Decoded records (std::logic_error when retention is off). */
    const std::vector<JournalEvent> &events() const;
    const JournalEvent &event(std::size_t i) const;
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /**
     * Digest of the whole journal: the last record's chained
     * checksum — FNV-1a over its canonical encoding, seeded with the
     * record before's (the header basis when empty). Two journals
     * with equal chains hold byte-identical histories.
     */
    u64 chainChecksum() const;

    /**
     * History equality: chain checksum and record count always;
     * decoded payloads too when both sides retain them (equal
     * chains already imply byte-identical histories).
     */
    bool operator==(const Journal &other) const;
    bool operator!=(const Journal &other) const
    {
        return !(*this == other);
    }

    /** Serialize to the monolithic binary format, re-deriving each
     *  record's chained checksum as it writes. */
    void writeBinary(std::ostream &out) const;

    /**
     * Parse a binary journal, verifying the header and every
     * record's chained checksum. Throws std::runtime_error naming
     * the first corrupt record (or the malformed header) — a
     * truncated or bit-flipped file never yields a silently wrong
     * history.
     */
    static Journal readBinary(std::istream &in);

  private:
    /** Decoded records (empty when retention is off). */
    std::vector<JournalEvent> events_;
    /** Appended-record count (valid regardless of retention). */
    std::size_t count_ = 0;
    /** Last record's chained checksum (valid when count_ > 0). */
    u64 chainTail_ = 0;
    bool retain_ = true;
    JournalSink *sink_ = nullptr;
    /** The record being appended, encoded (reused across appends). */
    std::vector<unsigned char> encoded_;
};

} // namespace journal
} // namespace darth

#endif // DARTH_JOURNAL_JOURNAL_H
