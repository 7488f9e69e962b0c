#include "journal/Replayer.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "journal/Segment.h"
#include "model/Params.h"
#include "serve/ChipConfig.h"

namespace darth
{
namespace journal
{

namespace
{

/** Largest slot tile count a setup may name: the iso-area chip's
 *  (Table 3), so no count can size a chip past the modelled die. */
std::size_t
maxSlotHcts()
{
    return model::ChipModel{}.hctCount();
}

/** The ChipSpec a slot's factory inputs build. */
serve::ChipSpec
slotSpec(const PoolSlotSetup &slot)
{
    switch (slot.kind) {
      case SlotKind::Default: {
        serve::ChipSpec spec;
        if (slot.hcts != 0)
            spec.chip.numHcts = slot.hcts;
        spec.clockGHz = slot.clockGHz;
        return spec;
      }
      case SlotKind::Uniform:
        return serve::uniformChipSpec(slot.hcts, slot.clockGHz);
      case SlotKind::Sar:
        return serve::heteroChipSpec(analog::AdcKind::Sar, slot.hcts,
                                     slot.clockGHz);
      case SlotKind::Ramp:
        return serve::heteroChipSpec(analog::AdcKind::Ramp, slot.hcts,
                                     slot.clockGHz);
    }
    throw std::invalid_argument("ServeRunSetup: unknown slot kind");
}

/** Emit the self-describing header: RunBegin, one PoolChip per
 *  slot, AdmissionSetup, one TenantSetup per tenant, FleetSetup when
 *  fleet-driven. */
void
emitHeaderRecords(const ServeRunSetup &setup,
                  const serve::ChipPool &pool, Journal &jr)
{
    {
        JournalEvent e;
        e.kind = EventKind::RunBegin;
        e.a = ServeRunSetup::kSetupVersion;
        e.b = setup.trafficSeed;
        e.c = static_cast<u64>(setup.placement);
        e.d = setup.poolSeed;
        e.values = {static_cast<i64>(setup.backlogWindowNs),
                    static_cast<i64>(setup.slots.size()),
                    setup.uniformPool ? i64{1} : i64{0},
                    static_cast<i64>(setup.horizon)};
        jr.append(std::move(e));
    }

    for (std::size_t i = 0; i < setup.slots.size(); ++i) {
        const PoolSlotSetup &slot = setup.slots[i];
        const serve::ChipSpec &spec = pool.spec(i);
        const runtime::ChipConfig &cc = spec.chip;
        JournalEvent e;
        e.kind = EventKind::PoolChip;
        e.a = i;
        e.b = static_cast<u64>(slot.kind);
        e.c = slot.hcts;
        e.d = doubleBits(slot.clockGHz);
        e.note = spec.name;
        // Derived silicon, for verification only: replay rebuilds
        // the chip from (kind, hcts, clock) above, and a factory
        // whose derivation drifted since recording mismatches here.
        e.values = {static_cast<i64>(cc.numHcts),
                    static_cast<i64>(cc.modeledHcts),
                    static_cast<i64>(cc.hct.dce.numPipelines),
                    static_cast<i64>(cc.hct.dce.pipeline.depth),
                    static_cast<i64>(cc.hct.dce.pipeline.width),
                    static_cast<i64>(cc.hct.dce.pipeline.numRegs),
                    static_cast<i64>(cc.hct.ace.numArrays),
                    static_cast<i64>(cc.hct.ace.arrayRows),
                    static_cast<i64>(cc.hct.ace.arrayCols),
                    static_cast<i64>(
                        static_cast<u32>(cc.hct.ace.adc.kind)),
                    static_cast<i64>(cc.hct.ace.numAdcs),
                    cc.hct.ace.rampAutoTerminate ? i64{1} : i64{0}};
        jr.append(std::move(e));
    }

    {
        const serve::AdmissionConfig &ac = setup.admission;
        JournalEvent e;
        e.kind = EventKind::AdmissionSetup;
        e.a = ac.queueDepth;
        e.b = static_cast<u64>(ac.qos);
        e.c = static_cast<u64>(ac.overflow);
        e.d = static_cast<u64>(ac.granularity);
        e.values.push_back(0); // reserved
        for (std::size_t depth : ac.chipQueueDepth)
            e.values.push_back(static_cast<i64>(depth));
        jr.append(std::move(e));
    }

    for (std::size_t t = 0; t < setup.tenants.size(); ++t) {
        const serve::TenantSpec &spec = setup.tenants[t];
        JournalEvent e;
        e.kind = EventKind::TenantSetup;
        e.a = t;
        e.b = static_cast<u64>(spec.kind);
        e.c = spec.modelKey;
        e.d = doubleBits(spec.weight);
        e.note = spec.name;
        e.values = {
            static_cast<i64>(doubleBits(spec.ratePerKns)),
            static_cast<i64>(spec.burst.onNs),
            static_cast<i64>(spec.burst.offNs),
            static_cast<i64>(spec.slo.latencyTargetNs),
            static_cast<i64>(doubleBits(spec.slo.targetAvailability)),
            static_cast<i64>(spec.arriveNs),
            static_cast<i64>(spec.departNs)};
        jr.append(std::move(e));
    }

    if (setup.fleet) {
        const serve::FleetConfig &fc = setup.fleetCfg;
        JournalEvent e;
        e.kind = EventKind::FleetSetup;
        e.a = fc.migration ? 1 : 0;
        e.b = fc.autoscale ? 1 : 0;
        e.c = fc.minActive;
        e.d = fc.checkIntervalNs;
        e.values = {static_cast<i64>(fc.backlogHighNs),
                    static_cast<i64>(fc.backlogLowNs),
                    static_cast<i64>(fc.migrateHighNs)};
        jr.append(std::move(e));
    }
}

/**
 * Drive setup's scenario once with `jr` attached, in the canonical
 * record order every recording and replay path produces: header
 * records (emitHeaderRecords), then the Placement records the
 * AdmissionController emits as it is constructed, TraceBegin
 * announcing `traceBeginCount` (the request count, or
 * kStreamedTraceCount for a pull-based recording), and the run
 * itself, pulled from `source`.
 */
serve::ServeReport
driveRun(const ServeRunSetup &setup, serve::RequestSource &source,
         Journal &jr, u64 traceBeginCount)
{
    serve::ChipPool pool(setup.poolConfig());
    emitHeaderRecords(setup, pool, jr);

    pool.setJournal(&jr);
    // The controller emits its eager Placement records here, before
    // TraceBegin (fleet tenants with arriveNs > 0 place lazily during
    // the run, after it).
    serve::AdmissionController ctrl(
        pool, serve::TrafficGen(setup.trafficSeed), setup.tenants,
        setup.admission,
        setup.fleet ? std::optional<serve::FleetConfig>(setup.fleetCfg)
                    : std::nullopt);

    {
        JournalEvent e;
        e.kind = EventKind::TraceBegin;
        e.a = traceBeginCount;
        jr.append(std::move(e));
    }

    ctrl.setJournal(&jr);
    serve::ServeReport report = ctrl.runStream(source);
    ctrl.setJournal(nullptr);
    pool.setJournal(nullptr);
    return report;
}

/**
 * Parse the self-describing header out of `ev` starting at `i`,
 * consuming through the TraceBegin record (Placement records in
 * between are re-derived on replay, not inputs, and are skipped).
 * Returns TraceBegin's announced request count — possibly
 * kStreamedTraceCount.
 */
u64
parseHeaderRecords(const std::vector<JournalEvent> &ev,
                   std::size_t &i, ServeRunSetup &setup)
{
    auto need = [&](EventKind kind) -> const JournalEvent & {
        if (i >= ev.size())
            throw std::runtime_error(
                std::string("Replayer: journal ended before its ") +
                eventKindName(kind) + " record");
        const JournalEvent &e = ev[i];
        if (e.kind != kind)
            throw std::runtime_error(
                std::string("Replayer: expected ") +
                eventKindName(kind) + " at record " +
                std::to_string(i) + ", found " +
                eventKindName(e.kind));
        ++i;
        return e;
    };

    const JournalEvent &begin = need(EventKind::RunBegin);
    if (begin.a != ServeRunSetup::kSetupVersion)
        throw std::runtime_error(
            "Replayer: unsupported setup version " +
            std::to_string(begin.a) + " (this build replays version " +
            std::to_string(ServeRunSetup::kSetupVersion) + ")");
    if (begin.values.size() < 4 ||
        begin.c > static_cast<u64>(serve::PlacementPolicy::CostAware))
        throw std::runtime_error(
            "Replayer: malformed run_begin record");
    setup.trafficSeed = begin.b;
    setup.placement = static_cast<serve::PlacementPolicy>(begin.c);
    setup.poolSeed = begin.d;
    setup.backlogWindowNs = static_cast<WallNs>(begin.values[0]);
    const std::size_t slot_count =
        static_cast<std::size_t>(begin.values[1]);
    setup.uniformPool = begin.values[2] != 0;
    setup.horizon = static_cast<WallNs>(begin.values[3]);
    if (slot_count == 0)
        throw std::runtime_error(
            "Replayer: run_begin announces an empty pool");

    // Nothing is sized from a count the journal announces: a
    // corrupt count must fail the record checks below, not allocate.
    setup.slots.clear();
    for (std::size_t s = 0; s < slot_count; ++s) {
        const JournalEvent &e = need(EventKind::PoolChip);
        if (e.a != s)
            throw std::runtime_error(
                "Replayer: pool_chip records out of slot order");
        if (e.b > static_cast<u64>(SlotKind::Ramp))
            throw std::runtime_error(
                "Replayer: pool_chip record names unknown slot kind " +
                std::to_string(e.b));
        if (e.c > maxSlotHcts())
            throw std::runtime_error(
                "Replayer: pool_chip record names " +
                std::to_string(e.c) + " tiles, above the iso-area "
                "chip's " + std::to_string(maxSlotHcts()));
        PoolSlotSetup slot;
        slot.kind = static_cast<SlotKind>(e.b);
        slot.hcts = static_cast<std::size_t>(e.c);
        slot.clockGHz = bitsToDouble(e.d);
        setup.slots.push_back(slot);
    }

    const JournalEvent &adm = need(EventKind::AdmissionSetup);
    if (adm.b > static_cast<u64>(serve::QosPolicy::WeightedFair) ||
        adm.c > static_cast<u64>(serve::OverflowPolicy::Reject) ||
        adm.d > static_cast<u64>(serve::Granularity::Stage) ||
        adm.values.empty())
        throw std::runtime_error(
            "Replayer: malformed admission_setup record");
    setup.admission.queueDepth = static_cast<std::size_t>(adm.a);
    setup.admission.qos = static_cast<serve::QosPolicy>(adm.b);
    setup.admission.overflow =
        static_cast<serve::OverflowPolicy>(adm.c);
    setup.admission.granularity =
        static_cast<serve::Granularity>(adm.d);
    // values[0] is a reserved word; the per-chip depths follow it.
    setup.admission.chipQueueDepth.clear();
    for (std::size_t v = 1; v < adm.values.size(); ++v)
        setup.admission.chipQueueDepth.push_back(
            static_cast<std::size_t>(adm.values[v]));

    setup.tenants.clear();
    while (i < ev.size() && ev[i].kind == EventKind::TenantSetup) {
        const JournalEvent &e = ev[i];
        ++i;
        if (e.a != setup.tenants.size())
            throw std::runtime_error(
                "Replayer: tenant_setup records out of index order");
        if (e.b > static_cast<u64>(serve::WorkloadKind::GfWide) ||
            e.values.size() < 7)
            throw std::runtime_error(
                "Replayer: malformed tenant_setup record " +
                std::to_string(i - 1));
        serve::TenantSpec spec;
        spec.name = e.note;
        spec.kind = static_cast<serve::WorkloadKind>(e.b);
        spec.weight = bitsToDouble(e.d);
        spec.ratePerKns =
            bitsToDouble(static_cast<u64>(e.values[0]));
        spec.modelKey = e.c;
        spec.burst.onNs = static_cast<WallNs>(e.values[1]);
        spec.burst.offNs = static_cast<WallNs>(e.values[2]);
        spec.slo.latencyTargetNs = static_cast<WallNs>(e.values[3]);
        spec.slo.targetAvailability =
            bitsToDouble(static_cast<u64>(e.values[4]));
        spec.arriveNs = static_cast<WallNs>(e.values[5]);
        spec.departNs = static_cast<WallNs>(e.values[6]);
        setup.tenants.push_back(std::move(spec));
    }
    if (setup.tenants.empty())
        throw std::runtime_error(
            "Replayer: journal has no tenant_setup records");

    if (i < ev.size() && ev[i].kind == EventKind::FleetSetup) {
        const JournalEvent &e = ev[i];
        ++i;
        if (e.values.size() < 3)
            throw std::runtime_error(
                "Replayer: malformed fleet_setup record");
        setup.fleet = true;
        setup.fleetCfg.migration = e.a != 0;
        setup.fleetCfg.autoscale = e.b != 0;
        setup.fleetCfg.minActive = static_cast<std::size_t>(e.c);
        setup.fleetCfg.checkIntervalNs = e.d;
        setup.fleetCfg.backlogHighNs =
            static_cast<WallNs>(e.values[0]);
        setup.fleetCfg.backlogLowNs =
            static_cast<WallNs>(e.values[1]);
        setup.fleetCfg.migrateHighNs =
            static_cast<WallNs>(e.values[2]);
    }

    // The Placement records the controller emitted sit between the
    // tenant table and trace_begin; they are re-derived on replay,
    // not inputs, so skip to the trace.
    while (i < ev.size() && ev[i].kind == EventKind::Placement)
        ++i;

    return need(EventKind::TraceBegin).a;
}

/**
 * The request an Arrival record (live recording) or RequestSummary
 * record (compacted recording: values open with {arrival, start,
 * mvms, completed} and carry the input words after them) describes;
 * false for any other record. Throws std::runtime_error, prefixed
 * with `who`, on a record out of trace order (`index` is the next
 * expected request) or a malformed summary.
 */
bool
requestOf(const JournalEvent &e, u64 index, serve::ServeRequest &out,
          const char *who)
{
    if (e.kind != EventKind::Arrival &&
        e.kind != EventKind::RequestSummary)
        return false;
    if (e.a != index)
        throw std::runtime_error(std::string(who) + ": " +
                                 eventKindName(e.kind) +
                                 " records out of trace order");
    out.tenant = static_cast<std::size_t>(e.b);
    if (e.kind == EventKind::Arrival) {
        out.arrival = e.cycle;
        out.input = e.values;
        return true;
    }
    if (e.values.size() < 4)
        throw std::runtime_error(std::string(who) +
                                 ": malformed request_summary record");
    out.arrival = static_cast<WallNs>(e.values[0]);
    out.input.assign(e.values.begin() + 4, e.values.end());
    return true;
}

std::string
formatEvent(const JournalEvent &e)
{
    std::string s = eventKindName(e.kind);
    s += "{cycle=" + std::to_string(e.cycle);
    s += " a=" + std::to_string(e.a);
    s += " b=" + std::to_string(e.b);
    s += " c=" + std::to_string(e.c);
    s += " d=" + std::to_string(e.d);
    if (!e.note.empty())
        s += " note=" + e.note;
    s += " values[" + std::to_string(e.values.size()) + "]}";
    return s;
}

} // namespace

serve::PoolConfig
ServeRunSetup::poolConfig() const
{
    if (slots.empty())
        throw std::invalid_argument(
            "ServeRunSetup: pool needs at least one slot");
    for (const PoolSlotSetup &slot : slots) {
        if (slot.clockGHz <= 0.0)
            throw std::invalid_argument(
                "ServeRunSetup: slot clock must be positive");
        if (slot.kind != SlotKind::Default && slot.hcts == 0)
            throw std::invalid_argument(
                "ServeRunSetup: slot tile count must be positive");
        if (slot.hcts > maxSlotHcts())
            throw std::invalid_argument(
                "ServeRunSetup: slot tile count " +
                std::to_string(slot.hcts) + " exceeds the iso-area "
                "chip's " + std::to_string(maxSlotHcts()));
    }

    serve::PoolConfig cfg;
    cfg.placement = placement;
    cfg.seed = poolSeed;
    cfg.backlogWindowNs = backlogWindowNs;
    if (uniformPool) {
        const PoolSlotSetup &first = slots.front();
        for (const PoolSlotSetup &slot : slots)
            if (slot.kind != first.kind || slot.hcts != first.hcts ||
                slot.clockGHz != first.clockGHz)
                throw std::invalid_argument(
                    "ServeRunSetup: a uniform pool's slots must be "
                    "identical");
        // The uniform PoolConfig path replicates a bare
        // runtime::ChipConfig; ChipPool stamps those slots with the
        // default clock, so a uniform setup cannot carry another.
        if (first.clockGHz != model::kClockGHz)
            throw std::invalid_argument(
                "ServeRunSetup: a uniform pool runs at the default "
                "clock; use uniformPool=false for a custom one");
        cfg.chip = slotSpec(first).chip;
        cfg.numChips = slots.size();
    } else {
        cfg.chips.reserve(slots.size());
        for (const PoolSlotSetup &slot : slots)
            cfg.chips.push_back(slotSpec(slot));
    }
    return cfg;
}

ServeRunRecord
recordServeRun(const ServeRunSetup &setup)
{
    serve::TrafficGen gen(setup.trafficSeed);
    return recordServeRun(setup,
                          gen.trace(setup.tenants, setup.horizon));
}

ServeRunRecord
recordServeRun(const ServeRunSetup &setup,
               const std::vector<serve::ServeRequest> &trace)
{
    ServeRunRecord rec;
    rec.trace = trace;
    serve::VectorSource source(rec.trace);
    rec.report =
        driveRun(setup, source, rec.journal, rec.trace.size());
    return rec;
}

Replayer::Replayer(Journal recorded) : recorded_(std::move(recorded))
{
    const std::vector<JournalEvent> &ev = recorded_.events();
    std::size_t i = 0;
    const u64 announced = parseHeaderRecords(ev, i, setup_);
    streamed_ = announced == kStreamedTraceCount;

    // Grown from the records, not reserved from `announced`.
    trace_.clear();
    serve::ServeRequest req;
    for (; i < ev.size(); ++i)
        if (requestOf(ev[i], trace_.size(), req, "Replayer"))
            trace_.push_back(std::move(req));
    if (!streamed_ && trace_.size() != announced)
        throw std::runtime_error(
            "Replayer: trace_begin announces " +
            std::to_string(announced) +
            " requests, journal carries " +
            std::to_string(trace_.size()));
}

Replayer::Result
Replayer::replay() const
{
    Result result;
    // The replayed TraceBegin repeats the recorded announcement, so
    // the two event streams compare record for record. (A
    // *compacted* recording replays to the full event stream and
    // mismatches here by construction; replaySegments() is the
    // compacted comparison.)
    serve::VectorSource source(trace_);
    result.report =
        driveRun(setup_, source, result.journal,
                 streamed_ ? kStreamedTraceCount : trace_.size());

    const std::vector<JournalEvent> &want = recorded_.events();
    const std::vector<JournalEvent> &got =
        result.journal.events();
    const std::size_t common = std::min(want.size(), got.size());
    for (std::size_t i = 0; i < common; ++i) {
        if (want[i] == got[i])
            continue;
        result.firstMismatch = i;
        result.detail = "event " + std::to_string(i) +
                        ": recorded " + formatEvent(want[i]) +
                        ", replayed " + formatEvent(got[i]);
        return result;
    }
    if (want.size() != got.size()) {
        result.firstMismatch = common;
        result.detail =
            "recorded journal has " + std::to_string(want.size()) +
            " events, replay produced " + std::to_string(got.size());
        return result;
    }
    // Equal events encode to equal bytes, so the chains agree too.
    result.identical = true;
    result.firstMismatch = want.size();
    return result;
}

serve::ServeReport
recordServeRunStream(const ServeRunSetup &setup,
                     serve::RequestSource &source, Journal &jr)
{
    if (!jr.empty())
        throw std::invalid_argument(
            "recordServeRunStream: journal must be empty");
    return driveRun(setup, source, jr, kStreamedTraceCount);
}

namespace
{

/**
 * Pull-based trace over a segment stream: yields one ServeRequest
 * per Arrival (live recording) or RequestSummary (compacted
 * recording) record, draining every other record kind on the way —
 * so when the source is exhausted the reader has verified the whole
 * chain.
 */
class SegmentTraceSource : public serve::RequestSource
{
  public:
    explicit SegmentTraceSource(SegmentReader &reader)
        : reader_(reader)
    {
    }

    bool next(serve::ServeRequest &out) override
    {
        JournalEvent e;
        while (reader_.next(e)) {
            if (requestOf(e, next_, out, "replaySegments")) {
                sawSummary_ |= e.kind == EventKind::RequestSummary;
                ++next_;
                return true;
            }
        }
        return false;
    }

    bool sawSummary() const { return sawSummary_; }

  private:
    SegmentReader &reader_;
    u64 next_ = 0;
    bool sawSummary_ = false;
};

/** JournalSink forwarding every replayed record into a Compactor,
 *  so the compacted form of the replayed stream builds alongside
 *  the live form in the same pass. */
class CompactingTee : public JournalSink
{
  public:
    explicit CompactingTee(Compactor &compactor)
        : compactor_(compactor)
    {
    }

    void onRecord(const JournalEvent &event, std::size_t /*index*/,
                  u64 /*checksum*/,
                  const std::vector<unsigned char> & /*encoded*/)
        override
    {
        compactor_.push(event);
    }

  private:
    Compactor &compactor_;
};

} // namespace

SegmentReplayResult
replaySegments(const std::string &dir)
{
    SegmentReader reader(dir);

    // The header is bounded (setup-sized); stream it out of the
    // segments and parse it like the in-memory replayer does.
    std::vector<JournalEvent> header;
    bool saw_trace_begin = false;
    {
        JournalEvent e;
        while (reader.next(e)) {
            const bool is_tb = e.kind == EventKind::TraceBegin;
            header.push_back(std::move(e));
            if (is_tb) {
                saw_trace_begin = true;
                break;
            }
        }
    }
    if (!saw_trace_begin)
        throw std::runtime_error(
            "replaySegments: recording has no trace_begin record");
    ServeRunSetup setup;
    std::size_t cursor = 0;
    const u64 announced = parseHeaderRecords(header, cursor, setup);

    // Re-drive with the recorded arrivals streamed back in,
    // building the live chain and (through the tee) the compacted
    // chain in one pass — both at flat memory.
    SegmentTraceSource source(reader);
    Journal live;
    Journal compact_out;
    compact_out.attachSink(nullptr, /*retainEvents=*/false);
    Compactor compactor(compact_out);
    CompactingTee tee(compactor);
    live.attachSink(&tee, /*retainEvents=*/false);

    SegmentReplayResult result;
    result.report = driveRun(setup, source, live, announced);
    compactor.finish();

    // The source drained the reader to end of stream, so its chain
    // now covers the whole recording.
    result.recordedChain = reader.chainChecksum();
    result.recordedRecords = reader.recordIndex();
    const bool compacted = source.sawSummary();
    result.replayedChain = compacted ? compact_out.chainChecksum()
                                     : live.chainChecksum();
    const std::size_t replayed_records =
        compacted ? compact_out.size() : live.size();
    result.identical =
        result.replayedChain == result.recordedChain &&
        replayed_records == result.recordedRecords;
    if (!result.identical)
        result.detail =
            "recorded " + std::to_string(result.recordedRecords) +
            " records (chain " +
            std::to_string(result.recordedChain) + "), replayed " +
            std::to_string(replayed_records) + " (chain " +
            std::to_string(result.replayedChain) + ", " +
            (compacted ? "compacted" : "live") + " form)";
    return result;
}

} // namespace journal
} // namespace darth
