/**
 * @file
 * serve_stream: an open loop in `serve_bench million`'s scenario — the
 * 64-chip pool (32 SAR @ 1 GHz + 32 ramp @ 2 GHz) and 16 Micro 8x8
 * 1-bit tenants, 4 of them bursty. Requests stream from a TraceStream
 * through recordServeRunStream into a SegmentWriter (the record
 * side), then replaySegments replays them from disk (the read side);
 * the recording is also read back with SegmentReader and compacted.
 *
 * The source and the sink are wrapped from outside: the source
 * wrapper stamps the first pull (set-up ends there) and the last
 * arrival in every run; in traced units both wrappers also time each
 * call, summed into one aggregate span per record span.
 */

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "Harness.h"
#include "common/Stats.h"
#include "journal/Journal.h"
#include "journal/Replayer.h"
#include "journal/Segment.h"
#include "serve/TrafficGen.h"

namespace perfbench
{
namespace
{

using namespace darth;
using namespace darth::serve;
namespace fs = std::filesystem;

/** Requests recorded per serve run: short runs give many repeats, so
 *  some fall wholly inside the host's fast spells (see bestRate). */
constexpr std::size_t kRequests = 20000;
/** SAR baseline tile count of the hetero chip specs (serve_bench). */
constexpr std::size_t kSarHcts = 8;

/** serve_bench million's single-MVM mix. */
std::vector<TenantSpec>
streamSpecs()
{
    std::vector<TenantSpec> specs(16);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        TenantSpec &s = specs[i];
        s.name = tenantName('m', i);
        s.kind = WorkloadKind::Micro;
        if (i < 12) {
            s.weight = 1.0 + static_cast<double>(i % 4);
            s.ratePerKns = 2.0;
        } else {
            s.ratePerKns = 4.0;
            s.burst = {200000, 300000};
        }
    }
    return specs;
}

journal::ServeRunSetup
streamSetup(u64 seed)
{
    journal::ServeRunSetup setup;
    setup.uniformPool = false;
    setup.slots.clear();
    for (std::size_t c = 0; c < 32; ++c)
        setup.slots.push_back({journal::SlotKind::Sar, kSarHcts, 1.0});
    for (std::size_t c = 0; c < 32; ++c)
        setup.slots.push_back({journal::SlotKind::Ramp, kSarHcts, 2.0});
    setup.placement = PlacementPolicy::CostAware;
    setup.trafficSeed = 9009 + seed;
    // Far more arrivals than kRequests; the cap ends the run.
    setup.horizon = 100000000;
    setup.admission.queueDepth = 2;
    setup.admission.qos = QosPolicy::WeightedFair;
    setup.admission.overflow = OverflowPolicy::Block;
    setup.tenants = streamSpecs();
    return setup;
}

/** RequestSource wrapper: first-pull stamp, last arrival, and (when
 *  timing) the summed host time of every pull. */
class TimedSource : public RequestSource
{
  public:
    TimedSource(RequestSource &inner, bool timing)
        : inner_(inner), timing_(timing)
    {
    }

    bool
    next(ServeRequest &out) override
    {
        if (calls_.calls++ == 0)
            firstPull_ = Clock::now();
        bool ok = false;
        if (timing_) {
            const Clock::time_point t0 = Clock::now();
            ok = inner_.next(out);
            calls_.seconds += secondsSince(t0);
        } else {
            ok = inner_.next(out);
        }
        if (ok)
            lastArrival_ = out.arrival;
        return ok;
    }

    Clock::time_point firstPull() const { return firstPull_; }
    WallNs lastArrival() const { return lastArrival_; }
    const CallTimer &calls() const { return calls_; }

  private:
    RequestSource &inner_;
    bool timing_;
    CallTimer calls_;
    Clock::time_point firstPull_;
    WallNs lastArrival_ = 0;
};

/** JournalSink wrapper timing every record it forwards. */
class TimedSink : public journal::JournalSink
{
  public:
    TimedSink(journal::JournalSink &inner, bool timing)
        : inner_(inner), timing_(timing)
    {
    }

    void
    onRecord(const journal::JournalEvent &event, std::size_t index,
             u64 checksum,
             const std::vector<unsigned char> &encoded) override
    {
        if (!timing_) {
            inner_.onRecord(event, index, checksum, encoded);
            return;
        }
        const Clock::time_point t0 = Clock::now();
        inner_.onRecord(event, index, checksum, encoded);
        calls_.seconds += secondsSince(t0);
        ++calls_.calls;
    }

    const CallTimer &calls() const { return calls_; }

  private:
    journal::JournalSink &inner_;
    bool timing_;
    CallTimer calls_;
};

/** What one unit produced. */
struct Unit
{
    ServeReport report;
    std::size_t records = 0;
    std::size_t segments = 0;
    std::size_t compacted = 0;
    WallNs lastArrival = 0;
    double setupSeconds = 0.0;
    double recordSeconds = 0.0;
    double replaySeconds = 0.0;
    double seconds = 0.0;
    u64 fingerprint = 0;
};

Unit
runUnit(const journal::ServeRunSetup &setup, const fs::path &dir,
        Tracer &tracer, u64 u, Result &res)
{
    const fs::path live = dir / "live";
    const fs::path compact = dir / "compact";
    fs::remove_all(dir);

    Unit out;
    const Clock::time_point t0 = Clock::now();
    Span unit_span(tracer, "serve.unit", u);
    u64 chain = 0;
    {
        TraceStream stream(setup.trafficSeed, setup.tenants,
                           setup.horizon);
        CappedSource capped(stream, kRequests);
        TimedSource source(capped, tracer.enabled());
        journal::SegmentWriter writer(live.string());
        TimedSink sink(writer, tracer.enabled());
        journal::Journal jr;
        jr.attachSink(&sink, /*retainEvents*/ false);
        {
            Span span(tracer, "serve.record", u);
            out.report = journal::recordServeRunStream(setup, source, jr);
            // The final flush is sink work too.
            const Clock::time_point f0 = Clock::now();
            writer.finish();
            const double finish_s = secondsSince(f0);
            tracer.aggregate("serve.source", u, source.calls().calls,
                             source.calls().seconds);
            tracer.aggregate("journal.sink", u, sink.calls().calls + 1,
                             sink.calls().seconds + finish_s);
        }
        out.recordSeconds = secondsSince(t0);
        out.setupSeconds =
            std::chrono::duration<double>(source.firstPull() - t0)
                .count();
        out.lastArrival = source.lastArrival();
        out.records = jr.size();
        out.segments = writer.segments();
        chain = jr.chainChecksum();
    }

    std::size_t read = 0;
    u64 read_chain = 0;
    {
        Span span(tracer, "journal.read", u);
        journal::SegmentReader reader(live.string());
        journal::JournalEvent e;
        while (reader.next(e))
            ++read;
        read_chain = reader.chainChecksum();
    }
    res.check(read == out.records && read_chain == chain,
              "segments read back with the recorded chain");

    const Clock::time_point t1 = Clock::now();
    journal::SegmentReplayResult replay;
    {
        Span span(tracer, "journal.replay", u);
        replay = journal::replaySegments(live.string());
    }
    out.replaySeconds = secondsSince(t1);
    res.check(replay.identical, "segment replay is identical: " +
                                    replay.detail);
    res.check(replay.report.outputChecksum == out.report.outputChecksum,
              "segment replay checksum equals the recording's");

    journal::CompactResult comp;
    {
        Span span(tracer, "journal.compact", u);
        comp = journal::compactSegments(live.string(), compact.string());
    }
    out.compacted = comp.outputRecords;
    res.check(comp.outputRecords < out.records,
              "compaction shrinks the recording");
    out.seconds = secondsSince(t0);
    fs::remove_all(dir);

    const u64 missing =
        kRequests - std::min<u64>(kRequests, out.report.completed);
    res.count(kRequests, missing + out.report.rejected,
              "requests of the streamed run completed");

    Fingerprint fp;
    fp.add(out.report.outputChecksum);
    fp.add(static_cast<u64>(out.report.makespanNs));
    fp.add(out.report.completed);
    fp.add(chain);
    fp.add(replay.replayedChain);
    fp.add(comp.chainChecksum);
    for (const TenantStats &t : out.report.tenants) {
        fp.add(t.latencyHist.sum());
        fp.add(t.queueingHist.sum());
        fp.add(t.mvms);
    }
    out.fingerprint = fp.value();
    return out;
}

} // namespace

Result
runServeStream(const Options &opt, Tracer &tracer)
{
    Result res;
    const journal::ServeRunSetup setup = streamSetup(opt.seed);
    const fs::path dir = fs::path(opt.workDir) /
                         ("stream-" + std::to_string(::getpid()));

    // Measured phase; unit 0 warms caches and only its set-up is
    // timed. Traced runs alternate traced and untraced units.
    Tracer off(false);
    Unit first;
    std::vector<double> setup_s, record_s, replay_s, traced_s, plain_s;
    const Clock::time_point start = Clock::now();
    for (u64 u = 0; u < 2 || secondsSince(start) < opt.seconds; ++u) {
        const bool traced = tracer.enabled() && u % 2 == 1;
        Unit unit = runUnit(setup, dir, traced ? tracer : off, u, res);
        setup_s.push_back(unit.setupSeconds);
        if (u == 0) {
            first = std::move(unit);
            continue;
        }
        record_s.push_back(unit.recordSeconds - unit.setupSeconds);
        replay_s.push_back(unit.replaySeconds);
        (traced ? traced_s : plain_s).push_back(unit.seconds);
        res.check(unit.fingerprint == first.fingerprint,
                  "serve run " + std::to_string(u) +
                      " identical to the first");
    }
    const double rss = peakRssMb();
    const ServeReport &report = first.report;
    res.fingerprint = first.fingerprint;

    StreamingHistogram latency, queueing;
    u64 mvms = 0;
    for (const TenantStats &t : report.tenants) {
        latency.merge(t.latencyHist);
        queueing.merge(t.queueingHist);
        mvms += t.mvms;
    }

    res.e2e("setup_s", median(setup_s), "s");
    res.e2e("host_mvm_per_s",
            bestRate(static_cast<double>(mvms), record_s), "1/s");
    res.e2e("replay_records_per_s",
            bestRate(static_cast<double>(first.records), replay_s),
            "1/s");
    res.e2e("peak_rss_mb", rss, "MiB");
    res.e2e("sim_latency_p50_ns", latency.percentile(50.0), "sim_ns");
    res.e2e("sim_latency_p99_ns", latency.percentile(99.0), "sim_ns");
    res.check(latency.count() >= 1000, "at least 1000 latency samples");

    if (tracer.enabled()) {
        const auto med = [&](const char *span) {
            return median(tracer.durations(span));
        };
        res.layer("serve.latency_samples",
                  static_cast<double>(latency.count()), "count");
        res.layer("serve.first_pull_s", median(setup_s), "s");
        res.layer("serve.source_s", med("serve.source"), "s");
        res.layer("journal.sink_s", med("journal.sink"), "s");
        res.layer("serve.engine_self_s",
                  median(tracer.selfTimes("serve.record")), "s");
        res.layer("journal.records_per_request",
                  static_cast<double>(first.records) /
                      static_cast<double>(kRequests),
                  "ratio");
        res.layer("journal.records", static_cast<double>(first.records),
                  "count");
        res.layer("journal.segments", static_cast<double>(first.segments),
                  "count");
        res.layer("journal.read_s", med("journal.read"), "s");
        res.layer("journal.replay_s", med("journal.replay"), "s");
        res.layer("journal.compact_s", med("journal.compact"), "s");
        res.layer("journal.compaction_ratio",
                  static_cast<double>(first.records) /
                      static_cast<double>(first.compacted),
                  "x");
        res.layer("serve.queueing_p99_ns", queueing.percentile(99.0),
                  "sim_ns");
        double util = 0.0;
        for (const ChipStats &c : report.chips)
            util += c.utilization();
        res.layer("serve.chip.utilization_mean",
                  util / static_cast<double>(report.chips.size()),
                  "ratio");
        res.layer("serve.backlog_growth_ns",
                  static_cast<double>(report.makespanNs) -
                      static_cast<double>(first.lastArrival),
                  "sim_ns");
        res.layer("trace.overhead_s",
                  traced_s.empty() || plain_s.empty()
                      ? 0.0
                      : median(traced_s) - median(plain_s),
                  "s");
        res.notes.push_back(
            "host time of serve (ChipPool, Admission) and runtime "
            "inside recordServeRunStream cannot be split from outside "
            "the program; serve.engine_self_s covers them whole");
    }
    reportFigureGaps(res);
    return res;
}

} // namespace perfbench
