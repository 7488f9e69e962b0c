/**
 * @file
 * serve_fleet: an open loop of seeded Poisson arrivals in simulated
 * time — serve_bench's fleet scenario over a longer horizon. A 64-chip
 * pool (32 SAR @ 1 GHz + 32 ramp @ 2 GHz) serves 28 tenants: resident,
 * bursty and churning Micro MVM tenants plus staged TinyCnn and
 * encoder inferences, under weighted-fair QoS at stage granularity,
 * with live migration and autoscaling.
 *
 * One serve run (a unit) records the fleet run with recordServeRun
 * (the vector run() path, in-memory journal), runs its fleet-off twin
 * on the same trace (per-chip WorkerPool at a fixed thread count),
 * round-trips the journal through the binary format, and replays it
 * with Replayer. Units repeat until the time budget is spent; every
 * unit must reproduce the first bit for bit.
 */

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "Harness.h"
#include "common/Stats.h"
#include "journal/Journal.h"
#include "journal/Replayer.h"
#include "serve/TrafficGen.h"

namespace perfbench
{
namespace
{

using namespace darth;
using namespace darth::serve;

/** Open-loop horizon of the trace, wall ns (serve_bench: 60,000). */
constexpr WallNs kHorizon = 500000;
/** Trace materialisations per run (setup_s is their median). One
 *  takes ~2.5 ms, so many cost little and steady the median. */
constexpr std::size_t kSetups = 21;
/** SAR baseline tile count of the hetero chip specs (serve_bench). */
constexpr std::size_t kSarHcts = 8;

/** serve_bench's diurnal churn mix: resident base load, bursty
 *  tenants that go quiet together, churners on staggered windows,
 *  staged inference riders. */
std::vector<TenantSpec>
fleetSpecs(WallNs horizon)
{
    std::vector<TenantSpec> specs;
    const auto add = [&specs](TenantSpec spec) {
        spec.name = tenantName('f', specs.size());
        specs.push_back(std::move(spec));
    };
    for (std::size_t i = 0; i < 8; ++i) {
        TenantSpec s;
        s.kind = WorkloadKind::Micro;
        s.weight = 1.0 + static_cast<double>(i % 3);
        s.ratePerKns = 0.8;
        add(s);
    }
    for (std::size_t i = 0; i < 8; ++i) {
        TenantSpec s;
        s.kind = WorkloadKind::Micro;
        s.ratePerKns = 2.0;
        s.burst = {horizon / 10, horizon / 6};
        add(s);
    }
    for (std::size_t i = 0; i < 8; ++i) {
        TenantSpec s;
        s.kind = WorkloadKind::Micro;
        s.ratePerKns = 1.5;
        s.arriveNs = (i + 1) * horizon / 12;
        s.departNs = s.arriveNs + horizon / 3;
        add(s);
    }
    for (std::size_t i = 0; i < 2; ++i) {
        TenantSpec cnn;
        cnn.kind = WorkloadKind::CnnInfer;
        cnn.ratePerKns = 0.08;
        add(cnn);
        TenantSpec llm;
        llm.kind = WorkloadKind::LlmInfer;
        llm.ratePerKns = 0.05;
        add(llm);
    }
    return specs;
}

journal::ServeRunSetup
fleetSetup(u64 seed, std::size_t threads)
{
    journal::ServeRunSetup setup;
    setup.uniformPool = false;
    setup.slots.clear();
    for (std::size_t c = 0; c < 32; ++c)
        setup.slots.push_back({journal::SlotKind::Sar, kSarHcts, 1.0});
    for (std::size_t c = 0; c < 32; ++c)
        setup.slots.push_back({journal::SlotKind::Ramp, kSarHcts, 2.0});
    setup.placement = PlacementPolicy::CostAware;
    setup.trafficSeed = 8008 + seed;
    setup.horizon = kHorizon;
    setup.admission.queueDepth = 2;
    setup.admission.qos = QosPolicy::WeightedFair;
    setup.admission.overflow = OverflowPolicy::Block;
    setup.admission.granularity = Granularity::Stage;
    setup.admission.threads = threads;
    setup.tenants = fleetSpecs(kHorizon);
    setup.fleet = true;
    setup.fleetCfg.checkIntervalNs = 500;
    setup.fleetCfg.backlogHighNs = 3000;
    setup.fleetCfg.backlogLowNs = 300;
    setup.fleetCfg.migrateHighNs = 2000;
    setup.fleetCfg.minActive = 4;
    return setup;
}

u64
mvmsOf(const ServeReport &report)
{
    u64 mvms = 0;
    for (const TenantStats &t : report.tenants)
        mvms += t.mvms;
    return mvms;
}

/** What one unit produced. */
struct Unit
{
    ServeReport report;
    u64 twinMvms = 0;
    std::size_t records = 0;
    std::size_t bytes = 0;
    double fleetSeconds = 0.0;
    double twinSeconds = 0.0;
    double replaySeconds = 0.0;
    double seconds = 0.0;
    u64 fingerprint = 0;
};

Unit
runUnit(const journal::ServeRunSetup &setup,
        const std::vector<ServeRequest> &trace, Tracer &tracer, u64 u,
        Result &res)
{
    Unit out;
    const Clock::time_point t0 = Clock::now();
    Span unit_span(tracer, "serve.unit", u);

    journal::ServeRunRecord rec;
    {
        Span span(tracer, "serve.fleet_run", u);
        rec = journal::recordServeRun(setup, trace);
    }
    out.fleetSeconds = secondsSince(t0);

    journal::ServeRunSetup twin_setup = setup;
    twin_setup.fleet = false;
    const Clock::time_point t1 = Clock::now();
    journal::ServeRunRecord twin;
    {
        Span span(tracer, "serve.static_twin", u);
        twin = journal::recordServeRun(twin_setup, trace);
    }
    out.twinSeconds = secondsSince(t1);

    std::stringstream encoded;
    {
        Span span(tracer, "journal.encode", u);
        rec.journal.writeBinary(encoded);
    }
    out.bytes = static_cast<std::size_t>(encoded.tellp());
    journal::Journal decoded;
    {
        Span span(tracer, "journal.decode", u);
        decoded = journal::Journal::readBinary(encoded);
    }
    res.check(decoded == rec.journal,
              "binary journal round trip is identical");

    const Clock::time_point t2 = Clock::now();
    journal::Replayer::Result replay;
    {
        Span span(tracer, "journal.replay", u);
        replay = journal::Replayer(std::move(decoded)).replay();
    }
    out.replaySeconds = secondsSince(t2);
    out.seconds = secondsSince(t0);

    // Correctness: every request served, outputs equal to the
    // fleet-off twin's, admitted set = completed set, exact replay.
    const u64 missing = trace.size() - std::min<u64>(trace.size(),
                                                     rec.report.completed);
    res.count(trace.size(), missing + rec.report.rejected,
              "requests of the fleet run completed");
    res.check(rec.report.outputChecksum == twin.report.outputChecksum &&
                  rec.report.completed == twin.report.completed,
              "fleet run outputs equal the fleet-off twin's");
    std::set<u64> admitted, completed;
    for (const journal::JournalEvent &e : rec.journal.events()) {
        if (e.kind == journal::EventKind::Admit)
            admitted.insert(e.a);
        else if (e.kind == journal::EventKind::Complete)
            completed.insert(e.a);
    }
    res.check(admitted == completed, "admitted set equals completed set");
    res.check(replay.identical, "journal replay is identical: " +
                                    replay.detail);

    Fingerprint fp;
    fp.add(rec.report.outputChecksum);
    fp.add(static_cast<u64>(rec.report.makespanNs));
    fp.add(rec.report.completed);
    fp.add(rec.journal.chainChecksum());
    fp.add(twin.journal.chainChecksum());
    fp.add(replay.journal.chainChecksum());
    for (const TenantStats &t : rec.report.tenants) {
        fp.add(t.latencyHist.sum());
        fp.add(t.queueingHist.sum());
        fp.add(t.mvms);
    }
    out.fingerprint = fp.value();
    out.records = rec.journal.size();
    out.twinMvms = mvmsOf(twin.report);
    out.report = std::move(rec.report);
    return out;
}

} // namespace

Result
runServeFleet(const Options &opt, Tracer &tracer)
{
    Result res;
    const journal::ServeRunSetup setup = fleetSetup(opt.seed, opt.threads);

    // Set-up: trace materialisation (the pool is built inside
    // recordServeRun and cannot be timed apart from outside).
    std::vector<double> setup_s;
    std::vector<ServeRequest> trace;
    for (std::size_t s = 0; s < kSetups; ++s) {
        const Clock::time_point t0 = Clock::now();
        Span span(tracer, "serve.trace", s);
        trace = TrafficGen(setup.trafficSeed)
                    .trace(setup.tenants, setup.horizon);
        setup_s.push_back(secondsSince(t0));
    }

    // Measured phase; unit 0 warms caches and is not timed. Traced
    // runs alternate traced and untraced units.
    Tracer off(false);
    Unit first;
    std::vector<double> run_s, replay_s, traced_s, plain_s;
    const Clock::time_point start = Clock::now();
    for (u64 u = 0; u < 2 || secondsSince(start) < opt.seconds; ++u) {
        const bool traced = tracer.enabled() && u % 2 == 1;
        Unit unit = runUnit(setup, trace, traced ? tracer : off, u, res);
        if (u == 0) {
            first = std::move(unit);
            continue;
        }
        run_s.push_back(unit.fleetSeconds + unit.twinSeconds);
        replay_s.push_back(unit.replaySeconds);
        (traced ? traced_s : plain_s).push_back(unit.seconds);
        res.check(unit.fingerprint == first.fingerprint,
                  "serve run " + std::to_string(u) +
                      " identical to the first");
    }
    const double rss = peakRssMb();
    const ServeReport &report = first.report;
    res.fingerprint = first.fingerprint;

    // Fleet latencies are per-layer metrics, not end-to-end ones: the
    // tail depends on where a seed's bursts meet autoscaling and
    // migration (for about one seed in three the single-MVM p99 jumps
    // from ~93 ns to 1-10 us), so an end-to-end bound would gate on
    // the seed rather than on the code. Single-MVM requests (over 98%
    // of the trace) and staged inferences are kept apart: the
    // inferences' latencies are four orders of magnitude longer and
    // would coarsen the merged histogram's buckets past the MVM ones.
    StreamingHistogram mvm_lat, queueing, service, infer_lat;
    for (std::size_t t = 0; t < report.tenants.size(); ++t) {
        const TenantStats &ts = report.tenants[t];
        queueing.merge(ts.queueingHist);
        service.merge(ts.serviceHist);
        (isInferenceKind(setup.tenants[t].kind) ? infer_lat : mvm_lat)
            .merge(ts.latencyHist);
    }

    const double mvms =
        static_cast<double>(mvmsOf(report) + first.twinMvms);
    res.e2e("setup_s", median(setup_s), "s");
    res.e2e("host_mvm_per_s", bestRate(mvms, run_s), "1/s");
    res.e2e("replay_records_per_s",
            bestRate(static_cast<double>(first.records), replay_s),
            "1/s");
    res.e2e("peak_rss_mb", rss, "MiB");
    res.check(mvm_lat.count() >= 1000,
              "at least 1000 MVM latency samples");

    if (tracer.enabled()) {
        const auto med = [&](const char *span) {
            return median(tracer.durations(span));
        };
        res.layer("serve.latency_samples",
                  static_cast<double>(mvm_lat.count()), "count");
        res.layer("serve.mvm.latency_p50_ns", mvm_lat.percentile(50.0),
                  "sim_ns");
        res.layer("serve.mvm.latency_p99_ns", mvm_lat.percentile(99.0),
                  "sim_ns");
        res.layer("serve.trace_s", median(setup_s), "s");
        res.layer("serve.fleet_run_s", med("serve.fleet_run"), "s");
        res.layer("serve.static_twin_s", med("serve.static_twin"), "s");
        res.layer("journal.encode_s", med("journal.encode"), "s");
        res.layer("journal.decode_s", med("journal.decode"), "s");
        res.layer("journal.replay_s", med("journal.replay"), "s");
        res.layer("journal.records", static_cast<double>(first.records),
                  "count");
        res.layer("journal.bytes_per_record",
                  static_cast<double>(first.bytes) /
                      static_cast<double>(first.records),
                  "B");
        res.layer("serve.queueing_p99_ns", queueing.percentile(99.0),
                  "sim_ns");
        res.layer("serve.service_p99_ns", service.percentile(99.0),
                  "sim_ns");
        res.layer("serve.infer.latency_p99_ns",
                  infer_lat.percentile(99.0), "sim_ns");
        u64 interleaved = 0, issued = 0, hits = 0;
        double util_sum = 0.0, util_max = 0.0;
        for (const ChipStats &c : report.chips) {
            interleaved += c.interleavedStages;
            issued += c.issued;
            hits += c.pipelineHits;
            util_sum += c.utilization();
            util_max = std::max(util_max, c.utilization());
        }
        res.layer("serve.interleaved_stages",
                  static_cast<double>(interleaved), "count");
        res.layer("runtime.sched.pipeline_hit_ratio",
                  issued ? static_cast<double>(hits) /
                               static_cast<double>(issued)
                         : 0.0,
                  "ratio");
        res.layer("serve.chip.utilization_mean",
                  util_sum / static_cast<double>(report.chips.size()),
                  "ratio");
        res.layer("serve.chip.utilization_max", util_max, "ratio");
        res.layer("serve.throughput_per_us", report.throughputPerKns(),
                  "1/sim_us");
        const FleetStats &fleet = report.fleet;
        res.layer("serve.fleet.migrations",
                  static_cast<double>(fleet.migrations), "count");
        const u64 tried = fleet.migrations + fleet.migrationsAborted;
        res.layer("serve.fleet.migration_abort_ratio",
                  tried ? static_cast<double>(fleet.migrationsAborted) /
                              static_cast<double>(tried)
                        : 0.0,
                  "ratio");
        res.layer("serve.fleet.chip_downs",
                  static_cast<double>(fleet.chipDowns), "count");
        res.layer("serve.fleet.chip_ups",
                  static_cast<double>(fleet.chipUps), "count");
        res.layer("trace.overhead_s",
                  traced_s.empty() || plain_s.empty()
                      ? 0.0
                      : median(traced_s) - median(plain_s),
                  "s");
        res.notes.push_back(
            "host time of serve (TrafficGen, ChipPool, Admission, "
            "FleetController) inside recordServeRun cannot be split "
            "from outside the program; serve.fleet_run_s and "
            "serve.static_twin_s cover them whole");
    }
    reportFigureGaps(res);
    return res;
}

} // namespace perfbench
