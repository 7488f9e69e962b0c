/**
 * @file
 * Serving-cluster benchmark: sweeps pool size x offered load x QoS
 * policy over the AES/CNN/LLM request mixes and emits one JSON
 * document on stdout.
 *
 * Eight experiments:
 *
 *  1. scaling      — disjoint CNN tenants at saturating open-loop
 *                    load, Block backpressure with round-robin QoS,
 *                    pool sizes 1/2/4: aggregate delivered
 *                    throughput must scale near-linearly (>= 3.5x at
 *                    4 chips), because each chip contributes
 *                    front-end admission capacity, not just tiles.
 *  2. qos          — a saturating mixed AES+CNN+LLM trace on one
 *                    shared chip under fifo / round_robin /
 *                    weighted_fair; weighted-fair (weights 4:2:1)
 *                    must order the per-class p50 latencies
 *                    AES < CNN < LLM.
 *  3. backpressure — Reject against submission windows of 1/4/16:
 *                    deeper windows trade rejections for queueing
 *                    latency.
 *  4. inference    — whole-inference tenants (CnnInfer TinyCnn
 *                    forwards and LlmInfer encoder layers) behind
 *                    weighted-fair admission: WFQ charges each
 *                    request its whole-inference oracle cost, one
 *                    window slot covers one inference, and the
 *                    per-class latencies are per-inference. The
 *                    report carries the chip schedulers' counters
 *                    (issues, same-matrix pipeline hits, dependency
 *                    stalls).
 *  5. hetero       — the cluster-scale Fig. 17: SAR-only, ramp-only,
 *                    and mixed (2+2) pools of iso-area chip specs
 *                    (serve/ChipConfig) serve an
 *                    AES/GF-wide/CNN/LLM single-MVM mix and a
 *                    CnnInfer/LlmInfer inference mix under
 *                    cost-aware placement, with per-chip windows
 *                    (scaled to each chip's tile count) and
 *                    per-chip stats in the JSON. The mixed pool is
 *                    additionally run under round-robin placement:
 *                    cost-aware must beat it on aggregate
 *                    throughput (it keeps the narrow high-precision
 *                    classes off the ramp chips and routes the wide
 *                    GF(2) class onto them), the mixed pool must be
 *                    at least as fast as the worst homogeneous
 *                    pool, and the output checksum must be
 *                    identical across every pool composition
 *                    (functional results never depend on which
 *                    chip serves a request).
 *  6. stagelevel   — admission granularity: the same bursty
 *                    mvm+inference trace (TrafficGen BurstSpec
 *                    on/off arrivals) on one shared chip with a
 *                    one-slot window, admitted as whole inferences
 *                    vs as InferenceRun stages. Self-checks: the
 *                    output checksum (and completion/issue counts)
 *                    are invariant across granularities; the
 *                    aggregate p95 latency under stage-granular
 *                    admission is no worse than whole-inference
 *                    admission (slots recycle at stage completions,
 *                    so short MVM requests stop waiting out whole
 *                    foreign forwards); and the per-chip admission
 *                    sequence proves stages of at least two
 *                    distinct requests interleaved on one chip
 *                    (interleaved_stages >= 1 in the stage cell,
 *                    0 by construction in the inference cell).
 *  7. journal      — durable ops: the stage-granular mvm+inference
 *                    mix on a mixed 2 SAR + 2 ramp pool is recorded
 *                    to an append-only journal
 *                    (journal/Replayer.h), round-tripped through
 *                    the binary format byte-identically, and
 *                    replayed from the journal alone — every
 *                    placement decision, admission cycle, stage
 *                    completion, and output checksum must reproduce
 *                    bit-identically. Tenants carry SLO targets; an
 *                    impossible 1-cycle target at 0.9 availability
 *                    must burn at exactly 10x and an unreachable
 *                    target at exactly 0 (the burn-rate math
 *                    check).
 *  8. fleet        — fleet lifecycle at wall-clock scale: a 64-chip
 *                    mixed frequency-bin pool (32 SAR @ 1 GHz +
 *                    32 ramp @ 2 GHz) serves a long diurnal churn
 *                    trace as a fleet-mode run (lazy
 *                    placements at tenant arrival, reclaim after
 *                    departure drains, backlog-driven live
 *                    migration, load-hysteresis autoscaling).
 *                    Self-checks: outputs bit-identical to a
 *                    fleet-off run of the same trace, the journal
 *                    replays bit-exactly, no begun inference is
 *                    ever lost, and the scenario is non-vacuous
 *                    (churn, migrations, and chip drains all
 *                    observed). `--stress` stretches the trace 4x
 *                    (the sanitizer CI soak).
 *
 * A ninth experiment runs standalone (never in the default sweep or
 * the checked-in snapshots) as `serve_bench million [--smoke]`:
 *
 *  9. million      — million-request serving at flat memory. A
 *                    64-chip mixed frequency-bin pool serves a
 *                    1,000,000-request diurnal single-MVM trace
 *                    (`--smoke`: 100,000) pulled lazily from a
 *                    TraceStream, recorded through a non-retaining
 *                    Journal into rotating on-disk segments
 *                    (journal/Segment.h), with the report's
 *                    streaming histograms as its only statistics.
 *                    Self-checks, fatal like all the others: every
 *                    request completes; peak RSS of the full run is
 *                    <= 1.3x the peak of a 10x-smaller baseline run
 *                    (measured in-process via getrusage — the
 *                    smaller run goes first because ru_maxrss is
 *                    monotone); the segmented recording replays
 *                    bit-identically (journal/Replayer.h
 *                    replaySegments), with the replayed output
 *                    checksum equal to the live one; and the
 *                    compacted form of the recording replays
 *                    bit-identically too.
 *
 * The self-checks are evaluated in every mode and failures are fatal
 * (non-zero exit), so CI's `serve_bench --smoke` enforces the
 * acceptance criteria. `--smoke` shrinks horizons and the sweep, not
 * the checks.
 *
 * Host-side knobs (never part of the simulated experiment):
 * `--threads N` runs each cell's per-chip simulation on N worker
 * threads (results are bit-identical to --threads 1 by construction;
 * the `threads` config field records the setting), and every cell
 * carries informational `wall_ms` host wall-clock and `max_rss_mb`
 * peak-resident-set fields that bench_diff.py never gates on.
 *
 *   $ ./serve_bench [--smoke] [--stress] [--threads N]
 *   $ ./serve_bench million [--smoke] [--threads N]
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "BenchUtil.h"
#include "common/Stats.h"
#include "journal/Journal.h"
#include "journal/Replayer.h"
#include "journal/Segment.h"
#include "serve/Admission.h"
#include "serve/ChipConfig.h"
#include "serve/ChipPool.h"
#include "serve/ServeStats.h"
#include "serve/TrafficGen.h"

namespace
{

using namespace darth;
using namespace darth::serve;

/** Worker threads per admission run (--threads). Host-side only:
 *  simulated results are bit-identical across any setting. */
std::size_t g_threads = 1;

/** Host wall-clock timer for the informational wall_ms fields. */
struct WallTimer
{
    std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();
    double
    ms() const
    {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    }
};

/** Medium MVM chip (the scheduler-bench geometry, now owned by the
 *  serve/ChipConfig factory so the journal replayer rebuilds the
 *  identical silicon from its factory inputs). */
runtime::ChipConfig
serveChip(std::size_t num_hcts)
{
    return uniformChipSpec(num_hcts).chip;
}

/** Oracle service latency of one kind on one throwaway 1-chip pool
 *  (the same ChipPool helper the weighted-fair charge uses), cached
 *  in `cache` so the sweep cells do not rebuild pools. */
Cycle
cachedNominalLatency(std::map<WorkloadKind, Cycle> &cache,
                     const PoolConfig &pool_cfg, WorkloadKind kind)
{
    const auto it = cache.find(kind);
    if (it != cache.end())
        return it->second;
    TrafficGen gen(1);
    ChipPool pool(pool_cfg);
    const ModelRef model = pool.place(
        0, MatrixModel{gen.weights(kind, 1), TrafficGen::elementBits(kind),
                       TrafficGen::bitsPerCell(kind),
                       TrafficGen::inputBits(kind)});
    const Cycle cost = pool.nominalServiceCycles(
        model, TrafficGen::inputBits(kind));
    cache[kind] = cost;
    return cost;
}

/** Nominal latency on the serve chip (experiments 1-4). */
Cycle
nominalLatency(WorkloadKind kind)
{
    static std::map<WorkloadKind, Cycle> cache;
    PoolConfig pool_cfg;
    pool_cfg.chip = serveChip(1);
    pool_cfg.numChips = 1;
    return cachedNominalLatency(cache, pool_cfg, kind);
}

/** Nominal latency on the hetero SAR design point (load
 *  calibration for the hetero experiment). */
Cycle
heteroNominalLatency(WorkloadKind kind)
{
    static std::map<WorkloadKind, Cycle> cache;
    PoolConfig pool_cfg;
    pool_cfg.chips = {heteroChipSpec(analog::AdcKind::Sar, 1)};
    return cachedNominalLatency(cache, pool_cfg, kind);
}

/** Open-loop rate for a load factor relative to one tile's service
 *  rate (load 1.0 = one tenant alone keeps one tile busy). */
double
ratePerKns(WorkloadKind kind, double load)
{
    return load * 1000.0 / static_cast<double>(nominalLatency(kind));
}

/**
 * Exact per-tenant latency (done - arrival) and queueing (start -
 * arrival) samples in wall ns, read from a run journal's Arrival and
 * Complete records.
 */
struct JournalSamples
{
    std::vector<std::vector<double>> latency;
    std::vector<std::vector<double>> queueing;
};

JournalSamples
journalSamples(const journal::Journal &jr, std::size_t tenants)
{
    JournalSamples out;
    out.latency.resize(tenants);
    out.queueing.resize(tenants);
    std::vector<WallNs> arrival;
    for (const journal::JournalEvent &e : jr.events()) {
        if (e.kind == journal::EventKind::Arrival) {
            if (e.a >= arrival.size())
                arrival.resize(e.a + 1, 0);
            arrival[e.a] = e.cycle;
        } else if (e.kind == journal::EventKind::Complete) {
            const WallNs at = arrival[e.a];
            const auto start = static_cast<WallNs>(e.values[0]);
            out.latency[e.b].push_back(static_cast<double>(e.cycle - at));
            out.queueing[e.b].push_back(static_cast<double>(start - at));
        }
    }
    return out;
}

/** One tenant's JSON row; `lat` and `queue` summarize its latency
 *  and queueing samples (the report's histograms, or exact samples
 *  from the run journal). */
void
printTenantJson(const TenantStats &t, const SampleSummary &lat,
                const SampleSummary &queue, bool last)
{
    std::printf("        {\"name\": \"%s\", \"weight\": %.1f, "
                "\"completed\": %llu, \"rejected\": %llu, "
                "\"mvms\": %llu, "
                "\"latency_p50\": %.0f, \"latency_p95\": %.0f, "
                "\"latency_p99\": %.0f, \"queueing_p50\": %.0f, "
                "\"queueing_p95\": %.0f, "
                "\"slo_target\": %llu, \"slo_violations\": %llu, "
                "\"slo_burn_rate\": %.3f}%s\n",
                t.name.c_str(), t.weight,
                static_cast<unsigned long long>(t.completed),
                static_cast<unsigned long long>(t.rejected),
                static_cast<unsigned long long>(t.mvms),
                lat.p50, lat.p95, lat.p99, queue.p50, queue.p95,
                static_cast<unsigned long long>(
                    t.slo.spec.latencyTargetNs),
                static_cast<unsigned long long>(t.slo.violations),
                t.slo.burnRate(), last ? "" : ",");
}

/** Sum the pool's per-chip scheduler counters. */
runtime::SchedulerCounters
poolCounters(ChipPool &pool)
{
    runtime::SchedulerCounters total;
    for (std::size_t c = 0; c < pool.numChips(); ++c) {
        const auto &ctr = pool.runtime(c).scheduler().counters();
        total.issued += ctr.issued;
        total.pipelineHits += ctr.pipelineHits;
        total.dependencyStalls += ctr.dependencyStalls;
    }
    return total;
}

void
printCountersJson(const runtime::SchedulerCounters &ctr)
{
    std::printf("      \"scheduler\": {\"issued\": %llu, "
                "\"pipeline_hits\": %llu, "
                "\"dependency_stalls\": %llu}",
                static_cast<unsigned long long>(ctr.issued),
                static_cast<unsigned long long>(ctr.pipelineHits),
                static_cast<unsigned long long>(
                    ctr.dependencyStalls));
}

/** Per-chip JSON rows, scheduler counters included. */
void
printChipArrayJson(const ServeReport &report)
{
    std::printf("     \"chips\": [\n");
    for (std::size_t c = 0; c < report.chips.size(); ++c) {
        const ChipStats &cs = report.chips[c];
        std::printf("        {\"chip\": %zu, \"kind\": \"%s\", "
                    "\"hcts\": %zu, \"window\": %zu, "
                    "\"tenants\": %zu, \"completed\": %llu, "
                    "\"mvms\": %llu, \"service_ns\": %.0f, "
                    "\"makespan\": %llu, \"utilization\": %.2f, "
                    "\"throughput_per_kns\": %.3f, "
                    "\"issued\": %llu, \"pipeline_hits\": %llu, "
                    "\"dependency_stalls\": %llu, "
                    "\"interleaved_stages\": %llu}%s\n",
                    c, cs.name.c_str(), cs.hcts, cs.windowDepth,
                    cs.tenants,
                    static_cast<unsigned long long>(cs.completed),
                    static_cast<unsigned long long>(cs.mvms),
                    cs.serviceNs,
                    static_cast<unsigned long long>(cs.makespanNs),
                    cs.utilization(), cs.throughputPerKns(),
                    static_cast<unsigned long long>(cs.issued),
                    static_cast<unsigned long long>(cs.pipelineHits),
                    static_cast<unsigned long long>(
                        cs.dependencyStalls),
                    static_cast<unsigned long long>(
                        cs.interleavedStages),
                    c + 1 == report.chips.size() ? "" : ",");
    }
    std::printf("     ],\n");
}

/** Per-chip front-end ingest window used by the scaling cells. */
constexpr std::size_t kScalingWindowDepth = 2;

// ---------------------------------------------------------------------------
// Experiment 1: throughput scaling across pool sizes.
// ---------------------------------------------------------------------------

double
runScalingCell(std::size_t chips, std::size_t tenant_count,
               double load, Cycle horizon, bool first_cell)
{
    const WallTimer timer;
    TrafficGen gen(1001);
    PoolConfig pool_cfg;
    pool_cfg.chip = serveChip(tenant_count);   // 1 chip fits them all
    pool_cfg.numChips = chips;
    pool_cfg.placement = PlacementPolicy::LeastLoaded;
    ChipPool pool(pool_cfg);

    std::vector<TenantSpec> specs;
    for (std::size_t i = 0; i < tenant_count; ++i) {
        TenantSpec spec;
        spec.name = "cnn" + std::to_string(i);
        spec.kind = WorkloadKind::Cnn;
        spec.ratePerKns = ratePerKns(WorkloadKind::Cnn, load);
        specs.push_back(spec);
    }
    AdmissionConfig cfg;
    cfg.queueDepth = kScalingWindowDepth;
    // Block + round-robin: every freed slot is refilled immediately
    // and rotates across tenants, so the window stays tile-diverse
    // and the run measures delivered capacity, not drop dynamics.
    cfg.overflow = OverflowPolicy::Block;
    cfg.qos = QosPolicy::RoundRobin;
    cfg.threads = g_threads;
    AdmissionController ac(pool, gen, specs, cfg);
    const ServeReport report = ac.run(gen.trace(specs, horizon));

    const double throughput = report.throughputPerKns();
    std::printf("%s    {\"chips\": %zu, \"tenants\": %zu, "
                "\"load\": %.2f, \"depth\": %zu, \"completed\": %llu, "
                "\"rejected\": %llu, \"makespan\": %llu, "
                "\"throughput_per_kns\": %.3f, "
                "\"wall_ms\": %.3f, \"max_rss_mb\": %.1f}",
                first_cell ? "" : ",\n", chips, tenant_count, load,
                cfg.queueDepth,
                static_cast<unsigned long long>(report.completed),
                static_cast<unsigned long long>(report.rejected),
                static_cast<unsigned long long>(report.makespanNs),
                throughput, timer.ms(), bench::peakRssMb());
    return throughput;
}

// ---------------------------------------------------------------------------
// Experiment 2: QoS policies over a saturating mixed trace.
// ---------------------------------------------------------------------------

struct QosOutcome
{
    /** p50 latency per class under weighted_fair, AES/CNN/LLM. */
    double p50[3] = {0.0, 0.0, 0.0};
};

QosOutcome
runQosSweep(Cycle horizon)
{
    const std::vector<WorkloadKind> kinds = {
        WorkloadKind::Aes, WorkloadKind::Cnn, WorkloadKind::Llm};
    const double weights[3] = {4.0, 2.0, 1.0};

    std::vector<TenantSpec> specs;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        TenantSpec spec;
        spec.name = workloadKindName(kinds[i]);
        spec.kind = kinds[i];
        spec.weight = weights[i];
        // Each class alone would saturate one tile.
        spec.ratePerKns = ratePerKns(kinds[i], 1.2);
        specs.push_back(spec);
    }

    QosOutcome outcome;
    bool first = true;
    for (const QosPolicy qos :
         {QosPolicy::Fifo, QosPolicy::RoundRobin,
          QosPolicy::WeightedFair}) {
        const WallTimer timer;
        TrafficGen gen(2002);
        PoolConfig pool_cfg;
        pool_cfg.chip = serveChip(3);   // one shared chip
        pool_cfg.numChips = 1;
        ChipPool pool(pool_cfg);
        AdmissionConfig cfg;
        cfg.queueDepth = 2;
        cfg.qos = qos;
        cfg.overflow = OverflowPolicy::Block;
        cfg.threads = g_threads;
        AdmissionController ac(pool, gen, specs, cfg);
        const ServeReport report = ac.run(gen.trace(specs, horizon));

        std::printf("    %s{\"policy\": \"%s\", "
                    "\"wall_ms\": %.3f, \"max_rss_mb\": %.1f, "
                    "\"classes\": [\n",
                    first ? "" : ",\n    ", qosPolicyName(qos),
                    timer.ms(), bench::peakRssMb());
        first = false;
        for (std::size_t t = 0; t < report.tenants.size(); ++t)
            printTenantJson(report.tenants[t],
                            report.tenants[t].latencyHist.summary(),
                            report.tenants[t].queueingHist.summary(),
                            t + 1 == report.tenants.size());
        std::printf("    ]}");
        if (qos == QosPolicy::WeightedFair)
            for (std::size_t t = 0; t < 3; ++t)
                outcome.p50[t] =
                    report.tenants[t].latencyHist.summary().p50;
    }
    return outcome;
}

// ---------------------------------------------------------------------------
// Experiment 3: backpressure (window depth vs rejections/latency).
// ---------------------------------------------------------------------------

void
runBackpressureSweep(Cycle horizon)
{
    bool first = true;
    for (const std::size_t depth : {std::size_t{1}, std::size_t{4},
                                    std::size_t{16}}) {
        const WallTimer timer;
        TrafficGen gen(3003);
        PoolConfig pool_cfg;
        pool_cfg.chip = serveChip(2);
        pool_cfg.numChips = 1;
        ChipPool pool(pool_cfg);
        std::vector<TenantSpec> specs(2);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            specs[i].name = "cnn" + std::to_string(i);
            specs[i].kind = WorkloadKind::Cnn;
            specs[i].ratePerKns =
                ratePerKns(WorkloadKind::Cnn, 2.0);
        }
        AdmissionConfig cfg;
        cfg.queueDepth = depth;
        cfg.overflow = OverflowPolicy::Reject;
        cfg.threads = g_threads;
        AdmissionController ac(pool, gen, specs, cfg);
        // The aggregate p95 below pools every exact sample across
        // tenants, which the run journal holds.
        journal::Journal jr;
        ac.setJournal(&jr);
        const ServeReport report = ac.run(gen.trace(specs, horizon));
        ac.setJournal(nullptr);

        std::vector<double> all;
        for (const std::vector<double> &lat :
             journalSamples(jr, report.tenants.size()).latency)
            all.insert(all.end(), lat.begin(), lat.end());
        const double p95 = summarize(all).p95;
        const double offered = static_cast<double>(
            report.completed + report.rejected);
        std::printf("    %s{\"depth\": %zu, \"offered\": %.0f, "
                    "\"completed\": %llu, \"rejected\": %llu, "
                    "\"reject_fraction\": %.3f, "
                    "\"latency_p95\": %.0f, \"wall_ms\": %.3f, "
                    "\"max_rss_mb\": %.1f}",
                    first ? "" : ",\n    ", depth, offered,
                    static_cast<unsigned long long>(report.completed),
                    static_cast<unsigned long long>(report.rejected),
                    offered > 0.0
                        ? static_cast<double>(report.rejected) /
                              offered
                        : 0.0,
                    p95, timer.ms(), bench::peakRssMb());
        first = false;
    }
}

// ---------------------------------------------------------------------------
// Experiment 4: whole-inference serving (CnnInfer + LlmInfer).
// ---------------------------------------------------------------------------

struct InferenceOutcomeStats
{
    double cnnP50 = 0.0;
    double llmP50 = 0.0;
    u64 cnnCompleted = 0;
    u64 llmCompleted = 0;
};

InferenceOutcomeStats
runInferenceSweep(Cycle horizon)
{
    const WallTimer timer;
    TrafficGen gen(4004);
    PoolConfig pool_cfg;
    pool_cfg.chip = serveChip(9);   // 3 (CnnInfer) + 6 (LlmInfer)
    pool_cfg.numChips = 1;
    ChipPool pool(pool_cfg);

    std::vector<TenantSpec> specs(2);
    specs[0].name = "cnn_infer";
    specs[0].kind = WorkloadKind::CnnInfer;
    specs[0].weight = 4.0;
    specs[0].ratePerKns = 0.05;
    specs[1].name = "llm_infer";
    specs[1].kind = WorkloadKind::LlmInfer;
    specs[1].weight = 1.0;
    specs[1].ratePerKns = 0.03;

    AdmissionConfig cfg;
    cfg.queueDepth = 2;
    cfg.qos = QosPolicy::WeightedFair;
    cfg.overflow = OverflowPolicy::Block;
    cfg.threads = g_threads;
    AdmissionController ac(pool, gen, specs, cfg);
    const ServeReport report = ac.run(gen.trace(specs, horizon));
    const std::vector<Tenant> &tenants = ac.tenants();

    std::printf("    {\"nominal_cycles\": {\"cnn_infer\": %llu, "
                "\"llm_infer\": %llu},\n     \"classes\": [\n",
                static_cast<unsigned long long>(
                    pool.nominalServiceCycles(tenants[0].model, 8)),
                static_cast<unsigned long long>(
                    pool.nominalServiceCycles(tenants[1].model, 12)));
    for (std::size_t t = 0; t < report.tenants.size(); ++t)
        printTenantJson(report.tenants[t],
                        report.tenants[t].latencyHist.summary(),
                        report.tenants[t].queueingHist.summary(),
                        t + 1 == report.tenants.size());
    std::printf("     ],\n");
    printCountersJson(poolCounters(pool));
    std::printf(",\n      \"wall_ms\": %.3f, \"max_rss_mb\": %.1f}\n",
                timer.ms(), bench::peakRssMb());

    InferenceOutcomeStats out;
    out.cnnP50 = report.tenants[0].latencyHist.summary().p50;
    out.llmP50 = report.tenants[1].latencyHist.summary().p50;
    out.cnnCompleted = report.tenants[0].completed;
    out.llmCompleted = report.tenants[1].completed;
    return out;
}

// ---------------------------------------------------------------------------
// Experiment 5: heterogeneous pools (the cluster-scale Fig. 17).
// ---------------------------------------------------------------------------

/** Per-tile SAR functional tiles of one hetero chip spec. */
constexpr std::size_t kHeteroSarHcts = 8;

struct HeteroCell
{
    double throughput = 0.0;
    u64 checksum = 0;
    /** Min completed over the cell's tenant classes. */
    u64 minClassCompleted = 0;
};

/** The single-MVM hetero mix: interleaved SAR-favoring (AES, CNN,
 *  LLM) and ramp-favoring (wide GF(2)) tenants, each offered ~1.5
 *  tile-equivalents of load relative to the SAR design point. */
std::vector<TenantSpec>
heteroMvmSpecs()
{
    const std::vector<WorkloadKind> kinds = {
        WorkloadKind::Cnn, WorkloadKind::GfWide, WorkloadKind::Llm,
        WorkloadKind::Aes};
    std::vector<TenantSpec> specs;
    for (std::size_t copy = 0; copy < 2; ++copy)
        for (const WorkloadKind kind : kinds) {
            TenantSpec spec;
            spec.name = std::string(workloadKindName(kind)) +
                        std::to_string(copy);
            spec.kind = kind;
            spec.ratePerKns =
                1.5 * 1000.0 /
                static_cast<double>(heteroNominalLatency(kind));
            specs.push_back(spec);
        }
    return specs;
}

/** The whole-inference hetero mix (same classes as experiment 4). */
std::vector<TenantSpec>
heteroInferenceSpecs()
{
    std::vector<TenantSpec> specs(2);
    specs[0].name = "cnn_infer";
    specs[0].kind = WorkloadKind::CnnInfer;
    specs[0].weight = 4.0;
    specs[0].ratePerKns = 0.1;
    specs[1].name = "llm_infer";
    specs[1].kind = WorkloadKind::LlmInfer;
    specs[1].weight = 1.0;
    specs[1].ratePerKns = 0.05;
    return specs;
}

/** Run one hetero cell and print its JSON object. */
HeteroCell
runHeteroCell(const char *pool_name,
              const std::vector<ChipSpec> &chip_specs,
              PlacementPolicy policy, const char *mix_name,
              const std::vector<TenantSpec> &specs, Cycle horizon,
              bool first_cell)
{
    const WallTimer timer;
    TrafficGen gen(5005);
    PoolConfig pool_cfg;
    pool_cfg.chips = chip_specs;
    pool_cfg.placement = policy;
    ChipPool pool(pool_cfg);

    AdmissionConfig cfg;
    // Per-chip ingest window scaled to the chip's tile count: a
    // bigger chip carries a bigger front end.
    cfg.chipQueueDepth.resize(pool.numChips());
    for (std::size_t c = 0; c < pool.numChips(); ++c)
        cfg.chipQueueDepth[c] =
            std::max<std::size_t>(1, pool.chip(c).numHcts() / 2);
    cfg.qos = QosPolicy::RoundRobin;
    cfg.overflow = OverflowPolicy::Block;
    cfg.threads = g_threads;
    AdmissionController ac(pool, gen, specs, cfg);
    const ServeReport report = ac.run(gen.trace(specs, horizon));

    std::printf("    %s{\"pool\": \"%s\", \"policy\": \"%s\", "
                "\"mix\": \"%s\", \"completed\": %llu, "
                "\"makespan\": %llu, "
                "\"throughput_per_kns\": %.3f, "
                "\"checksum\": \"0x%016llx\", "
                "\"wall_ms\": %.3f, \"max_rss_mb\": %.1f,\n",
                first_cell ? "" : ",\n    ", pool_name,
                placementPolicyName(policy), mix_name,
                static_cast<unsigned long long>(report.completed),
                static_cast<unsigned long long>(report.makespanNs),
                report.throughputPerKns(),
                static_cast<unsigned long long>(
                    report.outputChecksum),
                timer.ms(), bench::peakRssMb());
    printChipArrayJson(report);
    std::printf("     \"classes\": [\n");
    for (std::size_t t = 0; t < report.tenants.size(); ++t)
        printTenantJson(report.tenants[t],
                        report.tenants[t].latencyHist.summary(),
                        report.tenants[t].queueingHist.summary(),
                        t + 1 == report.tenants.size());
    std::printf("     ]}");

    HeteroCell cell;
    cell.throughput = report.throughputPerKns();
    cell.checksum = report.outputChecksum;
    cell.minClassCompleted = report.tenants.empty()
                                 ? 0
                                 : report.tenants[0].completed;
    for (const TenantStats &t : report.tenants)
        cell.minClassCompleted =
            std::min(cell.minClassCompleted, t.completed);
    return cell;
}

// ---------------------------------------------------------------------------
// Experiment 6: stage-level serving (admission granularity).
// ---------------------------------------------------------------------------

struct StageLevelCell
{
    u64 checksum = 0;
    u64 completed = 0;
    /** Aggregate p95 latency over every class. */
    double p95 = 0.0;
    /** Single-MVM class p95 (the class whole inferences starve). */
    double mvmP95 = 0.0;
    u64 issued = 0;
    u64 interleavedStages = 0;
};

/** Bursty mvm+inference mix on one shared chip: whole TinyCnn and
 *  encoder forwards next to a steady single-MVM CNN tenant. */
std::vector<TenantSpec>
stageLevelSpecs()
{
    std::vector<TenantSpec> specs(3);
    specs[0].name = "cnn_infer";
    specs[0].kind = WorkloadKind::CnnInfer;
    specs[0].weight = 2.0;
    specs[0].ratePerKns = 0.08;
    specs[0].burst = {12000, 12000};
    specs[1].name = "llm_infer";
    specs[1].kind = WorkloadKind::LlmInfer;
    specs[1].weight = 1.0;
    specs[1].ratePerKns = 0.025;
    specs[1].burst = {16000, 16000};
    specs[2].name = "cnn_mvm";
    specs[2].kind = WorkloadKind::Cnn;
    specs[2].weight = 4.0;
    specs[2].ratePerKns = ratePerKns(WorkloadKind::Cnn, 1.0);
    return specs;
}

StageLevelCell
runStageLevelCell(Granularity granularity, Cycle horizon,
                  bool first_cell)
{
    const WallTimer timer;
    TrafficGen gen(6006);
    PoolConfig pool_cfg;
    pool_cfg.chip = serveChip(10);   // 3 + 6 inference tiles + 1 MVM
    pool_cfg.numChips = 1;
    ChipPool pool(pool_cfg);

    const auto specs = stageLevelSpecs();
    AdmissionConfig cfg;
    // A tight window is where granularity matters: one admitted
    // whole inference monopolizes it for its full graph span.
    cfg.queueDepth = 1;
    cfg.qos = QosPolicy::WeightedFair;
    cfg.overflow = OverflowPolicy::Block;
    cfg.granularity = granularity;
    cfg.threads = g_threads;
    AdmissionController ac(pool, gen, specs, cfg);
    // The percentiles below, the aggregate p95 over every class
    // included, are exact: they summarize the run journal's samples.
    journal::Journal jr;
    ac.setJournal(&jr);
    const ServeReport report = ac.run(gen.trace(specs, horizon));
    ac.setJournal(nullptr);
    const JournalSamples samples =
        journalSamples(jr, report.tenants.size());

    StageLevelCell cell;
    cell.checksum = report.outputChecksum;
    cell.completed = report.completed;
    std::vector<double> all;
    for (const std::vector<double> &lat : samples.latency)
        all.insert(all.end(), lat.begin(), lat.end());
    cell.p95 = summarize(all).p95;
    cell.mvmP95 = summarize(samples.latency[2]).p95;
    for (const ChipStats &cs : report.chips) {
        cell.issued += cs.issued;
        cell.interleavedStages += cs.interleavedStages;
    }

    std::printf("    %s{\"granularity\": \"%s\", "
                "\"completed\": %llu, \"makespan\": %llu, "
                "\"latency_p95\": %.0f, "
                "\"checksum\": \"0x%016llx\", "
                "\"wall_ms\": %.3f, \"max_rss_mb\": %.1f,\n",
                first_cell ? "" : ",\n    ",
                granularityName(granularity),
                static_cast<unsigned long long>(report.completed),
                static_cast<unsigned long long>(report.makespanNs),
                cell.p95,
                static_cast<unsigned long long>(
                    report.outputChecksum),
                timer.ms(), bench::peakRssMb());
    printChipArrayJson(report);
    std::printf("     \"classes\": [\n");
    for (std::size_t t = 0; t < report.tenants.size(); ++t)
        printTenantJson(report.tenants[t],
                        summarize(samples.latency[t]),
                        summarize(samples.queueing[t]),
                        t + 1 == report.tenants.size());
    std::printf("     ]}");
    return cell;
}

// ---------------------------------------------------------------------------
// Experiment 7: durable ops (journal record / binary round trip /
// bit-exact replay, with SLO burn-rate accounting).
// ---------------------------------------------------------------------------

struct JournalCell
{
    bool replayIdentical = false;
    bool roundtripIdentical = false;
    /** Burn rate of the impossible (1-cycle, 0.9-avail) tenant —
     *  must be exactly violationFraction 1.0 / budget 0.1. */
    double impossibleBurn = 0.0;
    /** Burn rate of the unreachable-target tenant — must be 0. */
    double unreachableBurn = 0.0;
    u64 completed = 0;
};

JournalCell
runJournalCell(Cycle horizon)
{
    const WallTimer timer;
    // The acceptance scenario: stage-granular admission of the
    // bursty mvm+inference mix on a mixed 2 SAR + 2 ramp pool under
    // cost-aware placement.
    journal::ServeRunSetup setup;
    setup.uniformPool = false;
    setup.slots = {
        {journal::SlotKind::Sar, kHeteroSarHcts, model::kClockGHz},
        {journal::SlotKind::Sar, kHeteroSarHcts, model::kClockGHz},
        {journal::SlotKind::Ramp, kHeteroSarHcts, model::kClockGHz},
        {journal::SlotKind::Ramp, kHeteroSarHcts, model::kClockGHz}};
    setup.placement = PlacementPolicy::CostAware;
    setup.trafficSeed = 7007;
    setup.horizon = horizon;
    setup.admission.queueDepth = 2;
    setup.admission.qos = QosPolicy::WeightedFair;
    setup.admission.overflow = OverflowPolicy::Block;
    setup.admission.granularity = Granularity::Stage;
    setup.admission.threads = g_threads;

    setup.tenants = stageLevelSpecs();
    // SLO targets: a plausible one, an impossible one (every
    // completion violates a 1-cycle target, so the burn rate is
    // exactly 1.0 / (1 - 0.9)), and an unreachable one (burn 0).
    setup.tenants[0].slo = {30000, 0.99};
    setup.tenants[1].slo = {1, 0.9};
    setup.tenants[2].slo = {Cycle{1} << 40, 0.999};

    const journal::ServeRunRecord rec =
        journal::recordServeRun(setup);

    // Binary round trip: write -> read -> re-write must be
    // byte-identical (and parse back into the same history).
    std::stringstream first_write;
    rec.journal.writeBinary(first_write);
    std::stringstream reread_stream(first_write.str());
    const journal::Journal reread =
        journal::Journal::readBinary(reread_stream);
    std::stringstream second_write;
    reread.writeBinary(second_write);

    JournalCell cell;
    cell.roundtripIdentical =
        first_write.str() == second_write.str() &&
        reread == rec.journal;

    // Replay from the journal alone.
    const journal::Replayer replayer(reread);
    const journal::Replayer::Result res = replayer.replay();
    cell.replayIdentical = res.identical;
    cell.completed = rec.report.completed;
    cell.impossibleBurn = rec.report.tenants[1].slo.burnRate();
    cell.unreachableBurn = rec.report.tenants[2].slo.burnRate();

    std::printf("    {\"events\": %zu, "
                "\"chain\": \"0x%016llx\", \"completed\": %llu, "
                "\"makespan\": %llu, \"checksum\": \"0x%016llx\", "
                "\"roundtrip_identical\": %s, "
                "\"replay_identical\": %s, \"replay_events\": %zu, "
                "\"wall_ms\": %.3f, \"max_rss_mb\": %.1f,\n",
                rec.journal.size(),
                static_cast<unsigned long long>(
                    rec.journal.chainChecksum()),
                static_cast<unsigned long long>(rec.report.completed),
                static_cast<unsigned long long>(rec.report.makespanNs),
                static_cast<unsigned long long>(
                    rec.report.outputChecksum),
                cell.roundtripIdentical ? "true" : "false",
                cell.replayIdentical ? "true" : "false",
                res.journal.size(), timer.ms(),
                bench::peakRssMb());
    if (!res.identical)
        std::printf("     \"replay_mismatch\": \"%s\",\n",
                    res.detail.c_str());
    std::printf("     \"classes\": [\n");
    for (std::size_t t = 0; t < rec.report.tenants.size(); ++t)
        printTenantJson(rec.report.tenants[t],
                        rec.report.tenants[t].latencyHist.summary(),
                        rec.report.tenants[t].queueingHist.summary(),
                        t + 1 == rec.report.tenants.size());
    std::printf("     ]}\n");
    return cell;
}

// ---------------------------------------------------------------------------
// Experiment 8: fleet lifecycle at wall-clock scale. A 64-chip mixed
// frequency-bin pool (32 SAR @ 1 GHz + 32 ramp @ 2 GHz) serves a
// long diurnal trace with tenant churn while the fleet lifecycle
// live-migrates placements and autoscales chips up and down. The
// self-checks are the serving layer's lifecycle contract: outputs
// bit-identical to a fleet-off run of the same trace, replay
// bit-exact from the journal alone, zero begun inferences lost, and
// the scenario non-vacuous (migrations and chip drains observed).
// ---------------------------------------------------------------------------

struct FleetCell
{
    bool checksumInvariant = false;
    bool replayIdentical = false;
    bool noneLost = false;
    FleetStats fleet;
    u64 completed = 0;
};

/** The diurnal churn mix: resident base load, bursty tenants that go
 *  quiet together (off-peak valleys for the autoscaler), churners on
 *  staggered arrive/depart windows, staged inference riders. */
std::vector<TenantSpec>
fleetSpecs(WallNs horizon)
{
    std::vector<TenantSpec> specs;
    const auto add = [&specs](TenantSpec spec) {
        spec.name = "f" + std::to_string(specs.size());
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

FleetCell
runFleetCell(std::size_t sar_chips, std::size_t ramp_chips,
             WallNs horizon)
{
    const WallTimer timer;
    journal::ServeRunSetup setup;
    setup.uniformPool = false;
    setup.slots.clear();
    for (std::size_t c = 0; c < sar_chips; ++c)
        setup.slots.push_back(
            {journal::SlotKind::Sar, kHeteroSarHcts, 1.0});
    for (std::size_t c = 0; c < ramp_chips; ++c)
        setup.slots.push_back(
            {journal::SlotKind::Ramp, kHeteroSarHcts, 2.0});
    setup.placement = PlacementPolicy::CostAware;
    setup.trafficSeed = 8008;
    setup.horizon = horizon;
    setup.admission.queueDepth = 2;
    setup.admission.qos = QosPolicy::WeightedFair;
    setup.admission.overflow = OverflowPolicy::Block;
    setup.admission.granularity = Granularity::Stage;
    setup.admission.threads = g_threads;
    setup.tenants = fleetSpecs(horizon);
    setup.fleet = true;
    setup.fleetCfg.checkIntervalNs = 500;
    setup.fleetCfg.backlogHighNs = 3000;
    setup.fleetCfg.backlogLowNs = 300;
    setup.fleetCfg.migrateHighNs = 2000;
    setup.fleetCfg.minActive = 4;

    const journal::ServeRunRecord rec =
        journal::recordServeRun(setup);

    // The fleet-off twin: same specs, same trace, every placement
    // eager and pinned. Migration and autoscaling must be invisible
    // in the functional outputs.
    journal::ServeRunSetup twin_setup = setup;
    twin_setup.fleet = false;
    const journal::ServeRunRecord twin =
        journal::recordServeRun(twin_setup, rec.trace);

    const journal::Replayer replayer(rec.journal);
    const journal::Replayer::Result res = replayer.replay();

    // Zero begun inferences lost: every request the journal admitted
    // also completed, despite migrations, departures, and drains.
    std::set<u64> admitted, completed;
    for (const auto &e : rec.journal.events()) {
        if (e.kind == journal::EventKind::Admit)
            admitted.insert(e.a);
        else if (e.kind == journal::EventKind::Complete)
            completed.insert(e.a);
    }

    FleetCell cell;
    cell.checksumInvariant =
        rec.report.outputChecksum == twin.report.outputChecksum &&
        rec.report.completed == twin.report.completed;
    cell.replayIdentical = res.identical;
    cell.noneLost = admitted == completed;
    cell.fleet = rec.report.fleet;
    cell.completed = rec.report.completed;

    std::printf(
        "    {\"pool\": \"%zu sar@1GHz + %zu ramp@2GHz\", "
        "\"tenants\": %zu, \"trace\": %zu, \"horizon\": %llu,\n"
        "     \"completed\": %llu, \"rejected\": %llu, "
        "\"makespan\": %llu, \"checksum\": \"0x%016llx\", "
        "\"throughput_per_kns\": %.3f,\n"
        "     \"arrivals\": %llu, \"departures\": %llu, "
        "\"migrations\": %llu, \"migrations_aborted\": %llu, "
        "\"chip_ups\": %llu, \"chip_downs\": %llu,\n"
        "     \"static_checksum_equal\": %s, "
        "\"replay_identical\": %s, \"none_lost\": %s, "
        "\"journal_events\": %zu, \"wall_ms\": %.3f, "
        "\"max_rss_mb\": %.1f}\n",
        sar_chips, ramp_chips, setup.tenants.size(),
        rec.trace.size(), static_cast<unsigned long long>(horizon),
        static_cast<unsigned long long>(rec.report.completed),
        static_cast<unsigned long long>(rec.report.rejected),
        static_cast<unsigned long long>(rec.report.makespanNs),
        static_cast<unsigned long long>(rec.report.outputChecksum),
        rec.report.throughputPerKns(),
        static_cast<unsigned long long>(cell.fleet.arrivals),
        static_cast<unsigned long long>(cell.fleet.departures),
        static_cast<unsigned long long>(cell.fleet.migrations),
        static_cast<unsigned long long>(cell.fleet.migrationsAborted),
        static_cast<unsigned long long>(cell.fleet.chipUps),
        static_cast<unsigned long long>(cell.fleet.chipDowns),
        cell.checksumInvariant ? "true" : "false",
        cell.replayIdentical ? "true" : "false",
        cell.noneLost ? "true" : "false", rec.journal.size(),
        timer.ms(), bench::peakRssMb());
    if (!res.identical)
        std::printf("     ,\"replay_mismatch\": \"%s\"\n",
                    res.detail.c_str());
    return cell;
}

// ---------------------------------------------------------------------------
// Experiment 9 (standalone): million-request serving at flat memory.
// A 64-chip mixed frequency-bin pool serves a million-request diurnal
// single-MVM trace pulled lazily from a TraceStream, recorded through
// a non-retaining Journal into rotating on-disk segments, with
// streaming stats only. The flat-memory self-check runs the
// 10x-smaller baseline FIRST (ru_maxrss is monotone) and requires the
// full run's peak RSS within 1.3x of it; the recording must replay
// bit-identically in both its live and compacted forms.
// ---------------------------------------------------------------------------

/** The diurnal single-MVM mix. Single-MVM tenants keep every live
 *  window entry immediately materializable, so the streaming run's
 *  memory ceiling is the admission window, not the trace. */
std::vector<TenantSpec>
millionSpecs()
{
    std::vector<TenantSpec> specs;
    for (std::size_t i = 0; i < 12; ++i) {
        TenantSpec s;
        // Appending (not `"m" + ...`) dodges GCC 12's false-positive
        // -Wrestrict under -pg -fno-inline-functions.
        s.name = "m";
        s.name += std::to_string(specs.size());
        s.kind = WorkloadKind::Micro;
        s.weight = 1.0 + static_cast<double>(i % 4);
        s.ratePerKns = 2.0;
        specs.push_back(s);
    }
    for (std::size_t i = 0; i < 4; ++i) {
        TenantSpec s;
        s.name = "m";
        s.name += std::to_string(specs.size());
        s.kind = WorkloadKind::Micro;
        s.ratePerKns = 4.0;
        s.burst = {200000, 300000};
        specs.push_back(s);
    }
    return specs;
}

journal::ServeRunSetup
millionSetup()
{
    journal::ServeRunSetup setup;
    setup.uniformPool = false;
    setup.slots.clear();
    for (std::size_t c = 0; c < 32; ++c)
        setup.slots.push_back(
            {journal::SlotKind::Sar, kHeteroSarHcts, 1.0});
    for (std::size_t c = 0; c < 32; ++c)
        setup.slots.push_back(
            {journal::SlotKind::Ramp, kHeteroSarHcts, 2.0});
    setup.placement = PlacementPolicy::CostAware;
    setup.trafficSeed = 9009;
    // Far more than a million requests are available at the mix's
    // aggregate rate (~30/kns); the CappedSource ends the run.
    setup.horizon = 100000000;
    setup.admission.queueDepth = 2;
    setup.admission.qos = QosPolicy::WeightedFair;
    setup.admission.overflow = OverflowPolicy::Block;
    setup.admission.threads = g_threads;
    setup.tenants = millionSpecs();
    return setup;
}

struct MillionRun
{
    ServeReport report;
    u64 chain = 0;
    std::size_t records = 0;
    std::size_t segments = 0;
    double rssMb = 0.0;
    double wallMs = 0.0;
};

/** One streamed, segment-recorded run of `n` requests into `dir`. */
MillionRun
runMillionOnce(const journal::ServeRunSetup &setup, std::size_t n,
               const std::string &dir)
{
    const WallTimer timer;
    TraceStream stream(setup.trafficSeed, setup.tenants,
                       setup.horizon);
    CappedSource source(stream, n);
    journal::Journal jr;
    journal::SegmentWriter writer(dir);
    jr.attachSink(&writer, /*retainEvents*/ false);

    MillionRun run;
    run.report = journal::recordServeRunStream(setup, source, jr);
    writer.finish();
    run.chain = jr.chainChecksum();
    run.records = jr.size();
    run.segments = writer.segments();
    run.rssMb = bench::peakRssMb();
    run.wallMs = timer.ms();
    return run;
}

int
runMillionExperiment(bool smoke)
{
    const std::size_t n = smoke ? 100000 : 1000000;
    const std::size_t baseline_n = n / 10;
    namespace fs = std::filesystem;
    const fs::path root =
        fs::temp_directory_path() /
        ("serve_bench_million." + std::to_string(getpid()));
    fs::remove_all(root);
    const std::string base_dir = (root / "baseline").string();
    const std::string full_dir = (root / "full").string();
    const std::string compact_dir = (root / "compact").string();

    const journal::ServeRunSetup setup = millionSetup();

    std::printf("{\n");
    std::printf("  \"bench\": \"serve_bench\",\n");
    std::printf("  \"experiment\": \"million\",\n");
    std::printf("  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::printf("  \"million\": [\n");

    // Baseline first: ru_maxrss is monotone over the process, so the
    // smaller run must not inherit the bigger run's peak.
    const MillionRun base =
        runMillionOnce(setup, baseline_n, base_dir);
    const MillionRun full = runMillionOnce(setup, n, full_dir);

    // Replay the segmented recording at flat memory, then compact it
    // and replay the compacted form too.
    const journal::SegmentReplayResult rep =
        journal::replaySegments(full_dir);
    const journal::CompactResult comp =
        journal::compactSegments(full_dir, compact_dir);
    const journal::SegmentReplayResult crep =
        journal::replaySegments(compact_dir);

    // Aggregate latency percentiles from the streaming histograms
    // (no retained samples anywhere in this experiment).
    StreamingHistogram agg;
    for (const TenantStats &t : full.report.tenants)
        agg.merge(t.latencyHist);

    std::printf(
        "    {\"pool\": \"32 sar@1GHz + 32 ramp@2GHz\", "
        "\"tenants\": %zu, \"requests\": %zu, "
        "\"baseline_requests\": %zu,\n"
        "     \"completed\": %llu, \"rejected\": %llu, "
        "\"makespan\": %llu, \"checksum\": \"0x%016llx\", "
        "\"throughput_per_kns\": %.3f,\n"
        "     \"latency_p50\": %.0f, \"latency_p95\": %.0f, "
        "\"latency_p99\": %.0f, \"latency_bucket_ns\": %.0f,\n"
        "     \"journal_records\": %zu, \"journal_segments\": %zu, "
        "\"journal_chain\": \"0x%016llx\",\n"
        "     \"compacted_records\": %zu, "
        "\"compacted_segments\": %zu,\n"
        "     \"replay_identical\": %s, "
        "\"replay_checksum_equal\": %s, "
        "\"compacted_replay_identical\": %s,\n"
        "     \"baseline_max_rss_mb\": %.1f, "
        "\"baseline_wall_ms\": %.3f, \"rss_ratio\": %.3f, "
        "\"wall_ms\": %.3f, \"max_rss_mb\": %.1f}\n",
        setup.tenants.size(), n, baseline_n,
        static_cast<unsigned long long>(full.report.completed),
        static_cast<unsigned long long>(full.report.rejected),
        static_cast<unsigned long long>(full.report.makespanNs),
        static_cast<unsigned long long>(full.report.outputChecksum),
        full.report.throughputPerKns(), agg.percentile(50.0),
        agg.percentile(95.0), agg.percentile(99.0),
        agg.bucketWidth(), full.records, full.segments,
        static_cast<unsigned long long>(full.chain),
        comp.outputRecords, comp.outputSegments,
        rep.identical ? "true" : "false",
        rep.report.outputChecksum == full.report.outputChecksum
            ? "true"
            : "false",
        crep.identical ? "true" : "false", base.rssMb, base.wallMs,
        base.rssMb > 0.0 ? full.rssMb / base.rssMb : 0.0,
        full.wallMs, bench::peakRssMb());
    if (!rep.identical)
        std::printf("    ,{\"replay_mismatch\": \"%s\"}\n",
                    rep.detail.c_str());
    if (!crep.identical)
        std::printf("    ,{\"compacted_replay_mismatch\": \"%s\"}\n",
                    crep.detail.c_str());
    std::printf("  ],\n");

    std::error_code cleanup_ec;
    fs::remove_all(root, cleanup_ec);

    // The acceptance criteria, fatal like every other self-check.
    std::vector<bench::Check> checks;
    checks.push_back(
        {"million_all_completed",
         static_cast<double>(full.report.completed),
         full.report.completed == n && full.report.rejected == 0});
    const double rss_ratio =
        base.rssMb > 0.0 ? full.rssMb / base.rssMb : 0.0;
    checks.push_back({"million_flat_memory", rss_ratio,
                      base.rssMb > 0.0 && rss_ratio <= 1.3});
    checks.push_back(
        {"million_replay_identical", rep.identical ? 1.0 : 0.0,
         rep.identical && rep.report.outputChecksum ==
                              full.report.outputChecksum});
    checks.push_back({"million_compacted_replay_identical",
                      crep.identical ? 1.0 : 0.0, crep.identical});
    checks.push_back(
        {"million_compaction_shrinks",
         full.records > 0 ? static_cast<double>(comp.outputRecords) /
                                static_cast<double>(full.records)
                          : 0.0,
         comp.outputRecords < full.records});

    return bench::printChecks(checks);
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool stress = false;
    bool million = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--stress") == 0)
            stress = true;
        else if (std::strcmp(argv[i], "million") == 0)
            million = true;
        else if (std::strcmp(argv[i], "--threads") == 0 &&
                 i + 1 < argc)
            g_threads = static_cast<std::size_t>(
                std::strtoul(argv[++i], nullptr, 10));
    }
    if (g_threads == 0)
        g_threads = 1;

    // `serve_bench million` runs experiment 9 standalone: it is a
    // scale test, never part of the default sweep or the checked-in
    // snapshots.
    if (million)
        return runMillionExperiment(smoke);

    const Cycle scaling_horizon = smoke ? 150000 : 600000;
    const Cycle qos_horizon = smoke ? 100000 : 400000;
    const Cycle bp_horizon = smoke ? 80000 : 300000;
    const std::vector<std::size_t> chip_counts =
        smoke ? std::vector<std::size_t>{1, 4}
              : std::vector<std::size_t>{1, 2, 4};
    const std::vector<double> loads =
        smoke ? std::vector<double>{3.0}
              : std::vector<double>{0.3, 3.0};
    const std::size_t tenant_count = 8;

    std::printf("{\n");
    std::printf("  \"bench\": \"serve_bench\",\n");
    std::printf("  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::printf("  \"threads\": %zu,\n", g_threads);
    std::printf("  \"chip\": {\"hcts_per_chip\": %zu, "
                "\"service_cycles\": {\"aes\": %llu, \"cnn\": %llu, "
                "\"llm\": %llu}},\n",
                tenant_count,
                static_cast<unsigned long long>(
                    nominalLatency(WorkloadKind::Aes)),
                static_cast<unsigned long long>(
                    nominalLatency(WorkloadKind::Cnn)),
                static_cast<unsigned long long>(
                    nominalLatency(WorkloadKind::Llm)));

    // Scaling: disjoint tenants, saturating load, growing pools.
    std::printf("  \"scaling\": [\n");
    double best_speedup = 0.0;
    double best_four_chip = 0.0;
    bool first_cell = true;
    for (const double load : loads) {
        double one_chip = 0.0;
        for (const std::size_t chips : chip_counts) {
            const double tput = runScalingCell(
                chips, tenant_count, load, scaling_horizon,
                first_cell);
            first_cell = false;
            if (chips == 1)
                one_chip = tput;
            if (load >= 1.0 && chips == 4 && one_chip > 0.0) {
                const double speedup = tput / one_chip;
                if (speedup > best_speedup)
                    best_speedup = speedup;
                best_four_chip = std::max(best_four_chip, tput);
            }
        }
    }
    std::printf("\n  ],\n");

    // QoS policies over the mixed saturating trace.
    std::printf("  \"qos\": [\n");
    const QosOutcome qos = runQosSweep(qos_horizon);
    std::printf("\n  ],\n");

    // Backpressure depth sweep.
    std::printf("  \"backpressure\": [\n");
    runBackpressureSweep(bp_horizon);
    std::printf("\n  ],\n");

    // Whole-inference serving mix.
    const Cycle infer_horizon = smoke ? 150000 : 500000;
    std::printf("  \"inference\": [\n");
    const InferenceOutcomeStats infer =
        runInferenceSweep(infer_horizon);
    std::printf("  ],\n");

    // Heterogeneous pools: SAR-only / ramp-only / mixed, cost-aware
    // vs round-robin on the mixed pool (the cluster-scale Fig. 17).
    const Cycle hetero_horizon = smoke ? 50000 : 200000;
    const Cycle hetero_infer_horizon = smoke ? 60000 : 200000;
    const auto sar_pool = heteroPoolSpecs(4, 0, kHeteroSarHcts);
    const auto ramp_pool = heteroPoolSpecs(0, 4, kHeteroSarHcts);
    const auto mixed_pool = heteroPoolSpecs(2, 2, kHeteroSarHcts);
    const auto mvm_specs = heteroMvmSpecs();
    const auto infer_specs = heteroInferenceSpecs();
    std::printf("  \"hetero\": [\n");
    const HeteroCell h_sar = runHeteroCell(
        "sar_only", sar_pool, PlacementPolicy::CostAware, "mvm",
        mvm_specs, hetero_horizon, true);
    const HeteroCell h_ramp = runHeteroCell(
        "ramp_only", ramp_pool, PlacementPolicy::CostAware, "mvm",
        mvm_specs, hetero_horizon, false);
    const HeteroCell h_mixed = runHeteroCell(
        "mixed", mixed_pool, PlacementPolicy::CostAware, "mvm",
        mvm_specs, hetero_horizon, false);
    const HeteroCell h_mixed_rr = runHeteroCell(
        "mixed", mixed_pool, PlacementPolicy::RoundRobin, "mvm",
        mvm_specs, hetero_horizon, false);
    const HeteroCell hi_sar = runHeteroCell(
        "sar_only", sar_pool, PlacementPolicy::CostAware,
        "inference", infer_specs, hetero_infer_horizon, false);
    const HeteroCell hi_ramp = runHeteroCell(
        "ramp_only", ramp_pool, PlacementPolicy::CostAware,
        "inference", infer_specs, hetero_infer_horizon, false);
    const HeteroCell hi_mixed = runHeteroCell(
        "mixed", mixed_pool, PlacementPolicy::CostAware, "inference",
        infer_specs, hetero_infer_horizon, false);
    std::printf("\n  ],\n");

    // Stage-level serving: the same bursty mvm+inference trace under
    // inference- and stage-granular admission.
    const Cycle stagelevel_horizon = smoke ? 120000 : 400000;
    std::printf("  \"stagelevel\": [\n");
    const StageLevelCell sl_infer = runStageLevelCell(
        Granularity::Inference, stagelevel_horizon, true);
    const StageLevelCell sl_stage = runStageLevelCell(
        Granularity::Stage, stagelevel_horizon, false);
    std::printf("\n  ],\n");

    // Durable ops: record the stage-granular hetero scenario to a
    // journal, round-trip the binary format, replay bit-exactly.
    const Cycle journal_horizon = smoke ? 60000 : 200000;
    std::printf("  \"journal\": [\n");
    const JournalCell jcell = runJournalCell(journal_horizon);
    std::printf("  ],\n");

    // Fleet lifecycle: 64-chip mixed frequency-bin pool under a long
    // diurnal churn trace (--stress stretches the trace 4x for the
    // sanitizer soak).
    const WallNs fleet_horizon =
        (smoke ? WallNs{20000} : WallNs{60000}) * (stress ? 4 : 1);
    std::printf("  \"fleet\": [\n");
    const FleetCell fcell = runFleetCell(32, 32, fleet_horizon);
    std::printf("  ],\n");

    // Self-checks (the acceptance criteria).
    std::vector<bench::Check> checks;
    checks.push_back({"scaling_speedup_4chip", best_speedup,
                      best_speedup >= 3.5});
    // The speedup ratio alone is structurally window-bound (both
    // numerator and denominator would shrink together if per-chip
    // service broke), so also pin the 4-chip pool's *absolute*
    // delivered capacity against the analytic front-end bound of
    // 4 windows x depth/L.
    const double capacity_bound =
        4.0 * static_cast<double>(kScalingWindowDepth) * 1000.0 /
        static_cast<double>(nominalLatency(WorkloadKind::Cnn));
    checks.push_back({"scaling_absolute_capacity",
                      best_four_chip / capacity_bound,
                      best_four_chip >= 0.8 * capacity_bound});
    const bool ordered =
        qos.p50[0] < qos.p50[1] && qos.p50[1] < qos.p50[2];
    checks.push_back(
        {"weighted_fair_latency_ordering",
         ordered ? 1.0 : 0.0, ordered});
    // Whole-inference serving: both classes make progress, and the
    // lighter, higher-weight TinyCnn class sees lower per-inference
    // p50 latency than the encoder class.
    const bool infer_progress =
        infer.cnnCompleted >= 3 && infer.llmCompleted >= 3;
    checks.push_back({"inference_classes_progress",
                      static_cast<double>(std::min(
                          infer.cnnCompleted, infer.llmCompleted)),
                      infer_progress});
    const bool infer_ordered = infer.cnnP50 < infer.llmP50;
    checks.push_back({"inference_latency_ordering",
                      infer_ordered ? 1.0 : 0.0, infer_ordered});
    // Heterogeneous pools. Functional outputs are chip-independent,
    // so under Block admission every pool composition and placement
    // policy must reproduce the same output checksum for one trace.
    const bool hetero_checksum =
        h_sar.checksum == h_ramp.checksum &&
        h_sar.checksum == h_mixed.checksum &&
        h_sar.checksum == h_mixed_rr.checksum;
    checks.push_back({"hetero_checksum_invariant",
                      hetero_checksum ? 1.0 : 0.0, hetero_checksum});
    // A mixed pool under cost-aware placement must never be worse
    // than the worst homogeneous pool on the same traffic...
    const double worst_homog =
        std::min(h_sar.throughput, h_ramp.throughput);
    checks.push_back({"hetero_mixed_vs_worst_homog",
                      worst_homog > 0.0
                          ? h_mixed.throughput / worst_homog
                          : 0.0,
                      h_mixed.throughput >= worst_homog});
    // ...and cost-aware must beat chip-shape-blind round-robin on
    // the mixed pool (it keeps CNN/LLM off the slow-for-them ramp
    // chips and routes the wide GF(2) class onto them).
    checks.push_back({"hetero_cost_aware_beats_round_robin",
                      h_mixed_rr.throughput > 0.0
                          ? h_mixed.throughput /
                                h_mixed_rr.throughput
                          : 0.0,
                      h_mixed.throughput >=
                          1.2 * h_mixed_rr.throughput});
    // Every pool composition keeps both inference classes moving.
    const u64 infer_min = std::min(
        {hi_sar.minClassCompleted, hi_ramp.minClassCompleted,
         hi_mixed.minClassCompleted});
    checks.push_back({"hetero_inference_progress",
                      static_cast<double>(infer_min),
                      infer_min >= 2});
    // Stage-level serving. Functional outputs never depend on the
    // admission granularity: same trace, same checksum, same
    // completion count (both cells run under Block).
    const bool sl_checksum =
        sl_infer.checksum == sl_stage.checksum &&
        sl_infer.completed == sl_stage.completed &&
        sl_infer.issued == sl_stage.issued;
    checks.push_back({"stagelevel_checksum_invariant",
                      sl_checksum ? 1.0 : 0.0, sl_checksum});
    // Recycling window slots at stage completions must not hurt the
    // mixed-traffic tail: aggregate p95 no worse than whole-unit
    // admission on the same bursty trace.
    checks.push_back({"stagelevel_p95_no_worse",
                      sl_infer.p95 > 0.0
                          ? sl_stage.p95 / sl_infer.p95
                          : 0.0,
                      sl_stage.p95 <= sl_infer.p95});
    // The short single-MVM class is who stage-level admission
    // protects: its p95 must improve outright once it stops waiting
    // out whole foreign forwards for window slots.
    checks.push_back({"stagelevel_mvm_p95_improves",
                      sl_infer.mvmP95 > 0.0
                          ? sl_stage.mvmP95 / sl_infer.mvmP95
                          : 0.0,
                      sl_stage.mvmP95 < sl_infer.mvmP95});
    // And stages of at least two distinct requests actually
    // interleaved on one chip (per-chip admission-sequence proof —
    // zero by construction under inference granularity).
    checks.push_back(
        {"stagelevel_interleaving_observed",
         static_cast<double>(sl_stage.interleavedStages),
         sl_stage.interleavedStages >= 1 &&
             sl_infer.interleavedStages == 0});

    // Durable ops. Replay from the journal alone must reproduce the
    // entire event stream — every completion cycle and checksum —
    // bit-identically, and the binary format must round-trip
    // byte-identically.
    checks.push_back({"journal_replay_identical",
                      jcell.replayIdentical ? 1.0 : 0.0,
                      jcell.replayIdentical && jcell.completed > 0});
    checks.push_back({"journal_roundtrip_byte_identical",
                      jcell.roundtripIdentical ? 1.0 : 0.0,
                      jcell.roundtripIdentical});
    // SLO burn-rate math: the impossible 1-cycle target at 0.9
    // availability burns at exactly violationFraction 1.0 over
    // budget 0.1; the unreachable target burns nothing.
    const bool slo_math =
        std::abs(jcell.impossibleBurn - 10.0) < 1e-9 &&
        jcell.unreachableBurn == 0.0;
    checks.push_back({"slo_burn_rate_math", jcell.impossibleBurn,
                      slo_math});

    // Fleet lifecycle. Migration and autoscaling are functionally
    // invisible: the fleet run's outputs are bit-identical to the
    // fleet-off run of the same trace, the journal replays
    // bit-exactly, and no begun inference is ever lost to a
    // departure, migration, or chip drain.
    checks.push_back({"fleet_checksum_invariant_vs_static",
                      fcell.checksumInvariant ? 1.0 : 0.0,
                      fcell.checksumInvariant && fcell.completed > 0});
    checks.push_back({"fleet_replay_identical",
                      fcell.replayIdentical ? 1.0 : 0.0,
                      fcell.replayIdentical});
    checks.push_back({"fleet_no_begun_inference_lost",
                      fcell.noneLost ? 1.0 : 0.0, fcell.noneLost});
    // Non-vacuity: the scenario actually churned, migrated, and
    // drained chips — a lifecycle check that never fires proves
    // nothing.
    checks.push_back({"fleet_churn_observed",
                      static_cast<double>(fcell.fleet.departures),
                      fcell.fleet.arrivals >= 1 &&
                          fcell.fleet.departures >= 1});
    checks.push_back({"fleet_migrations_observed",
                      static_cast<double>(fcell.fleet.migrations),
                      fcell.fleet.migrations >= 1});
    checks.push_back({"fleet_chip_downs_observed",
                      static_cast<double>(fcell.fleet.chipDowns),
                      fcell.fleet.chipDowns >= 1});

    return bench::printChecks(checks);
}
