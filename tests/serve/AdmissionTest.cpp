/**
 * @file
 * Tests for QoS-aware admission: backpressure (block/reject) against
 * the bounded per-chip submission window, FIFO ordering, weighted-
 * fair convergence and round-robin starvation-freedom under
 * saturation, bit-identity of a pooled run across pool sizes, and
 * typed errors for malformed requests.
 */

#include <cstddef>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "RunRecords.h"
#include "common/Fnv.h"
#include "common/Stats.h"
#include "serve/Admission.h"
#include "serve/ChipConfig.h"
#include "serve/ChipPool.h"
#include "serve/TrafficGen.h"

namespace darth
{
namespace serve
{
namespace
{

using test::RecordedRun;
using test::runRecorded;

runtime::ChipConfig
smallChip(std::size_t num_hcts = 4)
{
    runtime::ChipConfig cfg;
    cfg.hct.dce.numPipelines = 4;
    cfg.hct.dce.pipeline.depth = 32;
    cfg.hct.dce.pipeline.width = 8;
    cfg.hct.dce.pipeline.numRegs = 8;
    cfg.hct.ace.numArrays = 8;
    cfg.hct.ace.arrayRows = 16;   // 8 signed rows per array
    cfg.hct.ace.arrayCols = 8;
    cfg.numHcts = num_hcts;
    return cfg;
}

PoolConfig
poolConfig(std::size_t chips, std::size_t hcts_per_chip)
{
    PoolConfig cfg;
    cfg.chip = smallChip(hcts_per_chip);
    cfg.numChips = chips;
    cfg.placement = PlacementPolicy::LeastLoaded;
    return cfg;
}

/** Micro-kind tenant specs with the given weights. */
std::vector<TenantSpec>
microSpecs(const std::vector<double> &weights)
{
    std::vector<TenantSpec> specs;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        TenantSpec spec;
        spec.name = "tenant" + std::to_string(i);
        spec.kind = WorkloadKind::Micro;
        spec.weight = weights[i];
        spec.ratePerKns = 1.0;
        specs.push_back(spec);
    }
    return specs;
}

/** A hand-built request: all Micro inputs are all-ones. */
ServeRequest
microRequest(Cycle arrival, std::size_t tenant)
{
    ServeRequest req;
    req.arrival = arrival;
    req.tenant = tenant;
    req.input.assign(TrafficGen::inputRows(WorkloadKind::Micro), 1);
    return req;
}

/** Saturating trace: every tenant submits one request per period. */
std::vector<ServeRequest>
floodTrace(std::size_t tenants, Cycle horizon, Cycle period = 1)
{
    std::vector<ServeRequest> trace;
    for (Cycle at = 0; at < horizon; at += period)
        for (std::size_t t = 0; t < tenants; ++t)
            trace.push_back(microRequest(at, t));
    return trace;
}

TEST(Admission, RejectDropsWhenWindowFullBlockDoesNot)
{
    TrafficGen gen(42);
    // Five simultaneous arrivals against a window of two.
    std::vector<ServeRequest> burst;
    for (int i = 0; i < 5; ++i)
        burst.push_back(microRequest(0, 0));

    AdmissionConfig cfg;
    cfg.queueDepth = 2;
    cfg.overflow = OverflowPolicy::Reject;
    {
        ChipPool pool(poolConfig(1, 1));
        AdmissionController ac(pool, gen, microSpecs({1.0}), cfg);
        const ServeReport report = ac.run(burst);
        EXPECT_EQ(report.completed, 2u);
        EXPECT_EQ(report.rejected, 3u);
        EXPECT_EQ(report.tenants[0].rejected, 3u);
    }
    cfg.overflow = OverflowPolicy::Block;
    {
        ChipPool pool(poolConfig(1, 1));
        AdmissionController ac(pool, gen, microSpecs({1.0}), cfg);
        const RecordedRun run = runRecorded(ac, burst);
        EXPECT_EQ(run.report.completed, 5u);
        EXPECT_EQ(run.report.rejected, 0u);
        // Blocked requests wait longer and longer for their slot.
        const std::vector<double> queueing = run.records.queueings(0);
        ASSERT_EQ(queueing.size(), 5u);
        for (std::size_t i = 1; i < queueing.size(); ++i)
            EXPECT_GE(queueing[i], queueing[i - 1]) << "request " << i;
        EXPECT_GT(queueing.back(), queueing.front());
    }
}

TEST(Admission, FifoAdmitsOldestArrivalFirst)
{
    TrafficGen gen(43);
    ChipPool pool(poolConfig(1, 2));
    AdmissionConfig cfg;
    cfg.queueDepth = 1;
    cfg.qos = QosPolicy::Fifo;
    AdmissionController ac(pool, gen, microSpecs({1.0, 1.0}), cfg);

    // Tenant 0 at cycles 0 and 2, tenant 1 at cycle 1. With a window
    // of one, the slot freed by the first request must go to tenant
    // 1 (older arrival), then back to tenant 0.
    std::vector<ServeRequest> trace;
    trace.push_back(microRequest(0, 0));
    trace.push_back(microRequest(1, 1));
    trace.push_back(microRequest(2, 0));
    const RecordedRun run = runRecorded(ac, trace);
    ASSERT_EQ(run.report.completed, 3u);
    // Tenant 1 was admitted before tenant 0's second request, so it
    // started first.
    EXPECT_LT(run.records.requests[1].start,
              run.records.requests[2].start);
}

TEST(Admission, WeightedFairSharesConvergeToWeights)
{
    TrafficGen gen(44);
    ChipPool pool(poolConfig(1, 2));
    AdmissionConfig cfg;
    cfg.queueDepth = 2;
    cfg.qos = QosPolicy::WeightedFair;
    cfg.overflow = OverflowPolicy::Block;
    AdmissionController ac(pool, gen, microSpecs({3.0, 1.0}), cfg);

    const Cycle horizon = 8000;
    const RecordedRun run = runRecorded(ac, floodTrace(2, horizon));
    // Count completions inside the saturated window (the end-of-trace
    // drain completes everything eventually and would flatten the
    // shares to the submitted counts).
    const double a =
        static_cast<double>(run.records.completedBy(0, horizon));
    const double b =
        static_cast<double>(run.records.completedBy(1, horizon));
    ASSERT_GT(b, 20.0);
    const double ratio = a / b;
    EXPECT_GT(ratio, 2.4) << "a=" << a << " b=" << b;
    EXPECT_LT(ratio, 3.6) << "a=" << a << " b=" << b;
    // The heavier class also sees the shorter queueing delay.
    EXPECT_LT(summarize(run.records.queueings(0)).p50,
              summarize(run.records.queueings(1)).p50);
}

TEST(Admission, WeightedFairBanksNoCreditWhileIdle)
{
    // Tenant 1 is idle for the first half of the trace, then floods.
    // Without a virtual-time floor its stale (near-zero) charge would
    // let it monopolize the chip until it "caught up" with tenant 0's
    // whole first-half service; with the floor, the second half is
    // shared per the (equal) weights.
    TrafficGen gen(49);
    ChipPool pool(poolConfig(1, 2));
    AdmissionConfig cfg;
    cfg.queueDepth = 2;
    cfg.qos = QosPolicy::WeightedFair;
    cfg.overflow = OverflowPolicy::Block;
    AdmissionController ac(pool, gen, microSpecs({1.0, 1.0}), cfg);

    const Cycle half = 6000;
    std::vector<ServeRequest> trace;
    for (Cycle at = 0; at < 2 * half; ++at) {
        trace.push_back(microRequest(at, 0));
        if (at >= half)
            trace.push_back(microRequest(at, 1));
    }
    const test::RunRecords records = runRecorded(ac, trace).records;
    const double t0_second_half =
        static_cast<double>(records.completedBy(0, 2 * half) -
                            records.completedBy(0, half));
    const double t1_second_half =
        static_cast<double>(records.completedBy(1, 2 * half));
    ASSERT_GT(t1_second_half, 10.0);
    // Equal weights: the second-half shares stay near 1:1 instead of
    // tenant 1 freezing tenant 0 out.
    const double ratio = t0_second_half / t1_second_half;
    EXPECT_GT(ratio, 0.6) << "t0=" << t0_second_half
                          << " t1=" << t1_second_half;
    EXPECT_LT(ratio, 1.67) << "t0=" << t0_second_half
                           << " t1=" << t1_second_half;
}

TEST(Admission, RoundRobinIsStarvationFree)
{
    // Tenant 0 floods; tenant 1 trickles. Under FIFO the trickle
    // waits behind the whole backlog; round-robin alternates, so the
    // trickle's queueing stays near zero.
    TrafficGen gen(45);
    const Cycle horizon = 2000;
    std::vector<ServeRequest> trace;
    for (Cycle at = 0; at < horizon; ++at) {
        trace.push_back(microRequest(at, 0));
        if (at % 100 == 0)
            trace.push_back(microRequest(at, 1));
    }

    auto run_policy = [&](QosPolicy qos) {
        ChipPool pool(poolConfig(1, 2));
        AdmissionConfig cfg;
        cfg.queueDepth = 2;
        cfg.qos = qos;
        cfg.overflow = OverflowPolicy::Block;
        AdmissionController ac(pool, gen, microSpecs({1.0, 1.0}), cfg);
        return runRecorded(ac, trace);
    };

    const RecordedRun fifo = run_policy(QosPolicy::Fifo);
    const RecordedRun rr = run_policy(QosPolicy::RoundRobin);
    ASSERT_EQ(rr.report.completed, trace.size());
    // Every trickle request completed shortly after its arrival
    // under RR (one service time of slack past the horizon).
    EXPECT_EQ(rr.records.completedBy(1, horizon + 500),
              rr.report.tenants[1].completed);
    // And far sooner than under FIFO.
    const double rr_p95 = summarize(rr.records.queueings(1)).p95;
    const double fifo_p50 = summarize(fifo.records.queueings(1)).p50;
    EXPECT_LT(rr_p95, fifo_p50)
        << "rr p95=" << rr_p95 << " fifo p50=" << fifo_p50;
}

TEST(Admission, PoolRunsBitIdenticallyAcrossSizes)
{
    // Acceptance: the same seeded trace against a 1-chip and a 4-chip
    // pool yields bit-identical outputs (only the cycle stamps move).
    TrafficGen gen(46);
    const auto specs = microSpecs({1.0, 1.0, 1.0, 1.0});
    std::vector<TenantSpec> rated = specs;
    for (auto &spec : rated)
        spec.ratePerKns = 40.0;
    const auto trace = gen.trace(rated, 20000);
    ASSERT_GT(trace.size(), 100u);

    auto run_pool = [&](std::size_t chips) {
        ChipPool pool(poolConfig(chips, 4));
        AdmissionConfig cfg;
        cfg.queueDepth = 4;
        cfg.overflow = OverflowPolicy::Block;
        AdmissionController ac(pool, gen, rated, cfg);
        return runRecorded(ac, trace);
    };

    const RecordedRun one = run_pool(1);
    const RecordedRun four = run_pool(4);
    EXPECT_EQ(one.report.completed, trace.size());
    EXPECT_EQ(four.report.completed, trace.size());
    EXPECT_EQ(one.report.outputChecksum, four.report.outputChecksum);
    ASSERT_EQ(one.records.requests.size(), trace.size());
    ASSERT_EQ(four.records.requests.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(one.records.requests[i].outputFnv,
                  four.records.requests[i].outputFnv)
            << "request " << i;

    // Spot-check functional correctness against the reference MVM.
    const auto &req0 = trace[0];
    const MatrixI w = gen.weights(
        WorkloadKind::Micro, TrafficGen::privateModelKey(req0.tenant));
    std::vector<i64> want(w.cols(), 0);
    for (std::size_t c = 0; c < w.cols(); ++c)
        for (std::size_t r = 0; r < w.rows(); ++r)
            want[c] += w(r, c) * req0.input[r];
    EXPECT_EQ(one.records.requests[0].outputFnv, fnv1aWords(want));
}

TEST(Admission, ChecksumIsStableAcrossQosPolicies)
{
    TrafficGen gen(47);
    const auto specs = microSpecs({2.0, 1.0});
    std::vector<TenantSpec> rated = specs;
    for (auto &spec : rated)
        spec.ratePerKns = 30.0;
    const auto trace = gen.trace(rated, 10000);
    ASSERT_GT(trace.size(), 50u);

    u64 checksum = 0;
    bool first = true;
    for (const QosPolicy qos :
         {QosPolicy::Fifo, QosPolicy::RoundRobin,
          QosPolicy::WeightedFair}) {
        // One shared chip so the policies genuinely reorder service.
        ChipPool pool(poolConfig(1, 2));
        AdmissionConfig cfg;
        cfg.queueDepth = 2;
        cfg.qos = qos;
        cfg.overflow = OverflowPolicy::Block;
        AdmissionController ac(pool, gen, rated, cfg);
        const ServeReport report = ac.run(trace);
        EXPECT_EQ(report.completed, trace.size());
        if (first) {
            checksum = report.outputChecksum;
            first = false;
        } else {
            EXPECT_EQ(report.outputChecksum, checksum)
                << qosPolicyName(qos);
        }
    }
}

TEST(Admission, InvalidConfigsThrow)
{
    TrafficGen gen(48);
    ChipPool pool(poolConfig(1, 1));
    const auto specs = microSpecs({1.0});
    AdmissionConfig cfg;
    cfg.queueDepth = 0;
    EXPECT_THROW(AdmissionController(pool, gen, specs, cfg),
                 std::invalid_argument);
    cfg.queueDepth = 1;
    auto bad = specs;
    bad[0].weight = 0.0;
    EXPECT_THROW(AdmissionController(pool, gen, bad, cfg),
                 std::invalid_argument);
    // Per-chip windows: the vector must match the pool (one entry
    // per chip) and every entry must be positive.
    cfg.chipQueueDepth = {2, 2};
    EXPECT_THROW(AdmissionController(pool, gen, specs, cfg),
                 std::invalid_argument);
    cfg.chipQueueDepth = {0};
    EXPECT_THROW(AdmissionController(pool, gen, specs, cfg),
                 std::invalid_argument);
    cfg.chipQueueDepth = {1};
    EXPECT_NO_THROW(AdmissionController(pool, gen, specs, cfg));
}

TEST(Admission, InvalidRequestsThrowWhenPulled)
{
    // Request 1 is bad in each trace: it names a tenant that does not
    // exist, arrives before its predecessor, or belongs to a fleet
    // tenant whose arrival moment (400 ns) has not come yet. Each
    // throws a typed error naming the request from both entry
    // points. A throw abandons the run, so every attempt gets a fresh
    // pool and controller.
    struct Case
    {
        const char *what;
        std::vector<ServeRequest> trace;
        bool fleet;
    };
    const std::vector<Case> cases = {
        {"unknown tenant", {microRequest(0, 0), microRequest(5, 2)},
         false},
        {"out of order", {microRequest(10, 0), microRequest(5, 1)},
         false},
        {"tenant not arrived", {microRequest(0, 0), microRequest(100, 1)},
         true},
    };
    for (const Case &c : cases) {
        for (const bool stream : {false, true}) {
            std::vector<TenantSpec> specs = microSpecs({1.0, 1.0});
            if (c.fleet)
                specs[1].arriveNs = 400;
            TrafficGen gen(49);
            ChipPool pool(poolConfig(1, 2));
            AdmissionController ac(
                pool, gen, specs, AdmissionConfig{},
                c.fleet ? std::optional<FleetConfig>(FleetConfig{})
                        : std::nullopt);
            try {
                if (stream) {
                    VectorSource source(c.trace);
                    ac.runStream(source);
                } else {
                    ac.run(c.trace);
                }
                ADD_FAILURE() << c.what << ": no throw";
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find("request 1 "),
                          std::string::npos)
                    << c.what << ": " << e.what();
            }
        }
    }
}

TEST(Admission, MixedClockPoolsAreAccepted)
{
    // Frequency-binned heterogeneous pools are legal: every report
    // statistic, WFQ charge, and journal stamp is wall-clock, so
    // cross-chip aggregates compare like for like. A 1 GHz + 2 GHz
    // pool runs the same trace as its all-1 GHz twin and must
    // produce bit-identical outputs (the clock moves *when*, never
    // *what*) with wall-clock-consistent per-chip stats.
    const std::vector<ServeRequest> burst = floodTrace(2, 8, 2);
    AdmissionConfig cfg;
    cfg.queueDepth = 2;

    u64 mixed_checksum = 0;
    {
        TrafficGen gen(53);
        PoolConfig pcfg;
        pcfg.chips = {
            heteroChipSpec(analog::AdcKind::Sar, 1, /*clock_ghz=*/1.0),
            heteroChipSpec(analog::AdcKind::Sar, 1, /*clock_ghz=*/2.0)};
        ChipPool pool(pcfg);
        AdmissionController ac(pool, gen, microSpecs({1.0, 1.0}), cfg);
        ASSERT_NE(pool.modelChip(ac.tenants()[0].model),
                  pool.modelChip(ac.tenants()[1].model));
        const ServeReport report = ac.run(burst);
        EXPECT_EQ(report.completed, burst.size());
        EXPECT_EQ(report.chips[0].clockGHz, 1.0);
        EXPECT_EQ(report.chips[1].clockGHz, 2.0);
        // Wall-clock consistency: each chip's makespan bounds the
        // run's, and both chips served real wall time.
        EXPECT_GT(report.makespanNs, 0u);
        for (const ChipStats &cs : report.chips) {
            EXPECT_GT(cs.completed, 0u);
            EXPECT_GT(cs.serviceNs, 0.0);
            EXPECT_LE(cs.makespanNs, report.makespanNs);
        }
        // The 2 GHz chip's wall makespan is its cycle makespan
        // halved (500 ps period), exactly.
        const Cycle mk1 = pool.runtime(1).scheduler().makespan();
        EXPECT_EQ(report.chips[1].makespanNs, mk1 / 2);
        mixed_checksum = report.outputChecksum;
    }
    {
        TrafficGen gen(53);
        PoolConfig pcfg;
        pcfg.chips = {
            heteroChipSpec(analog::AdcKind::Sar, 1, /*clock_ghz=*/1.0),
            heteroChipSpec(analog::AdcKind::Sar, 1, /*clock_ghz=*/1.0)};
        ChipPool pool(pcfg);
        AdmissionController ac(pool, gen, microSpecs({1.0, 1.0}), cfg);
        const ServeReport report = ac.run(burst);
        EXPECT_EQ(report.completed, burst.size());
        EXPECT_EQ(report.outputChecksum, mixed_checksum);
    }
}

TEST(Admission, PerChipWindowBoundsHoldUnderLoad)
{
    // Two one-tile chips with different front-end windows: 1 slot on
    // chip 0, 4 on chip 1. A simultaneous burst of five per tenant
    // under Reject can only keep windowDepth requests in flight per
    // chip, so the rejection counts prove each chip's own bound —
    // not a shared or uniform one — was enforced.
    TrafficGen gen(51);
    ChipPool pool(poolConfig(2, 1));
    std::vector<ServeRequest> burst;
    for (int i = 0; i < 5; ++i) {
        burst.push_back(microRequest(0, 0));
        burst.push_back(microRequest(0, 1));
    }
    // Least-loaded placement puts tenant 0 on chip 0 and tenant 1 on
    // chip 1.
    const std::size_t chip0 = 0, chip1 = 1;
    AdmissionConfig cfg;
    cfg.chipQueueDepth = {1, 4};
    cfg.overflow = OverflowPolicy::Reject;
    AdmissionController ac(pool, gen, microSpecs({1.0, 1.0}), cfg);
    ASSERT_EQ(pool.modelChip(ac.tenants()[0].model), chip0);
    ASSERT_EQ(pool.modelChip(ac.tenants()[1].model), chip1);
    const ServeReport report = ac.run(burst);

    EXPECT_EQ(report.tenants[0].completed, 1u);
    EXPECT_EQ(report.tenants[0].rejected, 4u);
    EXPECT_EQ(report.tenants[1].completed, 4u);
    EXPECT_EQ(report.tenants[1].rejected, 1u);
    ASSERT_EQ(report.chips.size(), 2u);
    EXPECT_EQ(report.chips[chip0].windowDepth, 1u);
    EXPECT_EQ(report.chips[chip1].windowDepth, 4u);
    EXPECT_EQ(report.chips[chip0].completed, 1u);
    EXPECT_EQ(report.chips[chip1].completed, 4u);
}

TEST(Admission, PerChipStatsBreakDownTheReport)
{
    TrafficGen gen(52);
    ChipPool pool(poolConfig(2, 2));
    auto specs = microSpecs({1.0, 1.0, 1.0});
    AdmissionConfig cfg;
    cfg.queueDepth = 2;
    cfg.overflow = OverflowPolicy::Block;
    AdmissionController ac(pool, gen, specs, cfg);
    const ServeReport report = ac.run(gen.trace(specs, 4000));
    ASSERT_GT(report.completed, 0u);

    ASSERT_EQ(report.chips.size(), 2u);
    u64 completed = 0, mvms = 0;
    std::size_t tenant_count = 0;
    for (std::size_t c = 0; c < report.chips.size(); ++c) {
        const ChipStats &cs = report.chips[c];
        completed += cs.completed;
        mvms += cs.mvms;
        tenant_count += cs.tenants;
        EXPECT_LE(cs.makespanNs, report.makespanNs);
        if (cs.completed > 0) {
            EXPECT_GT(cs.serviceNs, 0.0);
            EXPECT_GT(cs.utilization(), 0.0);
            EXPECT_GT(cs.throughputPerKns(), 0.0);
        }
        // Uniform pools carry the default spec name and the uniform
        // window.
        EXPECT_EQ(cs.name, "chip");
        EXPECT_EQ(cs.windowDepth, 2u);
        EXPECT_EQ(cs.hcts, 2u);
    }
    EXPECT_EQ(completed, report.completed);
    EXPECT_EQ(tenant_count, specs.size());
    u64 tenant_mvms = 0;
    for (const auto &t : report.tenants)
        tenant_mvms += t.mvms;
    EXPECT_EQ(mvms, tenant_mvms);
}

TEST(Admission, TenantSpecValidationThrows)
{
    // The satellite contract: non-positive weight or rate fails with
    // std::invalid_argument at the traffic layer, both directly and
    // through the AdmissionController constructor and trace().
    TenantSpec bad_weight;
    bad_weight.name = "w";
    bad_weight.kind = WorkloadKind::Micro;
    bad_weight.weight = 0.0;
    bad_weight.ratePerKns = 1.0;
    EXPECT_THROW(TrafficGen::validateSpec(bad_weight),
                 std::invalid_argument);

    TenantSpec bad_rate;
    bad_rate.name = "r";
    bad_rate.kind = WorkloadKind::Micro;
    bad_rate.weight = 1.0;
    bad_rate.ratePerKns = -2.0;
    EXPECT_THROW(TrafficGen::validateSpec(bad_rate),
                 std::invalid_argument);

    TrafficGen gen(1);
    EXPECT_THROW((void)gen.trace({bad_rate}, 1000),
                 std::invalid_argument);
    ChipPool pool(poolConfig(1, 1));
    EXPECT_THROW(AdmissionController(pool, gen, {bad_weight},
                                     AdmissionConfig{}),
                 std::invalid_argument);

    TenantSpec good;
    good.name = "ok";
    good.kind = WorkloadKind::Micro;
    good.weight = 0.5;
    good.ratePerKns = 0.25;
    EXPECT_NO_THROW(TrafficGen::validateSpec(good));
}

TEST(Admission, NonFiniteTenantNumbersThrow)
{
    // NaN fails every comparison, so each check must be written to
    // fail on it; +inf weight or rate is as unusable as zero.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    TenantSpec base;
    base.name = "t";
    base.kind = WorkloadKind::Micro;
    base.weight = 1.0;
    base.ratePerKns = 1.0;
    base.slo.latencyTargetNs = 1000;
    base.slo.targetAvailability = 0.99;
    ASSERT_NO_THROW(TrafficGen::validateSpec(base));

    for (const double bad : {nan, inf, -inf}) {
        TenantSpec spec = base;
        spec.weight = bad;
        EXPECT_THROW(TrafficGen::validateSpec(spec),
                     std::invalid_argument)
            << "weight " << bad;
        spec = base;
        spec.ratePerKns = bad;
        EXPECT_THROW(TrafficGen::validateSpec(spec),
                     std::invalid_argument)
            << "rate " << bad;
    }
    TenantSpec spec = base;
    spec.slo.targetAvailability = nan;
    EXPECT_THROW(TrafficGen::validateSpec(spec), std::invalid_argument);

    TrafficGen gen(48);
    ChipPool pool(poolConfig(1, 1));
    for (const double bad : {nan, inf}) {
        auto bad_specs = microSpecs({1.0});
        bad_specs[0].weight = bad;
        EXPECT_THROW(AdmissionController(pool, gen, bad_specs,
                                         AdmissionConfig{}),
                     std::invalid_argument)
            << "weight " << bad;
    }
}

/** Chip large enough for one TinyCnn inference model. */
PoolConfig
inferPoolConfig()
{
    PoolConfig cfg;
    cfg.chip.hct.dce.numPipelines = 2;
    cfg.chip.hct.dce.pipeline.depth = 32;
    cfg.chip.hct.dce.pipeline.width = 32;
    cfg.chip.hct.dce.pipeline.numRegs = 8;
    cfg.chip.hct.ace.numArrays = 16;
    cfg.chip.hct.ace.arrayRows = 64;
    cfg.chip.hct.ace.arrayCols = 32;
    cfg.chip.numHcts = 3;
    cfg.numChips = 1;
    return cfg;
}

TEST(Admission, InferenceRequestsServeWholeForwards)
{
    // One CnnInfer tenant: every completed request is a whole TinyCnn
    // forward — one window slot per inference (queueDepth 1 still
    // makes progress), outputs bit-identical to the reference
    // network, per-inference latency samples, and the WFQ nominal
    // cost charged at the whole-inference oracle latency.
    TrafficGen gen(21);
    ChipPool pool(inferPoolConfig());

    std::vector<TenantSpec> specs(1);
    specs[0].name = "cnn_infer";
    specs[0].kind = WorkloadKind::CnnInfer;
    specs[0].ratePerKns = 0.05;
    AdmissionConfig cfg;
    cfg.queueDepth = 1;
    cfg.qos = QosPolicy::WeightedFair;
    cfg.overflow = OverflowPolicy::Block;
    AdmissionController ac(pool, gen, specs, cfg);
    const ModelRef model = ac.tenants()[0].model;
    EXPECT_TRUE(pool.isInference(model));
    EXPECT_EQ(gen.cnnInferNet(TrafficGen::privateModelKey(0)).inputSize(),
              64u);

    // Whole-inference oracle cost: far above any single-MVM cost.
    const Cycle nominal = pool.nominalServiceCycles(model, 8);
    EXPECT_GT(nominal, 1000u);

    const auto trace = gen.trace(specs, 120000);
    ASSERT_GE(trace.size(), 3u);
    const RecordedRun run = runRecorded(ac, trace);

    EXPECT_EQ(run.report.completed, trace.size());
    const TenantStats &stats = run.report.tenants[0];
    // 81 MVMs per TinyCnn inference.
    EXPECT_EQ(stats.mvms, stats.completed * 81u);
    EXPECT_EQ(stats.latencyHist.count(), stats.completed);

    const cnn::TinyCnn ref =
        gen.cnnInferNet(TrafficGen::privateModelKey(0));
    ASSERT_EQ(run.records.requests.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const test::RequestRecord &r = run.records.requests[i];
        EXPECT_EQ(r.mvms, 81u) << "request " << i;
        EXPECT_EQ(r.outputFnv, fnv1aWords(ref.infer(
                                   ref.inputFromFlat(trace[i].input))))
            << "request " << i;
    }
}

/** One chip large enough for a TinyCnn + encoder + a Micro matrix. */
PoolConfig
stagePoolConfig()
{
    PoolConfig cfg = inferPoolConfig();
    cfg.chip.numHcts = 10;
    return cfg;
}

TEST(Admission, StageGranularityKeepsOutputsBitIdentical)
{
    // The acceptance invariant: the same mixed mvm+inference trace
    // under inference- and stage-granular admission completes the
    // same requests with bit-identical outputs (and therefore equal
    // FNV checksums); only cycle stamps move.
    TrafficGen gen(61);
    std::vector<TenantSpec> specs(3);
    specs[0].name = "cnn_infer";
    specs[0].kind = WorkloadKind::CnnInfer;
    specs[0].ratePerKns = 0.1;
    specs[1].name = "llm_infer";
    specs[1].kind = WorkloadKind::LlmInfer;
    specs[1].ratePerKns = 0.05;
    specs[2].name = "micro";
    specs[2].kind = WorkloadKind::Micro;
    specs[2].ratePerKns = 1.0;
    const auto trace = gen.trace(specs, 60000);
    ASSERT_GT(trace.size(), 20u);

    auto run_granularity = [&](Granularity granularity) {
        ChipPool pool(stagePoolConfig());
        AdmissionConfig cfg;
        cfg.queueDepth = 2;
        cfg.qos = QosPolicy::WeightedFair;
        cfg.overflow = OverflowPolicy::Block;
        cfg.granularity = granularity;
        AdmissionController ac(pool, gen, specs, cfg);
        return runRecorded(ac, trace);
    };

    const RecordedRun whole = run_granularity(Granularity::Inference);
    const RecordedRun staged = run_granularity(Granularity::Stage);
    EXPECT_EQ(whole.report.completed, trace.size());
    EXPECT_EQ(staged.report.completed, trace.size());
    EXPECT_EQ(whole.report.outputChecksum, staged.report.outputChecksum);
    ASSERT_EQ(whole.records.requests.size(), trace.size());
    ASSERT_EQ(staged.records.requests.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(whole.records.requests[i].outputFnv,
                  staged.records.requests[i].outputFnv)
            << "request " << i;

    // Same MVMs issued either way; the stage cell interleaved
    // stages of distinct requests, the whole-unit cell cannot.
    EXPECT_EQ(whole.report.chips[0].issued, staged.report.chips[0].issued);
    EXPECT_EQ(whole.report.chips[0].interleavedStages, 0u);
    EXPECT_GT(staged.report.chips[0].interleavedStages, 0u);

    // Spot-check one inference output against the reference net.
    const cnn::TinyCnn ref =
        gen.cnnInferNet(TrafficGen::privateModelKey(0));
    for (std::size_t i = 0; i < trace.size(); ++i)
        if (trace[i].tenant == 0) {
            EXPECT_EQ(staged.records.requests[i].outputFnv,
                      fnv1aWords(
                          ref.infer(ref.inputFromFlat(trace[i].input))));
            break;
        }
}

TEST(Admission, StageSlotsReleaseOnStageCompletion)
{
    // Window of one, an inference request admitted at cycle 0, and a
    // single-MVM request right behind it. Whole-unit admission holds
    // the slot for the entire graph, so the MVM starts only after
    // the inference completes; stage-granular admission frees the
    // slot at the first stage's completion, so under round-robin
    // QoS (which alternates tenants; FIFO would keep serving the
    // older request's continuations) the MVM starts while the
    // inference is still mid-graph.
    TrafficGen gen(62);
    std::vector<TenantSpec> specs(2);
    specs[0].name = "cnn_infer";
    specs[0].kind = WorkloadKind::CnnInfer;
    specs[0].ratePerKns = 0.1;
    specs[1].name = "micro";
    specs[1].kind = WorkloadKind::Micro;
    specs[1].ratePerKns = 1.0;

    std::vector<ServeRequest> trace(2);
    trace[0].arrival = 0;
    trace[0].tenant = 0;
    trace[0].input.assign(TrafficGen::inputRows(WorkloadKind::CnnInfer),
                          2);
    trace[1].arrival = 1;
    trace[1].tenant = 1;
    trace[1].input.assign(TrafficGen::inputRows(WorkloadKind::Micro),
                          1);

    auto run_granularity = [&](Granularity granularity) {
        ChipPool pool(stagePoolConfig());
        AdmissionConfig cfg;
        cfg.queueDepth = 1;
        cfg.qos = QosPolicy::RoundRobin;
        cfg.overflow = OverflowPolicy::Block;
        cfg.granularity = granularity;
        AdmissionController ac(pool, gen, specs, cfg);
        return runRecorded(ac, trace);
    };

    const RecordedRun whole = run_granularity(Granularity::Inference);
    const RecordedRun staged = run_granularity(Granularity::Stage);
    ASSERT_EQ(whole.report.completed, 2u);
    ASSERT_EQ(staged.report.completed, 2u);

    // Request 0 is the inference, request 1 the MVM.
    EXPECT_GE(whole.records.requests[1].start,
              whole.records.requests[0].done);
    EXPECT_LT(staged.records.requests[1].start,
              staged.records.requests[0].done);
    // The MVM slipped between two stages of the inference: that is
    // the interleaving the per-chip admission sequence counts.
    EXPECT_GE(staged.report.chips[0].interleavedStages, 1u);
}

TEST(Admission, StageRejectFinishesBegunRequestsAndDropsArrivals)
{
    // Reject + window 1 at stage granularity: the admitted request's
    // continuation stages always claim freed slots (a begun forward
    // is never stranded), burst arrivals against the held window are
    // dropped, and a late arrival after the graph drains is served.
    TrafficGen gen(63);
    std::vector<TenantSpec> specs(1);
    specs[0].name = "cnn_infer";
    specs[0].kind = WorkloadKind::CnnInfer;
    specs[0].ratePerKns = 0.1;

    const std::size_t rows =
        TrafficGen::inputRows(WorkloadKind::CnnInfer);
    std::vector<ServeRequest> trace(4);
    trace[0].arrival = 0;
    trace[1].arrival = 1;
    trace[2].arrival = 2;
    // Far beyond one TinyCnn graph span (~15k cycles here).
    trace[3].arrival = 100000;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        trace[i].tenant = 0;
        trace[i].input.assign(rows, static_cast<i64>(i + 1));
    }

    ChipPool pool(stagePoolConfig());
    AdmissionConfig cfg;
    cfg.queueDepth = 1;
    cfg.overflow = OverflowPolicy::Reject;
    cfg.granularity = Granularity::Stage;
    AdmissionController ac(pool, gen, specs, cfg);
    const RecordedRun run = runRecorded(ac, trace);

    EXPECT_EQ(run.report.completed, 2u);
    EXPECT_EQ(run.report.rejected, 2u);
    const cnn::TinyCnn ref =
        gen.cnnInferNet(TrafficGen::privateModelKey(0));
    const std::vector<test::RequestRecord> &r = run.records.requests;
    ASSERT_EQ(r.size(), trace.size());
    for (const std::size_t i : {std::size_t{0}, std::size_t{3}}) {
        EXPECT_TRUE(r[i].completed) << "request " << i;
        EXPECT_EQ(r[i].outputFnv,
                  fnv1aWords(ref.infer(ref.inputFromFlat(trace[i].input))))
            << "request " << i;
    }
    for (const std::size_t i : {std::size_t{1}, std::size_t{2}}) {
        EXPECT_TRUE(r[i].rejected) << "request " << i;
        EXPECT_FALSE(r[i].completed) << "request " << i;
    }
}

TEST(Admission, BurstSpecValidationThrows)
{
    TenantSpec one_sided;
    one_sided.name = "b";
    one_sided.kind = WorkloadKind::Micro;
    one_sided.burst.onNs = 100;
    EXPECT_THROW(TrafficGen::validateSpec(one_sided),
                 std::invalid_argument);
    one_sided.burst = {0, 100};
    EXPECT_THROW(TrafficGen::validateSpec(one_sided),
                 std::invalid_argument);

    TrafficGen gen(64);
    EXPECT_THROW((void)gen.trace({one_sided}, 1000),
                 std::invalid_argument);
    ChipPool pool(poolConfig(1, 1));
    EXPECT_THROW(AdmissionController(pool, gen, {one_sided},
                                     AdmissionConfig{}),
                 std::invalid_argument);

    TenantSpec bursty = one_sided;
    bursty.burst = {100, 300};
    EXPECT_NO_THROW(TrafficGen::validateSpec(bursty));
    TenantSpec steady = one_sided;
    steady.burst = {0, 0};
    EXPECT_NO_THROW(TrafficGen::validateSpec(steady));
}

TEST(Admission, BurstyArrivalsStayInOnWindows)
{
    TrafficGen gen(65);
    TenantSpec spec;
    spec.name = "bursty";
    spec.kind = WorkloadKind::Micro;
    spec.ratePerKns = 50.0;
    spec.burst = {500, 1500};

    const auto trace = gen.trace({spec}, 20000);
    ASSERT_GT(trace.size(), 50u);
    const Cycle period = spec.burst.onNs + spec.burst.offNs;
    Cycle prev = 0;
    for (const ServeRequest &req : trace) {
        EXPECT_LT(req.arrival % period, spec.burst.onNs)
            << "arrival " << req.arrival << " falls in an off-phase";
        EXPECT_GE(req.arrival, prev);
        prev = req.arrival;
    }
    // Deterministic: the same seed replays the same trace.
    const auto replay = TrafficGen(65).trace({spec}, 20000);
    ASSERT_EQ(replay.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(replay[i].arrival, trace[i].arrival);

    // A bursty neighbour never perturbs a steady tenant's stream
    // (streams are salted by tenant index, so keep steady at 0).
    TenantSpec steady;
    steady.name = "steady";
    steady.kind = WorkloadKind::Micro;
    steady.ratePerKns = 10.0;
    const auto mixed = gen.trace({steady, spec}, 20000);
    const auto solo = gen.trace({steady}, 20000);
    std::vector<Cycle> mixed_arrivals;
    for (const ServeRequest &req : mixed)
        if (req.tenant == 0)
            mixed_arrivals.push_back(req.arrival);
    ASSERT_EQ(mixed_arrivals.size(), solo.size());
    for (std::size_t i = 0; i < solo.size(); ++i)
        EXPECT_EQ(mixed_arrivals[i], solo[i].arrival);
}

TEST(Admission, InferenceBlocksHonourArrivalOrderAndWindow)
{
    // Two arrivals back to back against a window of one: the second
    // inference is admitted only when the first completes, so its
    // start cycle clears the first's done cycle.
    TrafficGen gen(22);
    ChipPool pool(inferPoolConfig());
    std::vector<TenantSpec> specs(1);
    specs[0].name = "cnn_infer";
    specs[0].kind = WorkloadKind::CnnInfer;
    specs[0].ratePerKns = 1.0;

    std::vector<ServeRequest> trace(2);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        trace[i].arrival = i;
        trace[i].tenant = 0;
        trace[i].input.assign(64, static_cast<i64>(i + 1));
    }

    AdmissionConfig cfg;
    cfg.queueDepth = 1;
    AdmissionController ac(pool, gen, specs, cfg);
    const RecordedRun run = runRecorded(ac, trace);
    ASSERT_EQ(run.report.completed, 2u);
    const std::vector<test::RequestRecord> &r = run.records.requests;
    // queueing = start - arrival: the second request waited at least
    // the first's service time behind the one-slot window.
    EXPECT_GT(r[1].queueing(), 0.0);
    EXPECT_GE(r[1].done, r[0].done);
}

} // namespace
} // namespace serve
} // namespace darth
