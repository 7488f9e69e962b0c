/**
 * @file
 * Streaming serve telemetry: the O(1)-memory path (histogram
 * percentiles, exact streaming aggregates, the rolling output
 * checksum of AdmissionController::runStream) must agree with the
 * O(requests) retained path it replaces — exactly for counts, sums
 * (push-order), extrema, and checksums; within one bucket width for
 * percentiles — across QoS policies, overflow policies, admission
 * granularities, and the fleet lifecycle.
 */

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/Fnv.h"
#include "common/Stats.h"
#include "journal/Replayer.h"
#include "serve/Admission.h"
#include "serve/ChipPool.h"
#include "serve/TrafficGen.h"

namespace darth
{
namespace serve
{
namespace
{

/** One 2-chip scenario per seed, cycling QoS/overflow/granularity so
 *  the retained-vs-streaming comparison spans the admission modes. */
journal::ServeRunSetup
drawSetup(u64 seed)
{
    journal::ServeRunSetup setup;
    setup.uniformPool = false;
    setup.slots = {{journal::SlotKind::Uniform, 8, 1.0},
                   {journal::SlotKind::Uniform, 8, 2.0}};
    setup.placement = PlacementPolicy::LeastLoaded;
    setup.trafficSeed = 100 + seed;
    setup.horizon = 3000;
    setup.admission.queueDepth = 1 + seed % 3;
    const QosPolicy qos[] = {QosPolicy::Fifo, QosPolicy::RoundRobin,
                             QosPolicy::WeightedFair};
    setup.admission.qos = qos[seed % 3];
    setup.admission.overflow = seed % 2 == 0
                                   ? OverflowPolicy::Block
                                   : OverflowPolicy::Reject;
    setup.admission.granularity = seed % 2 == 0
                                      ? Granularity::Stage
                                      : Granularity::Inference;

    setup.tenants.resize(3);
    setup.tenants[0].name = "micro_a";
    setup.tenants[0].kind = WorkloadKind::Micro;
    setup.tenants[0].weight = 2.0;
    setup.tenants[0].ratePerKns = 3.0;
    setup.tenants[1].name = "micro_b";
    setup.tenants[1].kind = WorkloadKind::Micro;
    setup.tenants[1].ratePerKns = 2.0;
    setup.tenants[2].name = "cnn_infer";
    setup.tenants[2].kind = WorkloadKind::CnnInfer;
    setup.tenants[2].ratePerKns = 0.2;
    return setup;
}

TEST(StreamingStats, HistogramAgreesWithRetainedSamples)
{
    for (u64 seed = 0; seed < 6; ++seed) {
        journal::ServeRunSetup setup = drawSetup(seed);
        setup.admission.retainSamples = true;
        const journal::ServeRunRecord rec =
            journal::recordServeRun(setup);
        ASSERT_GT(rec.report.completed, 0u) << "seed " << seed;

        for (const TenantStats &t : rec.report.tenants) {
            // Exact aggregates: count, extrema, and a sum that is
            // bit-equal to the push-order fold over the retained
            // vector (NOT summarize().mean * count — summarize sums
            // in sorted order, which rounds differently).
            ASSERT_EQ(t.latencyHist.count(), t.latency.size())
                << "seed " << seed << " tenant " << t.name;
            if (t.latency.empty())
                continue;
            double fold = 0.0;
            double lo = t.latency.front();
            double hi = t.latency.front();
            for (const double v : t.latency) {
                fold += v;
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
            EXPECT_EQ(t.latencyHist.sum(), fold)
                << "seed " << seed << " tenant " << t.name;
            EXPECT_EQ(t.latencyHist.min(), lo);
            EXPECT_EQ(t.latencyHist.max(), hi);

            // Percentiles: the histogram reports the lower edge of
            // the nearest-rank sample's bucket — never above the
            // retained value, and below it by less than one width.
            const SampleSummary retained = summarize(t.latency);
            const SampleSummary streamed = t.latencyHist.summary();
            const double width = t.latencyHist.bucketWidth();
            for (const auto &[exact, bucketed] :
                 {std::pair<double, double>{retained.p50,
                                            streamed.p50},
                  {retained.p95, streamed.p95},
                  {retained.p99, streamed.p99}}) {
                EXPECT_LE(bucketed, exact)
                    << "seed " << seed << " tenant " << t.name;
                EXPECT_LT(exact - bucketed, width)
                    << "seed " << seed << " tenant " << t.name;
            }

            // Queueing histogram obeys the same contract.
            ASSERT_EQ(t.queueingHist.count(), t.queueing.size());
            const double qexact = summarize(t.queueing).p95;
            const double qbucketed = t.queueingHist.percentile(95.0);
            EXPECT_LE(qbucketed, qexact);
            EXPECT_LT(qexact - qbucketed,
                      t.queueingHist.bucketWidth());
        }
    }
}

TEST(StreamingStats, RollingChecksumMatchesFullRetention)
{
    // runStream's rolling FNV fold over outputs in arrival order
    // must equal run()'s fold over the retained output vectors —
    // across QoS/overflow/granularity draws, including Reject runs
    // (rejected requests contribute an empty fold on both paths).
    for (u64 seed = 0; seed < 6; ++seed) {
        const journal::ServeRunSetup setup = drawSetup(seed);
        const journal::ServeRunRecord rec =
            journal::recordServeRun(setup);

        VectorSource source(rec.trace);
        journal::Journal streamed_journal;
        const ServeReport streamed = journal::recordServeRunStream(
            setup, source, streamed_journal);

        EXPECT_EQ(streamed.outputChecksum,
                  rec.report.outputChecksum)
            << "seed " << seed;
        EXPECT_EQ(streamed.completed, rec.report.completed);
        EXPECT_EQ(streamed.rejected, rec.report.rejected);
        EXPECT_EQ(streamed.makespanNs, rec.report.makespanNs);
        ASSERT_EQ(streamed.tenants.size(),
                  rec.report.tenants.size());
        for (std::size_t t = 0; t < streamed.tenants.size(); ++t) {
            const TenantStats &a = streamed.tenants[t];
            const TenantStats &b = rec.report.tenants[t];
            EXPECT_EQ(a.completed, b.completed) << a.name;
            EXPECT_EQ(a.latencyHist.count(), b.latencyHist.count());
            EXPECT_EQ(a.latencyHist.sum(), b.latencyHist.sum());
            EXPECT_EQ(a.serviceNs, b.serviceNs);
        }
    }
}

TEST(StreamingStats, StreamedFleetRunMatchesVectorFleetRun)
{
    journal::ServeRunSetup setup = drawSetup(0);
    setup.fleet = true;
    setup.fleetCfg.checkIntervalNs = 400;
    setup.fleetCfg.backlogHighNs = 2000;
    setup.fleetCfg.backlogLowNs = 100;
    setup.fleetCfg.migrateHighNs = 1500;
    setup.tenants[1].arriveNs = setup.horizon / 4;
    setup.tenants[1].departNs = (setup.horizon * 3) / 4;

    const journal::ServeRunRecord rec = journal::recordServeRun(setup);
    ASSERT_GT(rec.report.completed, 0u);

    VectorSource source(rec.trace);
    journal::Journal streamed_journal;
    const ServeReport streamed = journal::recordServeRunStream(
        setup, source, streamed_journal);
    EXPECT_EQ(streamed.outputChecksum, rec.report.outputChecksum);
    EXPECT_EQ(streamed.completed, rec.report.completed);
    EXPECT_EQ(streamed.fleet.arrivals, rec.report.fleet.arrivals);
    EXPECT_EQ(streamed.fleet.departures,
              rec.report.fleet.departures);
}

TEST(StreamingStats, RetainSamplesOffLeavesVectorsEmpty)
{
    journal::ServeRunSetup setup = drawSetup(0);
    setup.admission.retainSamples = false;
    const journal::ServeRunRecord rec = journal::recordServeRun(setup);
    ASSERT_GT(rec.report.completed, 0u);
    for (const TenantStats &t : rec.report.tenants) {
        EXPECT_TRUE(t.latency.empty()) << t.name;
        EXPECT_TRUE(t.queueing.empty()) << t.name;
        EXPECT_TRUE(t.service.empty()) << t.name;
        EXPECT_TRUE(t.doneNs.empty()) << t.name;
        // The summaries fall back to the always-on histograms.
        EXPECT_EQ(t.latencySummary().count, t.completed) << t.name;
        EXPECT_EQ(t.queueingSummary().count, t.completed) << t.name;
    }
}

TEST(StreamingStats, RunStreamCollectsTheOutputsRunDoes)
{
    // Under collectOutputs a streamed run collects exactly the
    // outputs run() does — request order, empty vectors for
    // rejections — whether it streams the materialized trace or the
    // lazy generator; and the outputs fold to the report checksum.
    for (u64 seed = 0; seed < 2; ++seed) {
        journal::ServeRunSetup setup = drawSetup(seed);
        setup.admission.collectOutputs = true;
        const std::vector<ServeRequest> trace =
            TrafficGen(setup.trafficSeed)
                .trace(setup.tenants, setup.horizon);
        auto serve = [&](RequestSource *source) {
            TrafficGen gen(setup.trafficSeed);
            ChipPool pool(setup.poolConfig());
            AdmissionController ac(
                pool, buildTenants(pool, gen, setup.tenants),
                setup.admission);
            return source != nullptr ? ac.runStream(*source)
                                     : ac.run(trace);
        };
        const ServeReport vec = serve(nullptr);
        VectorSource vector_source(trace);
        const ServeReport from_vector = serve(&vector_source);
        TraceStream lazy(setup.trafficSeed, setup.tenants,
                         setup.horizon);
        const ServeReport from_stream = serve(&lazy);

        ASSERT_EQ(vec.outputs.size(), trace.size()) << "seed " << seed;
        EXPECT_EQ(from_vector.outputs, vec.outputs) << "seed " << seed;
        EXPECT_EQ(from_stream.outputs, vec.outputs) << "seed " << seed;
        u64 hash = kFnvOffsetBasis;
        std::size_t empty = 0;
        for (const std::vector<i64> &values : vec.outputs) {
            hash = fnv1aWords(values, hash);
            empty += values.empty() ? 1 : 0;
        }
        EXPECT_EQ(hash, vec.outputChecksum) << "seed " << seed;
        EXPECT_EQ(empty, vec.rejected) << "seed " << seed;
    }
}

TEST(StreamingStats, TraceStreamIsTheLazyTrace)
{
    const journal::ServeRunSetup setup = drawSetup(1);
    TrafficGen gen(setup.trafficSeed);
    const std::vector<ServeRequest> trace =
        gen.trace(setup.tenants, setup.horizon);
    ASSERT_GT(trace.size(), 10u);

    // Draining the stream reproduces the materialized trace.
    TraceStream stream(setup.trafficSeed, setup.tenants,
                       setup.horizon);
    ServeRequest req;
    std::size_t i = 0;
    WallNs prev = 0;
    while (stream.next(req)) {
        ASSERT_LT(i, trace.size());
        EXPECT_EQ(req.arrival, trace[i].arrival);
        EXPECT_EQ(req.tenant, trace[i].tenant);
        EXPECT_EQ(req.input, trace[i].input);
        EXPECT_GE(req.arrival, prev);
        prev = req.arrival;
        ++i;
    }
    EXPECT_EQ(i, trace.size());

    // CappedSource yields exactly the trace's prefix.
    TraceStream stream2(setup.trafficSeed, setup.tenants,
                        setup.horizon);
    CappedSource capped(stream2, 5);
    for (std::size_t k = 0; k < 5; ++k) {
        ASSERT_TRUE(capped.next(req));
        EXPECT_EQ(req.arrival, trace[k].arrival);
    }
    EXPECT_FALSE(capped.next(req));
}

} // namespace
} // namespace serve
} // namespace darth
