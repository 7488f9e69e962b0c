/**
 * @file
 * Streaming serve telemetry: the O(1)-memory report (histogram
 * percentiles, exact streaming aggregates, the rolling output
 * checksum of AdmissionController::runStream) must agree with the
 * per-request facts the run journal records — exactly for counts,
 * sums (push-order), extrema, and checksums; within one bucket width
 * for percentiles — across QoS policies, overflow policies, admission
 * granularities, and the fleet lifecycle.
 */

#include <algorithm>
#include <cstddef>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "RunRecords.h"
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
 *  the journal-vs-streaming comparison spans the admission modes. */
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
        const journal::ServeRunSetup setup = drawSetup(seed);
        const journal::ServeRunRecord rec =
            journal::recordServeRun(setup);
        ASSERT_GT(rec.report.completed, 0u) << "seed " << seed;
        const test::RunRecords records =
            test::readRunRecords(rec.journal);

        for (std::size_t ti = 0; ti < rec.report.tenants.size(); ++ti) {
            const TenantStats &t = rec.report.tenants[ti];
            const std::vector<double> latency = records.latencies(ti);
            const std::vector<double> queueing = records.queueings(ti);
            // Exact aggregates: count, extrema, and a sum that is
            // bit-equal to the fold over the journal's Complete records
            // in journal order, the histogram's push order (NOT
            // summarize().mean * count — summarize sums in sorted
            // order, which rounds differently).
            ASSERT_EQ(t.latencyHist.count(), latency.size())
                << "seed " << seed << " tenant " << t.name;
            if (latency.empty())
                continue;
            double fold = 0.0;
            double lo = latency.front();
            double hi = latency.front();
            for (const double v : latency) {
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
            const SampleSummary retained = summarize(latency);
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
            ASSERT_EQ(t.queueingHist.count(), queueing.size());
            const double qexact = summarize(queueing).p95;
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

/** The reference output of `model` (W·x, or the TinyCnn forward)
 *  for `input`. */
std::vector<i64>
referenceOutput(const ServedModel &model, const std::vector<i64> &input)
{
    if (const auto *net = std::get_if<cnn::TinyCnn>(&model))
        return net->infer(net->inputFromFlat(input));
    const MatrixI &w = std::get<MatrixModel>(model).weights;
    std::vector<i64> out(w.cols(), 0);
    for (std::size_t c = 0; c < w.cols(); ++c)
        for (std::size_t r = 0; r < w.rows(); ++r)
            out[c] += w(r, c) * input[r];
    return out;
}

TEST(StreamingStats, RunStreamCollectsTheOutputsRunDoes)
{
    // A streamed run records exactly the journal run() does — every
    // completion, rejection, and output checksum in request order —
    // whether it streams the materialized trace or the lazy
    // generator; and the reference outputs of the completed requests
    // (empty for rejections) fold to the report checksum.
    for (u64 seed = 0; seed < 2; ++seed) {
        const journal::ServeRunSetup setup = drawSetup(seed);
        const std::vector<ServeRequest> trace =
            TrafficGen(setup.trafficSeed)
                .trace(setup.tenants, setup.horizon);
        auto serve = [&](RequestSource *source, journal::Journal &jr) {
            TrafficGen gen(setup.trafficSeed);
            ChipPool pool(setup.poolConfig());
            AdmissionController ac(
                pool, buildTenants(pool, gen, setup.tenants),
                setup.admission);
            ac.setJournal(&jr);
            return source != nullptr ? ac.runStream(*source)
                                     : ac.run(trace);
        };
        journal::Journal vec_jr, from_vector_jr, from_stream_jr;
        const ServeReport vec = serve(nullptr, vec_jr);
        VectorSource vector_source(trace);
        const ServeReport from_vector =
            serve(&vector_source, from_vector_jr);
        TraceStream lazy(setup.trafficSeed, setup.tenants,
                         setup.horizon);
        const ServeReport from_stream = serve(&lazy, from_stream_jr);

        EXPECT_EQ(from_vector_jr, vec_jr) << "seed " << seed;
        EXPECT_EQ(from_stream_jr, vec_jr) << "seed " << seed;
        EXPECT_EQ(from_vector.outputChecksum, vec.outputChecksum);
        EXPECT_EQ(from_stream.outputChecksum, vec.outputChecksum);

        const test::RunRecords records = test::readRunRecords(vec_jr);
        ASSERT_EQ(records.requests.size(), trace.size())
            << "seed " << seed;
        const TrafficGen gen(setup.trafficSeed);
        u64 hash = kFnvOffsetBasis;
        std::size_t empty = 0;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const test::RequestRecord &r = records.requests[i];
            ASSERT_NE(r.completed, r.rejected) << "request " << i;
            std::vector<i64> values;
            if (r.completed) {
                const std::size_t t = trace[i].tenant;
                values = referenceOutput(
                    tenantModel(gen, setup.tenants[t], t),
                    trace[i].input);
                EXPECT_EQ(r.outputFnv, fnv1aWords(values))
                    << "seed " << seed << " request " << i;
            }
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
