/**
 * @file
 * Bit-identity of the per-chip parallel drain: running the same
 * trace through AdmissionController with N worker threads must
 * produce byte-for-byte the report a single-threaded run produces —
 * checksums, counts, makespan, latency distributions — and the event
 * journal's binary serialization, which carries every per-request
 * time stamp and output checksum. The `threads` knob is a host-side
 * throughput control, never a semantic one.
 */

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "journal/Journal.h"
#include "journal/Replayer.h"
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

runtime::ChipConfig
smallChip()
{
    runtime::ChipConfig cfg;
    cfg.hct.dce.numPipelines = 4;
    cfg.hct.dce.pipeline.depth = 32;
    cfg.hct.dce.pipeline.width = 8;
    cfg.hct.dce.pipeline.numRegs = 8;
    cfg.hct.ace.numArrays = 8;
    cfg.hct.ace.arrayRows = 16;
    cfg.hct.ace.arrayCols = 8;
    // 6 tiles: one per micro tenant plus the 5 contiguous tiles the
    // TinyCnn inference placement needs on a single chip.
    cfg.numHcts = 6;
    return cfg;
}

PoolConfig
poolConfig(std::size_t chips)
{
    PoolConfig cfg;
    cfg.chip = smallChip();
    cfg.numChips = chips;
    cfg.placement = PlacementPolicy::LeastLoaded;
    return cfg;
}

/** Four micro tenants with uneven weights, one mixed-in inference
 *  tenant, spread by placement across a 4-chip pool. */
std::vector<TenantSpec>
mixedSpecs()
{
    std::vector<TenantSpec> specs;
    for (std::size_t i = 0; i < 4; ++i) {
        TenantSpec spec;
        spec.name = "micro" + std::to_string(i);
        spec.kind = WorkloadKind::Micro;
        spec.weight = 1.0 + static_cast<double>(i);
        spec.ratePerKns = 4.0;
        specs.push_back(spec);
    }
    TenantSpec infer;
    infer.name = "cnninfer";
    infer.kind = WorkloadKind::CnnInfer;
    infer.weight = 2.0;
    infer.ratePerKns = 0.5;
    specs.push_back(infer);
    return specs;
}

/** A run's report and its journal's binary serialization. */
struct JournaledRun
{
    ServeReport report;
    std::string journalBytes;
};

/** One full serve run at the given thread count over a fixed
 *  scenario (seeded trace, 4 chips, weighted-fair, journaled). */
JournaledRun
runAt(std::size_t threads)
{
    TrafficGen gen(4242);
    ChipPool pool(poolConfig(4));
    const auto specs = mixedSpecs();
    auto tenants = buildTenants(pool, gen, specs);
    AdmissionConfig cfg;
    cfg.queueDepth = 2;
    cfg.qos = QosPolicy::WeightedFair;
    cfg.overflow = OverflowPolicy::Block;
    cfg.threads = threads;
    AdmissionController ac(pool, tenants, cfg);
    journal::Journal jr;
    ac.setJournal(&jr);
    JournaledRun run{ac.run(gen.trace(specs, 4000)), {}};
    std::stringstream bytes;
    jr.writeBinary(bytes);
    run.journalBytes = bytes.str();
    return run;
}

void
expectReportsIdentical(const ServeReport &one, const ServeReport &many)
{
    EXPECT_EQ(one.outputChecksum, many.outputChecksum);
    EXPECT_EQ(one.completed, many.completed);
    EXPECT_EQ(one.rejected, many.rejected);
    EXPECT_EQ(one.makespanNs, many.makespanNs);
    ASSERT_EQ(one.tenants.size(), many.tenants.size());
    for (std::size_t t = 0; t < one.tenants.size(); ++t) {
        const TenantStats &a = one.tenants[t];
        const TenantStats &b = many.tenants[t];
        EXPECT_EQ(a.completed, b.completed) << a.name;
        EXPECT_EQ(a.rejected, b.rejected) << a.name;
        EXPECT_EQ(a.mvms, b.mvms) << a.name;
        // Exact double equality on the push-order sums: the merge at
        // the join must preserve order and value, not just counts.
        EXPECT_EQ(a.latencyHist.sum(), b.latencyHist.sum()) << a.name;
        EXPECT_EQ(a.queueingHist.sum(), b.queueingHist.sum()) << a.name;
        EXPECT_EQ(a.serviceHist.sum(), b.serviceHist.sum()) << a.name;
        EXPECT_EQ(a.serviceNs, b.serviceNs) << a.name;
    }
    ASSERT_EQ(one.chips.size(), many.chips.size());
    for (std::size_t c = 0; c < one.chips.size(); ++c) {
        EXPECT_EQ(one.chips[c].completed, many.chips[c].completed);
        EXPECT_EQ(one.chips[c].mvms, many.chips[c].mvms);
        EXPECT_EQ(one.chips[c].serviceNs,
                  many.chips[c].serviceNs);
    }
}

TEST(ParallelServe, FourThreadsBitIdenticalToOne)
{
    const JournaledRun one = runAt(1);
    const JournaledRun four = runAt(4);
    ASSERT_GT(one.report.completed, 0u);
    expectReportsIdentical(one.report, four.report);
    // Every per-request stamp and output checksum, in journal order.
    EXPECT_EQ(one.journalBytes, four.journalBytes);
}

TEST(ParallelServe, MoreThreadsThanChipsIsStillIdentical)
{
    // Oversubscription (threads > chips) exercises workers that find
    // the queue empty and must exit without contributing.
    const JournaledRun one = runAt(1);
    const JournaledRun eight = runAt(8);
    expectReportsIdentical(one.report, eight.report);
    EXPECT_EQ(one.journalBytes, eight.journalBytes);
}

TEST(ParallelServe, JournalBytesIdenticalAcrossThreadCounts)
{
    // The recorded event journal — not just the report — must come
    // out byte-identical, because replays and audit trails are
    // defined over the serialized stream. `threads` is deliberately
    // not a journal field, so the two setups differ only in host
    // parallelism.
    journal::ServeRunSetup setup;
    setup.slots = {{journal::SlotKind::Default, 2, 1.0},
                   {journal::SlotKind::Default, 2, 1.0},
                   {journal::SlotKind::Default, 2, 1.0},
                   {journal::SlotKind::Default, 2, 1.0}};
    setup.placement = PlacementPolicy::LeastLoaded;
    setup.trafficSeed = 911;
    setup.horizon = 3000;
    setup.admission.queueDepth = 2;
    setup.admission.qos = QosPolicy::WeightedFair;
    setup.admission.overflow = OverflowPolicy::Block;

    std::vector<TenantSpec> specs;
    for (std::size_t i = 0; i < 4; ++i) {
        TenantSpec spec;
        spec.name = "micro" + std::to_string(i);
        spec.kind = WorkloadKind::Micro;
        spec.ratePerKns = 3.0;
        specs.push_back(spec);
    }
    setup.tenants = specs;

    setup.admission.threads = 1;
    const journal::ServeRunRecord serial =
        journal::recordServeRun(setup);
    setup.admission.threads = 4;
    const journal::ServeRunRecord parallel =
        journal::recordServeRun(setup);

    std::stringstream serial_bytes;
    serial.journal.writeBinary(serial_bytes);
    std::stringstream parallel_bytes;
    parallel.journal.writeBinary(parallel_bytes);
    ASSERT_GT(serial.report.completed, 0u);
    EXPECT_EQ(serial.report.outputChecksum,
              parallel.report.outputChecksum);
    EXPECT_EQ(serial_bytes.str(), parallel_bytes.str());
}

TEST(ParallelServe, StreamedBatchesMatchArrivalOrder)
{
    // A static-pool stream longer than one internal batch (4096
    // requests): at 1 thread every request runs in arrival order, at
    // 4 threads in per-chip batches on worker threads. The binary
    // journals and the reports must be identical, staged inferences
    // included.
    journal::ServeRunSetup setup;
    setup.uniformPool = false;
    setup.slots.assign(4, {journal::SlotKind::Uniform, 8, 1.0});
    setup.placement = PlacementPolicy::LeastLoaded;
    setup.trafficSeed = 977;
    setup.horizon = 4000000;
    setup.admission.queueDepth = 2;
    setup.admission.qos = QosPolicy::WeightedFair;
    setup.admission.granularity = Granularity::Stage;
    setup.tenants = mixedSpecs();
    for (TenantSpec &spec : setup.tenants)
        spec.ratePerKns = spec.kind == WorkloadKind::Micro ? 1.0 : 0.005;
    constexpr std::size_t kRequests = 9000;

    auto record = [&](std::size_t threads, std::string &bytes) {
        setup.admission.threads = threads;
        TraceStream stream(setup.trafficSeed, setup.tenants,
                           setup.horizon);
        CappedSource source(stream, kRequests);
        journal::Journal jr;
        const ServeReport report =
            journal::recordServeRunStream(setup, source, jr);
        std::stringstream out;
        jr.writeBinary(out);
        bytes = out.str();
        return report;
    };
    std::string one_bytes, four_bytes;
    const ServeReport one = record(1, one_bytes);
    const ServeReport four = record(4, four_bytes);
    ASSERT_EQ(one.completed, kRequests);
    EXPECT_GT(one.tenants.back().completed, 2u) << "no staged inferences";
    expectReportsIdentical(one, four);
    EXPECT_EQ(one_bytes, four_bytes);
}

} // namespace
} // namespace serve
} // namespace darth
