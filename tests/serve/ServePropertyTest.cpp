/**
 * @file
 * Randomized serve-invariant harness: each seed draws a full serving
 * configuration — pool size and silicon mix, frequency bins,
 * placement policy, QoS/overflow/granularity, queue depths, tenant
 * mix, optional churn + fleet lifecycle — runs it, and asserts the
 * invariants the serving layer promises regardless of configuration:
 *
 *  1. accounting: every trace request is completed or rejected,
 *     admitted-set == completed-set, report counters match the
 *     journal;
 *  2. replay: the journal alone reconstructs the run bit-exactly;
 *  3. threads: 1 vs 4 host threads produce bit-identical journals
 *     and output checksums;
 *  4. pool invariance: under OverflowPolicy::Block the output
 *     checksum is invariant across pool size and placement policy
 *     (outputs depend only on tenant weights and inputs, never on
 *     where or when they ran);
 *  5. WFQ conservation: per request, the stage charges journaled by
 *     Admit sum exactly to the whole-graph nominal service (integer
 *     picoseconds — no drift).
 *
 * Invariant 4 is deliberately gated on Block: Reject mode drops
 * requests by queue pressure, which legitimately differs across
 * pools, so only Block runs are comparable cross-pool.
 *
 * Tier-1 runs 24 fixed seeds. Setting DARTH_SERVE_STRESS in the
 * environment (the ASan CI leg does) stretches every trace 8x for a
 * deeper soak with the same seeds.
 */

#include <cstdlib>
#include <map>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "journal/Journal.h"
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

bool
stressMode()
{
    const char *v = std::getenv("DARTH_SERVE_STRESS");
    return v != nullptr && *v != '\0';
}

/** Draw a full serve-run setup from one seed. Every field below is
 *  either fixed (the capacity anchor in slot 0) or drawn from the
 *  seed's generator, so a failing seed reproduces exactly. */
journal::ServeRunSetup
drawSetup(u64 seed)
{
    std::mt19937_64 rng(0x5EEDF00DULL + seed * 1000003ULL);
    auto draw = [&rng](u64 lo, u64 hi) { // inclusive
        return lo + rng() % (hi - lo + 1);
    };

    journal::ServeRunSetup setup;
    setup.uniformPool = false;

    // Pool: 1-8 chips. Slot 0 is always the big uniform chip so
    // every workload kind fits somewhere; the rest mix silicon
    // (uniform / SAR / ramp geometries) and frequency bins (1 GHz /
    // 2 GHz).
    const std::size_t chips = draw(1, 8);
    setup.slots.clear();
    setup.slots.push_back({journal::SlotKind::Uniform, 12, 1.0});
    for (std::size_t c = 1; c < chips; ++c) {
        journal::PoolSlotSetup slot;
        const u64 pick = draw(0, 2);
        if (pick == 0) {
            slot.kind = journal::SlotKind::Uniform;
            slot.hcts = draw(6, 10);
        } else {
            slot.kind = pick == 1 ? journal::SlotKind::Sar
                                  : journal::SlotKind::Ramp;
            slot.hcts = 8;
        }
        slot.clockGHz = draw(0, 1) == 0 ? 1.0 : 2.0;
        setup.slots.push_back(slot);
    }
    const PlacementPolicy policies[] = {
        PlacementPolicy::RoundRobin, PlacementPolicy::LeastLoaded,
        PlacementPolicy::MatrixAffinity, PlacementPolicy::CostAware};
    setup.placement = policies[draw(0, 3)];
    setup.poolSeed = seed * 31 + 7;

    setup.admission.queueDepth = draw(1, 4);
    const QosPolicy qos[] = {QosPolicy::Fifo, QosPolicy::RoundRobin,
                             QosPolicy::WeightedFair};
    setup.admission.qos = qos[draw(0, 2)];
    setup.admission.overflow = draw(0, 2) == 0
                                   ? OverflowPolicy::Reject
                                   : OverflowPolicy::Block;
    setup.admission.granularity = draw(0, 1) == 0
                                      ? Granularity::Inference
                                      : Granularity::Stage;

    setup.horizon = 1200 * (stressMode() ? 8 : 1);
    setup.trafficSeed = seed * 7 + 1;

    // Tenants: 2-4, mostly single-MVM micro tenants, with at most
    // one CNN and one LLM inference tenant at lower rates (staged
    // graphs are much heavier than single MVMs). Tenant 0 is always
    // a steady micro tenant so no seed draws a vacuous trace.
    const std::size_t tenants = draw(2, 4);
    bool used_cnn = false;
    bool used_llm = false;
    for (std::size_t t = 0; t < tenants; ++t) {
        TenantSpec spec;
        // Built in two steps: GCC 12's -Wrestrict false-positives on
        // operator+(const char*, string&&) under -O3.
        spec.name = "t";
        spec.name += std::to_string(t);
        spec.weight = static_cast<double>(draw(1, 4));
        const u64 pick = t == 0 ? 5 : draw(0, 5);
        if (pick == 0 && !used_cnn) {
            used_cnn = true;
            spec.kind = WorkloadKind::CnnInfer;
            spec.ratePerKns = 0.4;
        } else if (pick == 1 && !used_llm) {
            used_llm = true;
            spec.kind = WorkloadKind::LlmInfer;
            spec.ratePerKns = 0.3;
        } else {
            spec.kind = WorkloadKind::Micro;
            spec.ratePerKns = 1.0 + 0.5 * static_cast<double>(draw(0, 4));
        }
        setup.tenants.push_back(spec);
    }

    // Odd seeds exercise the fleet lifecycle: one tenant churns
    // (arrives late, departs early) and the run is a fleet-mode run
    // with migration + autoscaling live.
    if (seed % 2 == 1) {
        setup.fleet = true;
        setup.fleetCfg.checkIntervalNs = 400;
        setup.fleetCfg.backlogHighNs = 2000;
        setup.fleetCfg.backlogLowNs = 100;
        setup.fleetCfg.migrateHighNs = 1500;
        TenantSpec &churner = setup.tenants[draw(1, tenants - 1)];
        churner.arriveNs = setup.horizon / 4;
        churner.departNs = (setup.horizon * 3) / 4;
    }
    return setup;
}

class ServeProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ServeProperty, InvariantsHold)
{
    const u64 seed = static_cast<u64>(GetParam());
    const journal::ServeRunSetup setup = drawSetup(seed);
    const journal::ServeRunRecord rec = journal::recordServeRun(setup);
    ASSERT_FALSE(rec.trace.empty()) << "seed " << seed << " is vacuous";

    // --- 1. Accounting: the report and the journal agree, and no
    // begun inference is ever lost.
    EXPECT_EQ(rec.report.completed + rec.report.rejected,
              rec.trace.size())
        << "seed " << seed;
    std::map<u64, u64> charge_sum;
    std::map<u64, u64> nominal;
    std::set<u64> admitted;
    std::set<u64> completed;
    std::set<u64> rejected;
    for (const auto &e : rec.journal.events()) {
        switch (e.kind) {
        case journal::EventKind::Admit:
            ASSERT_EQ(e.values.size(), 2u);
            charge_sum[e.a] += e.values[0];
            nominal[e.a] = e.values[1];
            admitted.insert(e.a);
            break;
        case journal::EventKind::Complete:
            completed.insert(e.a);
            break;
        case journal::EventKind::Backpressure:
            if (e.d == 1)
                rejected.insert(e.a);
            break;
        default:
            break;
        }
    }
    EXPECT_EQ(admitted, completed)
        << "seed " << seed << ": a begun inference was lost";
    EXPECT_EQ(completed.size(), rec.report.completed) << "seed " << seed;
    EXPECT_EQ(rejected.size(), rec.report.rejected) << "seed " << seed;

    // --- 5. WFQ conservation: per request the journaled charges sum
    // exactly (integer picoseconds) to the whole-graph nominal.
    for (const auto &[req, sum] : charge_sum)
        EXPECT_EQ(sum, nominal[req])
            << "seed " << seed << " request " << req
            << ": stage charges drifted from nominal";

    // --- 2. Replay: the journal alone reconstructs the run
    // bit-exactly.
    const journal::Replayer replayer(rec.journal);
    const journal::Replayer::Result res = replayer.replay();
    EXPECT_TRUE(res.identical)
        << "seed " << seed << ": replay diverged at event "
        << res.firstMismatch << ": " << res.detail;

    // --- 3. Threads: 4 host threads, same trace, bit-identical
    // journal and outputs.
    journal::ServeRunSetup threaded = setup;
    threaded.admission.threads = 4;
    const journal::ServeRunRecord rec4 =
        journal::recordServeRun(threaded, rec.trace);
    EXPECT_EQ(rec4.journal.chainChecksum(), rec.journal.chainChecksum())
        << "seed " << seed << ": journals diverge across thread counts";
    EXPECT_EQ(rec4.report.outputChecksum, rec.report.outputChecksum)
        << "seed " << seed;

    // --- 4. Pool invariance (Block only): the same trace on a
    // single-chip pool under a different placement policy yields
    // bit-identical outputs.
    if (setup.admission.overflow == OverflowPolicy::Block) {
        journal::ServeRunSetup alt = setup;
        alt.uniformPool = true;
        alt.slots = {{journal::SlotKind::Uniform, 12, 1.0}};
        alt.placement = setup.placement == PlacementPolicy::RoundRobin
                            ? PlacementPolicy::LeastLoaded
                            : PlacementPolicy::RoundRobin;
        const journal::ServeRunRecord alt_rec =
            journal::recordServeRun(alt, rec.trace);
        EXPECT_EQ(alt_rec.report.outputChecksum,
                  rec.report.outputChecksum)
            << "seed " << seed
            << ": outputs depend on pool shape or policy";
        EXPECT_EQ(alt_rec.report.completed, rec.report.completed)
            << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeProperty,
                         ::testing::Range(0, 24));

} // namespace
} // namespace serve
} // namespace darth
