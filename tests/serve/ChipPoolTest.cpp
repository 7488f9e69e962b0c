/**
 * @file
 * Tests for the multi-chip serving pool: placement sharding policies,
 * affinity sharing, capacity exhaustion, request routing, and
 * heterogeneous pools (per-slot ChipSpecs with cost-aware
 * placement).
 */

#include <stdexcept>
#include <utility>

#include <gtest/gtest.h>

#include "common/Random.h"
#include "model/Params.h"
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
poolConfig(std::size_t chips, std::size_t hcts_per_chip,
           PlacementPolicy policy)
{
    PoolConfig cfg;
    cfg.chip = smallChip(hcts_per_chip);
    cfg.numChips = chips;
    cfg.placement = policy;
    return cfg;
}

MatrixI
randomMatrix(std::size_t rows, std::size_t cols, u64 seed)
{
    Rng rng(seed);
    MatrixI m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            m(r, c) = rng.uniformInt(i64{0}, i64{1});
    return m;
}

std::vector<i64>
reference(const MatrixI &m, const std::vector<i64> &x)
{
    std::vector<i64> out(m.cols(), 0);
    for (std::size_t c = 0; c < m.cols(); ++c)
        for (std::size_t r = 0; r < m.rows(); ++r)
            out[c] += m(r, c) * x[r];
    return out;
}

TEST(ChipPool, RoundRobinSpreadsPlacements)
{
    ChipPool pool(poolConfig(4, 2, PlacementPolicy::RoundRobin));
    for (std::size_t i = 0; i < 4; ++i) {
        const ModelRef m = pool.place(
            0, MatrixModel{randomMatrix(8, 8, 600 + i), 1, 1});
        EXPECT_EQ(pool.modelChip(m), i);
    }
    // Second lap wraps back to chip 0.
    const ModelRef again =
        pool.place(0, MatrixModel{randomMatrix(8, 8, 610), 1, 1});
    EXPECT_EQ(pool.modelChip(again), 0u);
}

TEST(ChipPool, RoundRobinSkipsFullChips)
{
    // One tile per chip: a full chip cannot take the next placement,
    // the rotation walks past it.
    ChipPool pool(poolConfig(3, 1, PlacementPolicy::RoundRobin));
    const ModelRef a =
        pool.place(0, MatrixModel{randomMatrix(8, 8, 620), 1, 1});
    const ModelRef b =
        pool.place(0, MatrixModel{randomMatrix(8, 8, 621), 1, 1});
    const ModelRef c =
        pool.place(0, MatrixModel{randomMatrix(8, 8, 622), 1, 1});
    EXPECT_EQ(pool.modelChip(a), 0u);
    EXPECT_EQ(pool.modelChip(b), 1u);
    EXPECT_EQ(pool.modelChip(c), 2u);
    EXPECT_THROW(
        pool.place(0, MatrixModel{randomMatrix(8, 8, 623), 1, 1}),
        std::runtime_error);
}

TEST(ChipPool, LeastLoadedPicksEmptiestChip)
{
    ChipPool pool(poolConfig(3, 2, PlacementPolicy::LeastLoaded));
    // All chips empty: ties break to the lowest index.
    const ModelRef a =
        pool.place(0, MatrixModel{randomMatrix(8, 8, 630), 1, 1});
    EXPECT_EQ(pool.modelChip(a), 0u);
    // Chip 0 now has fewer free tiles than chips 1 and 2.
    const ModelRef b =
        pool.place(0, MatrixModel{randomMatrix(8, 8, 631), 1, 1});
    EXPECT_EQ(pool.modelChip(b), 1u);
    const ModelRef c =
        pool.place(0, MatrixModel{randomMatrix(8, 8, 632), 1, 1});
    EXPECT_EQ(pool.modelChip(c), 2u);
    // Back to even load: lowest index again.
    const ModelRef d =
        pool.place(0, MatrixModel{randomMatrix(8, 8, 633), 1, 1});
    EXPECT_EQ(pool.modelChip(d), 0u);
}

TEST(ChipPool, MatrixAffinitySharesPlacements)
{
    ChipPool pool(poolConfig(2, 2, PlacementPolicy::MatrixAffinity));
    const MatrixI m = randomMatrix(8, 8, 640);
    const ModelRef first = pool.place(7, MatrixModel{m, 1, 1});
    const std::size_t free_after_first =
        pool.runtime(pool.modelChip(first)).freeHcts();
    // Same key: the existing placement is returned, no tiles consumed.
    const ModelRef second = pool.place(7, MatrixModel{m, 1, 1});
    EXPECT_EQ(first, second);
    EXPECT_EQ(pool.runtime(pool.modelChip(first)).freeHcts(),
              free_after_first);
    // A different key places fresh (on the emptier chip).
    const ModelRef other =
        pool.place(8, MatrixModel{randomMatrix(8, 8, 641), 1, 1});
    EXPECT_NE(other, first);
    EXPECT_NE(pool.modelChip(other), pool.modelChip(first));
    // Key 0 opts out of sharing even under MatrixAffinity.
    const ModelRef anon_a = pool.place(0, MatrixModel{m, 1, 1});
    const ModelRef anon_b = pool.place(0, MatrixModel{m, 1, 1});
    EXPECT_NE(anon_a, anon_b);
}

TEST(ChipPool, AffinityKeyReuseWithDifferentWeightsIsFatal)
{
    // Returning the existing placement for a key while silently
    // ignoring different offered weights would make every later MVM
    // wrong; it must fail loudly instead.
    ChipPool pool(poolConfig(1, 2, PlacementPolicy::MatrixAffinity));
    (void)pool.place(9, MatrixModel{randomMatrix(8, 8, 660), 1, 1});
    EXPECT_THROW(
        pool.place(9, MatrixModel{randomMatrix(8, 8, 661), 1, 1}),
        std::runtime_error);
    // Same shape, one differing element: still fatal.
    MatrixI tweaked = randomMatrix(8, 8, 660);
    tweaked(3, 3) ^= 1;
    EXPECT_THROW(pool.place(9, MatrixModel{tweaked, 1, 1}),
                 std::runtime_error);
    // The identical matrix still shares cleanly.
    const ModelRef again =
        pool.place(9, MatrixModel{randomMatrix(8, 8, 660), 1, 1});
    EXPECT_EQ(pool.modelChip(again), 0u);
    // A different kind under the key is a different model.
    EXPECT_THROW((void)pool.place(9, cnn::TinyCnn(5)),
                 std::runtime_error);
}

TEST(ChipPool, TryPlaceReportsExhaustionAndMigratesSharedKeys)
{
    // One tile per chip: each 8x8 placement fills a chip.
    ChipPool pool(poolConfig(2, 1, PlacementPolicy::MatrixAffinity));
    const MatrixI m = randomMatrix(8, 8, 670);
    const ModelRef shared = pool.place(5, MatrixModel{m, 1, 1});
    const std::size_t src = pool.modelChip(shared);

    // Naming an avoided chip is the migration move: a fresh
    // placement elsewhere, past the affinity table, that re-binds
    // the key.
    const ModelRef moved = pool.tryPlace(5, MatrixModel{m, 1, 1}, src);
    ASSERT_NE(moved, kNoModel);
    EXPECT_NE(moved, shared);
    EXPECT_NE(pool.modelChip(moved), src);
    EXPECT_EQ(pool.place(5, MatrixModel{m, 1, 1}), moved);

    // Both chips are full: tryPlace reports it, place is fatal.
    const MatrixI other = randomMatrix(8, 8, 671);
    EXPECT_EQ(pool.tryPlace(0, MatrixModel{other, 1, 1}), kNoModel);
    EXPECT_THROW((void)pool.place(0, MatrixModel{other, 1, 1}),
                 std::runtime_error);
}

TEST(ChipPool, SubmitRoutesToOwningChip)
{
    ChipPool pool(poolConfig(2, 2, PlacementPolicy::LeastLoaded));
    const MatrixI m_a = randomMatrix(8, 8, 650);
    const MatrixI m_b = randomMatrix(8, 8, 651);
    const ModelRef a = pool.place(0, MatrixModel{m_a, 1, 1});
    const ModelRef b = pool.place(0, MatrixModel{m_b, 1, 1});
    ASSERT_NE(pool.modelChip(a), pool.modelChip(b));

    const std::vector<i64> x(8, 1);
    const auto future = pool.submit(a, x, 1);
    EXPECT_EQ(pool.runtime(pool.modelChip(a)).scheduler().pendingCount(),
              1u);
    EXPECT_EQ(pool.runtime(pool.modelChip(b)).scheduler().pendingCount(),
              0u);
    const auto result = pool.wait(a, future);
    EXPECT_EQ(result.values, reference(m_a, x));
    // Only the owning chip's clock advanced.
    EXPECT_GT(pool.runtime(pool.modelChip(a)).scheduler().makespan(),
              0u);
    EXPECT_EQ(pool.runtime(pool.modelChip(b)).scheduler().makespan(),
              0u);
    const std::size_t chip_a = pool.modelChip(a);
    EXPECT_EQ(pool.wallNs(chip_a,
                          pool.runtime(chip_a).scheduler().makespan()),
              result.done);
}

TEST(ChipPool, ZeroChipsIsFatal)
{
    PoolConfig cfg = poolConfig(1, 1, PlacementPolicy::LeastLoaded);
    cfg.numChips = 0;
    EXPECT_THROW(ChipPool pool(cfg), std::runtime_error);
}

/** Chip large enough for TinyCnn inference models. */
PoolConfig
inferencePoolConfig(std::size_t chips,
                    PlacementPolicy placement,
                    std::size_t hcts_per_chip = 3)
{
    PoolConfig cfg;
    cfg.chip.hct.dce.numPipelines = 2;
    cfg.chip.hct.dce.pipeline.depth = 32;
    cfg.chip.hct.dce.pipeline.width = 32;
    cfg.chip.hct.dce.pipeline.numRegs = 8;
    cfg.chip.hct.ace.numArrays = 16;
    cfg.chip.hct.ace.arrayRows = 64;
    cfg.chip.hct.ace.arrayCols = 32;
    cfg.chip.numHcts = hcts_per_chip;
    cfg.numChips = chips;
    cfg.placement = placement;
    return cfg;
}

TEST(ChipPool, InferenceModelRunsWholeForward)
{
    ChipPool pool(
        inferencePoolConfig(1, PlacementPolicy::LeastLoaded));
    cnn::TinyCnn net(5);
    const ModelRef model = pool.place(0, cnn::TinyCnn(5));
    EXPECT_TRUE(pool.isInference(model));
    EXPECT_EQ(net.inputSize(), TrafficGen::inputRows(WorkloadKind::CnnInfer));

    const std::vector<i64> input(net.inputSize(), 3);
    auto inference = pool.beginInference(model, input);
    const runtime::GraphStats stats = inference->run->runToCompletion(0);
    EXPECT_EQ(inference->run->output(),
              net.infer(net.inputFromFlat(input)));
    EXPECT_EQ(stats.mvmCount, 81u);
    EXPECT_GT(stats.done, stats.start);
}

TEST(ChipPool, InferenceAffinitySharesNetworks)
{
    // Two tenants with one model key share the whole network's
    // placements (and therefore its pipelined tiles); a third key
    // places a fresh copy.
    ChipPool pool(inferencePoolConfig(
        2, PlacementPolicy::MatrixAffinity));
    const ModelRef a = pool.place(77, cnn::TinyCnn(5));
    const ModelRef b = pool.place(77, cnn::TinyCnn(5));
    EXPECT_EQ(a, b);
    const ModelRef c = pool.place(78, cnn::TinyCnn(6));
    EXPECT_NE(a, c);
    // A reused key with different weights is a configuration error.
    EXPECT_THROW((void)pool.place(77, cnn::TinyCnn(9)),
                 std::runtime_error);
}

TEST(ChipPool, SingleMvmCallsOnInferenceModelsAreFatal)
{
    ChipPool pool(
        inferencePoolConfig(1, PlacementPolicy::LeastLoaded));
    const ModelRef model = pool.place(0, cnn::TinyCnn(5));
    EXPECT_THROW((void)pool.submit(model, std::vector<i64>(64, 0), 8),
                 std::runtime_error);
}

// ---------------------------------------------------------------------------
// Heterogeneous pools.
// ---------------------------------------------------------------------------

/** One SAR slot and one ramp slot at the iso-area design points. */
PoolConfig
mixedPoolConfig(PlacementPolicy policy, std::size_t sar_hcts = 2)
{
    PoolConfig cfg;
    cfg.chips = {heteroChipSpec(analog::AdcKind::Sar, sar_hcts),
                 heteroChipSpec(analog::AdcKind::Ramp, sar_hcts)};
    cfg.placement = policy;
    return cfg;
}

TEST(ChipPool, IsoAreaRampChipCarriesFewerTiles)
{
    // The ramp ADC is bigger (Table 3), so the same slot area packs
    // fewer ramp tiles — the scaled version of the full die's
    // SAR-vs-ramp iso-area tile counts.
    EXPECT_EQ(model::isoAreaScaledHcts(analog::AdcKind::Sar, 8), 8u);
    EXPECT_LT(model::isoAreaScaledHcts(analog::AdcKind::Ramp, 8), 8u);
    EXPECT_GE(model::isoAreaScaledHcts(analog::AdcKind::Ramp, 1), 1u);

    const ChipSpec sar = heteroChipSpec(analog::AdcKind::Sar, 8);
    const ChipSpec ramp = heteroChipSpec(analog::AdcKind::Ramp, 8);
    EXPECT_EQ(sar.chip.numHcts, 8u);
    EXPECT_LT(ramp.chip.numHcts, sar.chip.numHcts);
    EXPECT_EQ(sar.adcKind(), analog::AdcKind::Sar);
    EXPECT_EQ(ramp.adcKind(), analog::AdcKind::Ramp);
    // Full-die modeled counts ride along for throughput scaling.
    EXPECT_GT(sar.chip.modeledHcts, ramp.chip.modeledHcts);

    ChipPool pool(mixedPoolConfig(PlacementPolicy::CostAware, 8));
    EXPECT_NE(pool.spec(0).name, pool.spec(1).name);
    EXPECT_EQ(pool.spec(0).name, "sar");
    EXPECT_EQ(pool.spec(1).name, "ramp");
    EXPECT_EQ(pool.chip(0).numHcts(), 8u);
    EXPECT_EQ(pool.chip(1).numHcts(), ramp.chip.numHcts);
}

TEST(ChipPool, CostAwarePrefersCheaperChipPerShape)
{
    ChipPool pool(mixedPoolConfig(PlacementPolicy::CostAware, 4));
    TrafficGen gen(11);

    // Wide 1-bit GF(2) bank: one ramp sweep (range-terminated)
    // converts all 256 columns while the two SAR converters
    // multiplex them — ramp is the cheaper chip, and the policy
    // must pick it even though the SAR chip is less loaded.
    const MatrixModel wide_shape{MatrixI(32, 256), 1, 1, 1};
    const double wide_sar = pool.placementScore(0, wide_shape);
    const double wide_ramp = pool.placementScore(1, wide_shape);
    ASSERT_LT(wide_ramp, wide_sar);
    const ModelRef wide = pool.place(
        0, MatrixModel{gen.weights(WorkloadKind::GfWide, 1), 1, 1, 1});
    EXPECT_EQ(pool.modelChip(wide), 1u);

    // Narrow 8-bit CNN layer: 16 columns convert in 8 SAR cycles
    // but cost a near-full reference sweep per partial product on
    // the ramp chip — SAR must win.
    const MatrixModel cnn_shape{MatrixI(72, 16), 8, 2, 4};
    const double cnn_sar = pool.placementScore(0, cnn_shape);
    const double cnn_ramp = pool.placementScore(1, cnn_shape);
    ASSERT_LT(cnn_sar, cnn_ramp);
    const ModelRef narrow = pool.place(
        0, MatrixModel{gen.weights(WorkloadKind::Cnn, 1), 8, 2, 4});
    EXPECT_EQ(pool.modelChip(narrow), 0u);

    // The 32x32 AES MixColumns matrix and the 64x64 projection are
    // both SAR-favoring at these design points.
    const ModelRef aes = pool.place(
        0, MatrixModel{gen.weights(WorkloadKind::Aes, 1), 1, 1, 1});
    EXPECT_EQ(pool.modelChip(aes), 0u);
    const ModelRef llm = pool.place(
        0, MatrixModel{gen.weights(WorkloadKind::Llm, 1), 8, 2, 4});
    EXPECT_EQ(pool.modelChip(llm), 0u);
}

TEST(ChipPool, CostAwarePlacesInferenceNetworksOnTheirCheaperChip)
{
    // Inference networks are scored through the same quote placement
    // uses: the chip mapper's whole-network oracle cost. The ramp
    // slot carries more tiles, so least-loaded alone would pick it.
    PoolConfig cfg;
    cfg.chips = {heteroChipSpec(analog::AdcKind::Sar, 10),
                 heteroChipSpec(analog::AdcKind::Ramp, 16)};
    cfg.placement = PlacementPolicy::CostAware;
    ChipPool pool(cfg);
    ASSERT_LT(pool.runtime(0).freeHcts(), pool.runtime(1).freeHcts());
    TrafficGen gen(14);
    for (const bool cnn_net : {true, false}) {
        auto net = [&]() -> ServedModel {
            if (cnn_net)
                return gen.cnnInferNet(1);
            return gen.llmInferNet(2);
        };
        const double sar = pool.placementScore(0, net());
        const double ramp = pool.placementScore(1, net());
        EXPECT_GT(sar, 0.0);
        EXPECT_GT(ramp, 0.0);
        ASSERT_NE(sar, ramp);
        const ModelRef model = pool.place(0, net());
        EXPECT_TRUE(pool.isInference(model));
        EXPECT_EQ(pool.modelChip(model), sar < ramp ? 0u : 1u)
            << (cnn_net ? "TinyCnn" : "encoder");
    }
}

TEST(ChipPool, CostAwareTiesFallBackToLeastLoaded)
{
    // Two identical SAR slots: every score ties, so placement must
    // spread by the least-loaded order instead of piling on chip 0.
    PoolConfig cfg;
    cfg.chips = {heteroChipSpec(analog::AdcKind::Sar, 2),
                 heteroChipSpec(analog::AdcKind::Sar, 2)};
    cfg.placement = PlacementPolicy::CostAware;
    ChipPool pool(cfg);
    EXPECT_EQ(pool.spec(0).name, pool.spec(1).name);
    TrafficGen gen(12);
    const ModelRef a = pool.place(
        0, MatrixModel{gen.weights(WorkloadKind::Micro, 1), 1, 1, 1});
    const ModelRef b = pool.place(
        0, MatrixModel{gen.weights(WorkloadKind::Micro, 2), 1, 1, 1});
    EXPECT_EQ(pool.modelChip(a), 0u);
    EXPECT_EQ(pool.modelChip(b), 1u);
}

TEST(ChipPool, CostAwareHonoursAffinitySharing)
{
    ChipPool pool(mixedPoolConfig(PlacementPolicy::CostAware));
    TrafficGen gen(13);
    const MatrixI m = gen.weights(WorkloadKind::GfWide, 7);
    const ModelRef first = pool.place(7, MatrixModel{m, 1, 1, 1});
    const std::size_t free_after =
        pool.runtime(pool.modelChip(first)).freeHcts();
    // Same key: shared placement, no new tiles, same chip.
    const ModelRef second = pool.place(7, MatrixModel{m, 1, 1, 1});
    EXPECT_EQ(first, second);
    EXPECT_EQ(pool.runtime(pool.modelChip(first)).freeHcts(), free_after);
    // A reused key with different weights is fatal, as under
    // MatrixAffinity.
    EXPECT_THROW(
        (void)pool.place(
            7, MatrixModel{gen.weights(WorkloadKind::GfWide, 8), 1, 1, 1}),
        std::runtime_error);
}

TEST(ChipPool, StagedInferenceChargesSumToNominal)
{
    // Per-stage WFQ charges are the run's per-step oracle costs
    // normalized so a stage-granular request is charged exactly what
    // whole-inference admission would charge in total.
    ChipPool pool(inferencePoolConfig(1, PlacementPolicy::LeastLoaded,
                                      /*hcts_per_chip=*/9));
    TrafficGen gen(31);
    const ModelRef cnn_model =
        pool.place(0, gen.cnnInferNet(1));
    const ModelRef llm_model =
        pool.place(0, gen.llmInferNet(2));

    const std::vector<i64> cnn_input(
        TrafficGen::inputRows(WorkloadKind::CnnInfer), 1);
    auto cnn_run = pool.beginInference(cnn_model, cnn_input, 0);
    EXPECT_EQ(cnn_run->stageCount(), 3u);   // conv1, conv2, fc
    u64 total = 0;
    for (const u64 charge : cnn_run->stageCharges) {
        EXPECT_GT(charge, 0u);
        total += charge;
    }
    EXPECT_EQ(total, pool.nominalServicePs(cnn_model, 8));
    // At the default 1 GHz the picosecond charges are the cycle
    // nominal scaled by the 1000 ps period, exactly.
    EXPECT_EQ(total, 1000 * pool.nominalServiceCycles(cnn_model, 8));

    const std::vector<i64> llm_input(
        TrafficGen::inputRows(WorkloadKind::LlmInfer), 1);
    auto llm_run = pool.beginInference(llm_model, llm_input, 0);
    EXPECT_EQ(llm_run->stageCount(), 4u);   // qkv, attn-wo, ffn1/2
    total = 0;
    for (const u64 charge : llm_run->stageCharges) {
        EXPECT_GT(charge, 0u);
        total += charge;
    }
    EXPECT_EQ(total, pool.nominalServicePs(llm_model, 12));

    // beginInference submits nothing: the chip scheduler is idle
    // until the run is advanced.
    EXPECT_EQ(pool.runtime(0).scheduler().pendingCount(), 0u);
    EXPECT_EQ(cnn_run->run->submittedSteps(), 0u);

    // Driving the run to completion yields the reference outputs.
    (void)cnn_run->run->runToCompletion(0);
    const cnn::TinyCnn ref = gen.cnnInferNet(1);
    EXPECT_EQ(cnn_run->run->output(),
              ref.infer(ref.inputFromFlat(cnn_input)));
}

TEST(ChipPool, CostAwareBacklogPrefersSlowerIdleChip)
{
    // Chip 0 is twice as fast (2 GHz) on identical silicon, so an
    // empty pool places everything there; once its scheduler sits on
    // enough backlog, the slower-but-idle chip 1 must win.
    PoolConfig cfg;
    cfg.chips = {
        heteroChipSpec(analog::AdcKind::Sar, 2, /*clock_ghz=*/2.0),
        heteroChipSpec(analog::AdcKind::Sar, 2, /*clock_ghz=*/1.0)};
    cfg.placement = PlacementPolicy::CostAware;
    cfg.backlogWindowNs = 200;
    ChipPool pool(cfg);
    TrafficGen gen(32);

    // Idle: the fast chip is strictly cheaper for the same shape.
    const MatrixModel shape{MatrixI(8, 8), 1, 1, 1};
    EXPECT_LT(pool.placementScore(0, shape),
              pool.placementScore(1, shape));
    const ModelRef warm = pool.place(
        0, MatrixModel{gen.weights(WorkloadKind::Micro, 1), 1, 1, 1});
    EXPECT_EQ(pool.modelChip(warm), 0u);

    // Pile unexecuted work onto the fast chip's scheduler.
    EXPECT_EQ(pool.backlogCycles(0), 0u);
    for (int i = 0; i < 8; ++i)
        (void)pool.submit(warm, std::vector<i64>(8, 1), 1);
    ASSERT_GT(pool.backlogCycles(0), 2 * cfg.backlogWindowNs);
    EXPECT_EQ(pool.backlogCycles(1), 0u);

    // score0 = (cost/2)(1 + backlog/window) now exceeds score1 =
    // cost: queue pressure outweighs the clock advantage.
    EXPECT_GT(pool.placementScore(0, shape),
              pool.placementScore(1, shape));
    const ModelRef placed = pool.place(
        0, MatrixModel{gen.weights(WorkloadKind::Micro, 2), 1, 1, 1});
    EXPECT_EQ(pool.modelChip(placed), 1u);
}

TEST(ChipPool, CostAwareBacklogMakesAssignmentOrderInsensitive)
{
    // Two identical chips, backlog on chip 0 only. Score-ties under
    // the old cost-only rule broke by least-loaded state, which
    // placements mutate — so which tenant landed where depended on
    // arrival order. With the backlog term the scores are strict
    // and static during placement: either arrival order gives each
    // tenant the same chip.
    auto place_pair = [&](bool swapped) {
        PoolConfig cfg;
        cfg.chips = {heteroChipSpec(analog::AdcKind::Sar, 3),
                     heteroChipSpec(analog::AdcKind::Sar, 3)};
        cfg.placement = PlacementPolicy::CostAware;
        cfg.backlogWindowNs = 200;
        ChipPool pool(cfg);
        TrafficGen gen(33);
        const ModelRef warm = pool.place(
            0, MatrixModel{gen.weights(WorkloadKind::Micro, 1), 1, 1, 1});
        EXPECT_EQ(pool.modelChip(warm), 0u);
        for (int i = 0; i < 8; ++i)
            (void)pool.submit(warm, std::vector<i64>(8, 1), 1);

        const MatrixI a = gen.weights(WorkloadKind::Micro, 10);
        const MatrixI b = gen.weights(WorkloadKind::Micro, 11);
        ModelRef first =
            pool.place(0, MatrixModel{swapped ? b : a, 1, 1, 1});
        ModelRef second =
            pool.place(0, MatrixModel{swapped ? a : b, 1, 1, 1});
        if (swapped)
            std::swap(first, second);
        return std::make_pair(pool.modelChip(first),
                              pool.modelChip(second));
    };

    const auto forward = place_pair(false);
    const auto swapped = place_pair(true);
    EXPECT_EQ(forward, swapped);
    // Both avoided the backlogged chip.
    EXPECT_EQ(forward.first, 1u);
    EXPECT_EQ(forward.second, 1u);
}

TEST(ChipPool, MixedPoolOutputsBitIdenticalToHomogeneous)
{
    // One trace through a SAR-only pool and a mixed SAR+ramp pool:
    // the ADC kind (and chip assignment) may move every cycle stamp,
    // but never a single output value.
    std::vector<TenantSpec> specs(4);
    specs[0].name = "gf";
    specs[0].kind = WorkloadKind::GfWide;
    specs[0].ratePerKns = 4.0;
    specs[1].name = "aes";
    specs[1].kind = WorkloadKind::Aes;
    specs[1].ratePerKns = 4.0;
    specs[2].name = "cnn";
    specs[2].kind = WorkloadKind::Cnn;
    specs[2].ratePerKns = 1.0;
    specs[3].name = "llm";
    specs[3].kind = WorkloadKind::Llm;
    specs[3].ratePerKns = 1.0;

    auto run = [&](bool mixed) {
        TrafficGen gen(909);
        PoolConfig cfg;
        cfg.chips = {
            heteroChipSpec(analog::AdcKind::Sar, 4),
            heteroChipSpec(mixed ? analog::AdcKind::Ramp
                                 : analog::AdcKind::Sar,
                           4)};
        cfg.placement = PlacementPolicy::CostAware;
        ChipPool pool(cfg);
        AdmissionConfig acfg;
        acfg.queueDepth = 2;
        acfg.overflow = OverflowPolicy::Block;
        AdmissionController ac(pool, gen, specs, acfg);
        return ac.run(gen.trace(specs, 8000));
    };

    const ServeReport homog = run(false);
    const ServeReport mixed = run(true);
    ASSERT_GT(homog.completed, 0u);
    EXPECT_EQ(homog.completed, mixed.completed);
    EXPECT_EQ(homog.outputChecksum, mixed.outputChecksum);
}

} // namespace
} // namespace serve
} // namespace darth
