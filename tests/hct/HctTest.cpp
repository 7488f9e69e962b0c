/**
 * @file
 * Integration tests for the hybrid compute tile: end-to-end MVM
 * exactness through ACE + shift units + DCE reduction, the Figure 10
 * shift-unit optimization, IIU ablation, and vACore management.
 */

#include <gtest/gtest.h>

#include "common/Random.h"
#include "hct/Hct.h"

namespace darth
{
namespace hct
{
namespace
{

HctConfig
smallHct()
{
    HctConfig cfg;
    cfg.dce.numPipelines = 4;
    cfg.dce.pipeline.depth = 32;
    cfg.dce.pipeline.width = 8;
    cfg.dce.pipeline.numRegs = 8;
    cfg.ace.numArrays = 16;
    cfg.ace.arrayRows = 16;
    cfg.ace.arrayCols = 8;
    return cfg;
}

MatrixI
randomMatrix(std::size_t rows, std::size_t cols, i64 lo, i64 hi,
             u64 seed)
{
    Rng rng(seed);
    MatrixI m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            m(r, c) = rng.uniformInt(lo, hi);
    return m;
}

std::vector<i64>
randomVector(std::size_t n, i64 lo, i64 hi, u64 seed)
{
    Rng rng(seed);
    std::vector<i64> x(n);
    for (auto &v : x)
        v = rng.uniformInt(lo, hi);
    return x;
}

TEST(Hct, PaperDefaultMatchesTable2)
{
    const HctConfig cfg = HctConfig::paperDefault(analog::AdcKind::Sar);
    EXPECT_EQ(cfg.dce.numPipelines, 64u);
    EXPECT_EQ(cfg.dce.pipeline.depth, 64u);
    EXPECT_EQ(cfg.ace.numArrays, 64u);
    EXPECT_EQ(cfg.ace.numAdcs, 8u);
    const HctConfig ramp =
        HctConfig::paperDefault(analog::AdcKind::Ramp);
    EXPECT_EQ(ramp.ace.numAdcs, 1u);
}

TEST(Hct, MvmExactBinaryMatrix)
{
    Hct hct(smallHct());
    const MatrixI m = randomMatrix(8, 8, 0, 1, 61);
    hct.setMatrix(m, 1, 1);
    const auto x = randomVector(8, 0, 1, 62);
    const auto result = hct.execMvm(x, 1, 0);
    EXPECT_EQ(result.values, hct.ace().referenceMvm(x));
    EXPECT_GT(result.done, 0u);
}

TEST(Hct, MvmExactSignedMultiBit)
{
    Hct hct(smallHct());
    const MatrixI m = randomMatrix(8, 8, -7, 7, 63);
    hct.setMatrix(m, 3, 1);
    const auto x = randomVector(8, -8, 7, 64);
    const auto result = hct.execMvm(x, 4, 0);
    EXPECT_EQ(result.values, hct.ace().referenceMvm(x));
}

TEST(Hct, MvmExactWithTiling)
{
    Hct hct(smallHct());
    // 16 rows (2 row tiles) x 16 cols (2 col tiles, 2 reduction
    // pipelines), 4-bit elements at 2 bits per cell (2 slices).
    const MatrixI m = randomMatrix(16, 16, -15, 15, 65);
    hct.setMatrix(m, 4, 2);
    const auto x = randomVector(16, -4, 3, 66);
    const auto result = hct.execMvm(x, 3, 0);
    EXPECT_EQ(result.values, hct.ace().referenceMvm(x));
}

TEST(Hct, MvmExactNegativeResults)
{
    Hct hct(smallHct());
    MatrixI m(4, 4, -1);
    hct.setMatrix(m, 1, 1);
    std::vector<i64> x = {3, 3, 3, 3};
    const auto result = hct.execMvm(x, 3, 0);
    EXPECT_EQ(result.values, (std::vector<i64>{-12, -12, -12, -12}));
}

TEST(Hct, ShiftUnitsImproveLatency)
{
    // Figure 10: shifting during the transfer removes the
    // write/shift serialization.
    const MatrixI m = randomMatrix(8, 8, -7, 7, 67);
    const auto x = randomVector(8, 0, 15, 68);

    HctConfig with = smallHct();
    Hct fast(with);
    fast.setMatrix(m, 3, 1);
    const auto fast_result = fast.execMvm(x, 4, 0);

    HctConfig without = smallHct();
    without.shiftUnits = false;
    Hct slow(without);
    slow.setMatrix(m, 3, 1);
    const auto slow_result = slow.execMvm(x, 4, 0);

    EXPECT_EQ(fast_result.values, slow_result.values);   // same maths
    EXPECT_LT(fast_result.done, slow_result.done);       // faster
}

TEST(Hct, IiuRemovesFrontEndStalls)
{
    const MatrixI m = randomMatrix(8, 8, -7, 7, 69);
    const auto x = randomVector(8, 0, 15, 70);

    HctConfig with = smallHct();
    Hct fast(with);
    fast.setMatrix(m, 3, 1);
    const auto fast_result = fast.execMvm(x, 4, 0);
    EXPECT_GT(fast.iiu().injectedUops(), 0u);

    HctConfig without = smallHct();
    without.iiu.enabled = false;
    Hct slow(without);
    slow.setMatrix(m, 3, 1);
    const auto slow_result = slow.execMvm(x, 4, 0);

    EXPECT_EQ(fast_result.values, slow_result.values);
    EXPECT_LT(fast_result.done, slow_result.done);
}

TEST(Hct, TransposeUnitAblation)
{
    const MatrixI m = randomMatrix(8, 8, -1, 1, 71);
    const auto x = randomVector(8, 0, 1, 72);

    HctConfig with = smallHct();
    Hct fast(with);
    fast.setMatrix(m, 1, 1);
    const auto fast_result = fast.execMvm(x, 1, 0);

    HctConfig without = smallHct();
    without.transpose.enabled = false;
    Hct slow(without);
    slow.setMatrix(m, 1, 1);
    const auto slow_result = slow.execMvm(x, 1, 0);

    EXPECT_EQ(fast_result.values, slow_result.values);
    EXPECT_LT(fast_result.done, slow_result.done);
}

TEST(Hct, ArbiterMakesMvmAtomic)
{
    Hct hct(smallHct());
    hct.setMatrix(randomMatrix(8, 8, -1, 1, 73), 1, 1);
    const auto result = hct.execMvm(randomVector(8, 0, 1, 74), 1, 0);
    // A digital macro issued at cycle 0 must start after the MVM.
    const Cycle digital_done = hct.digitalMacro(
        3, digital::MacroKind::Xor, 2, 0, 1, 8, 0);
    EXPECT_GT(digital_done, result.done);
}

TEST(Hct, DigitalMacroThroughArbiter)
{
    Hct hct(smallHct());
    digital::Pipeline &pipe = hct.dce().pipeline(0);
    for (std::size_t e = 0; e < 8; ++e) {
        pipe.setElement(2, e, 10 * (e + 1));
        pipe.setElement(3, e, e + 1);
    }
    hct.digitalMacro(0, digital::MacroKind::Add, 4, 2, 3, 16, 0);
    for (std::size_t e = 0; e < 8; ++e)
        EXPECT_EQ(pipe.element(4, e, 16), 11 * (e + 1));
}

TEST(Hct, DisableAnalogModeBlocksMvm)
{
    Hct hct(smallHct());
    hct.setMatrix(randomMatrix(8, 8, -1, 1, 75), 1, 1);
    const Cycle done = hct.disableAnalogMode(0);
    EXPECT_GT(done, 0u);
    EXPECT_FALSE(hct.analogEnabled());
    EXPECT_THROW((void)hct.execMvm(randomVector(8, 0, 1, 76), 1, 0),
                 std::runtime_error);
}

TEST(Hct, AccumulatorWidthCoversWorstCase)
{
    Hct hct(smallHct());
    hct.setMatrix(randomMatrix(16, 8, -15, 15, 79), 4, 2);
    // 4-bit elements, 4-bit inputs, 16 rows -> needs >= 4+4+4+1 bits.
    EXPECT_GE(hct.accumulatorBits(4), 13);
    EXPECT_LE(hct.accumulatorBits(4), 32);
}

TEST(Hct, MvmCountIncrements)
{
    Hct hct(smallHct());
    hct.setMatrix(randomMatrix(8, 8, 0, 1, 80), 1, 1);
    EXPECT_EQ(hct.mvmCount(), 0u);
    hct.execMvm(randomVector(8, 0, 1, 81), 1, 0);
    hct.execMvm(randomVector(8, 0, 1, 82), 1, 0);
    EXPECT_EQ(hct.mvmCount(), 2u);
}

TEST(Hct, CostTallyCoversAllComponents)
{
    CostTally tally;
    Hct hct(smallHct(), &tally);
    hct.setMatrix(randomMatrix(8, 8, -7, 7, 83), 3, 1);
    hct.execMvm(randomVector(8, 0, 15, 84), 4, 0);
    EXPECT_GT(tally.get("ace.program").energy, 0.0);
    EXPECT_GT(tally.get("ace.adc").energy, 0.0);
    EXPECT_GT(tally.get("ace.dac").energy, 0.0);
    EXPECT_GT(tally.get("dce.boolop").energy, 0.0);
    EXPECT_GT(tally.get("hct.network").energy, 0.0);
}

TEST(HctDeath, MvmWithoutVACoreIsFatal)
{
    Hct hct(smallHct());
    EXPECT_THROW((void)hct.execMvm({1}, 1, 0), std::runtime_error);
}

/** Property sweep: hybrid MVM equals the integer reference. */
class HctMvmProperty : public ::testing::TestWithParam<u64>
{
};

TEST_P(HctMvmProperty, MatchesReference)
{
    const u64 seed = GetParam();
    Hct hct(smallHct());
    const MatrixI m = randomMatrix(8, 8, -3, 3, seed);
    hct.setMatrix(m, 2, 2);
    const auto x = randomVector(8, -4, 3, seed + 1000);
    const auto result = hct.execMvm(x, 3, 0);
    EXPECT_EQ(result.values, hct.ace().referenceMvm(x));
}

INSTANTIATE_TEST_SUITE_P(Sweep, HctMvmProperty,
                         ::testing::Range(u64{100}, u64{120}));

} // namespace
} // namespace hct
} // namespace darth
