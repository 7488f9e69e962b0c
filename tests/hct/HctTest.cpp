/**
 * @file
 * Integration tests for the hybrid compute tile: end-to-end MVM
 * exactness through ACE + shift units + DCE reduction, the Figure 10
 * shift-unit optimization, IIU ablation, and vACore management.
 */

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "common/Random.h"
#include "digital/KernelCache.h"
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

TEST(Hct, RejectedMatrixLeavesTheTileAsItWas)
{
    // A matrix the ACE cannot hold (too many arrays) or the DCE cannot
    // reduce (too many pipelines) leaves the old matrix, vACore and
    // plans in place: an MVM after the rejection is still exact.
    Hct hct(smallHct());
    const MatrixI m = randomMatrix(8, 8, -31, 31, 91);
    hct.setMatrix(m, 5, 1);
    const std::vector<i64> x = randomVector(8, 0, 255, 92);
    ASSERT_EQ(hct.execMvm(x, 8, 0).values, hct.ace().referenceMvm(x));
    EXPECT_THROW(hct.setMatrix(MatrixI(64, 8, 1), 8, 1), std::runtime_error);
    EXPECT_THROW(hct.setMatrix(MatrixI(8, 40, 1), 1, 1), std::runtime_error);
    EXPECT_EQ(hct.vacore().elementBits, 5);
    EXPECT_EQ(hct.ace().matrix(), m);
    EXPECT_EQ(hct.execMvm(x, 8, 0).values, hct.ace().referenceMvm(x));
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

TEST(Hct, MvmNeedingAWiderAccumulatorThanTheDceIsRejected)
{
    // 64 rows of 7-bit elements times 8-bit inputs need 7 + 8 + 6 + 1
    // = 22 accumulator bits; a depth-16 DCE would wrap the result.
    HctConfig cfg = smallHct();
    cfg.dce.pipeline.depth = 16;
    cfg.ace.arrayRows = 128;
    Hct hct(cfg);
    hct.setMatrix(MatrixI(64, 8, 127), 7, 2);
    EXPECT_THROW((void)hct.execMvm(std::vector<i64>(64, 127), 8, 0),
                 std::invalid_argument);
    EXPECT_EQ(hct.mvmCount(), 0u);
    // At the boundary: 2-bit inputs need exactly the 16 bits there
    // are and run exactly; 3-bit inputs need one more.
    EXPECT_EQ(hct.execMvm(std::vector<i64>(64, 1), 2, 0).values,
              std::vector<i64>(8, 64 * 127));
    EXPECT_THROW((void)hct.execMvm(std::vector<i64>(64, 1), 3, 0),
                 std::invalid_argument);
}

/** Result of the per-partial-product reference walk below. */
struct WalkResult
{
    std::vector<i64> values;
    Cycle done = 0;
};

/**
 * The shift-unit reduction as it ran one partial product at a time,
 * built from `twin`'s public parts: the ACE's partial-product stream,
 * one ADD/SUB execMacro per partial product and pipeline (its stage
 * reservations and op counts), the network charge of every transfer
 * and the IIU count of every macro, in stream-major, pipeline-minor
 * order.
 */
WalkResult
walkReference(Hct &twin, CostTally &tally, const std::vector<i64> &x,
              int input_bits, Cycle start)
{
    const HctConfig &cfg = twin.config();
    const Cycle analog_start = twin.arbiter().acquire(Mode::Analog, start);
    const auto stream = twin.ace().execMvm(x, input_bits, analog_start);
    const std::size_t cols = twin.ace().matrix().cols();
    const std::size_t width = cfg.dce.pipeline.width;
    const std::size_t pipes = (cols + width - 1) / width;
    const int acc_bits = twin.accumulatorBits(input_bits);
    const u64 mask = (u64{1} << acc_bits) - 1;
    const u64 uops =
        static_cast<u64>(digital::KernelCache::instance()
                             .macro(digital::MacroKind::Add,
                                    cfg.dce.pipeline.family)
                             .program.opCount()) *
        static_cast<u64>(acc_bits);
    const u64 adc_bytes = (static_cast<u64>(cfg.ace.adc.bits) + 7) / 8;
    CostEntry &network = tally.entry("hct.network");

    WalkResult out;
    out.done = analog_start + twin.iiu().sequenceSetup();
    std::vector<Cycle> port_free(pipes, out.done);
    std::vector<u64> acc(cols, 0);
    for (const auto &pp : stream) {
        for (std::size_t p = 0; p < pipes; ++p) {
            const std::size_t n = std::min(width, cols - p * width);
            const Cycle write_begin = std::max(port_free[p], pp.convStart);
            Cycle write_done = std::max(pp.readyAt, write_begin + n);
            if (!cfg.transpose.enabled)
                write_done += twin.transposer().transposeCost(
                    1, n, static_cast<std::size_t>(acc_bits));
            port_free[p] = write_done;
            network.events += 1;
            network.cycles += n;
            network.energy += static_cast<double>(n * adc_bytes) *
                              cfg.networkEnergyPerBytePJ;
            const Cycle issue =
                write_done + twin.iiu().issueOverhead(uops);
            twin.iiu().recordInjected(cfg.iiu.enabled ? uops : 0);
            out.done = std::max(
                out.done,
                twin.dce().pipeline(p).execMacro(
                    pp.negate ? digital::MacroKind::Sub
                              : digital::MacroKind::Add,
                    0, 0, 1, static_cast<std::size_t>(acc_bits), issue));
        }
        for (std::size_t c = 0; c < cols; ++c) {
            const u64 staged =
                static_cast<u64>(pp.values[c] << pp.shift) & mask;
            acc[c] = (pp.negate ? acc[c] - staged : acc[c] + staged) &
                     mask;
        }
    }
    twin.arbiter().release(out.done);
    for (u64 word : acc) {
        i64 value = static_cast<i64>(word);
        if ((word >> (acc_bits - 1)) & 1)
            value -= i64{1} << acc_bits;
        out.values.push_back(value);
    }
    return out;
}

::testing::AssertionResult
sameTally(const CostTally &got, const CostTally &want)
{
    if (got.entries().size() != want.entries().size())
        return ::testing::AssertionFailure()
               << got.entries().size() << " tally entries != "
               << want.entries().size();
    for (const auto &[name, w] : want.entries()) {
        const CostEntry g = got.get(name);
        if (g.events != w.events || g.cycles != w.cycles ||
            g.energy != w.energy)
            return ::testing::AssertionFailure()
                   << "tally entry " << name << " differs: events "
                   << g.events << "/" << w.events << " cycles "
                   << g.cycles << "/" << w.cycles << " energy "
                   << g.energy << "/" << w.energy;
    }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
sameDce(Hct &got, Hct &want)
{
    for (std::size_t p = 0; p < got.dce().numPipelines(); ++p) {
        const digital::Pipeline &g = got.dce().pipeline(p);
        const digital::Pipeline &w = want.dce().pipeline(p);
        if (g.opCount() != w.opCount() || g.drainTime() != w.drainTime())
            return ::testing::AssertionFailure()
                   << "pipeline " << p << " ops " << g.opCount() << "/"
                   << w.opCount() << " drain " << g.drainTime() << "/"
                   << w.drainTime();
        for (std::size_t i = 0; i < g.config().depth; ++i)
            if (g.stageFreeAt(i) != w.stageFreeAt(i))
                return ::testing::AssertionFailure()
                       << "pipeline " << p << " stage " << i << " "
                       << g.stageFreeAt(i) << "/" << w.stageFreeAt(i);
    }
    if (got.iiu().injectedUops() != want.iiu().injectedUops())
        return ::testing::AssertionFailure()
               << "IIU " << got.iiu().injectedUops() << "/"
               << want.iiu().injectedUops();
    return ::testing::AssertionSuccess();
}

TEST(HctReduction, MatchesThePerPartialProductWalk)
{
    // 21 x 19 spans 3 row tiles, 3 column tiles and 3 pipelines (cols >
    // width 8); a 5-bit ADC splits the 8-row tiles into 1, 2, 4 and 8
    // row groups at 1 to 4 bits per cell. 8 x 8 is one tile and one
    // pipe, with one slice per element, so at 1 bit per cell and 2
    // input bits every run of equal macros is a single conversion.
    const std::pair<std::size_t, std::size_t> shapes[] = {{21, 19},
                                                          {8, 8}};
    int cases = 0;
    for (int kind = 0; kind < 3; ++kind) {
        for (int bpc = 1; bpc <= 4; ++bpc) {
            for (int units = 0; units < 4; ++units) {
                HctConfig cfg = smallHct();
                cfg.ace.numArrays = 64;
                cfg.ace.adc.bits = 5;
                if (kind > 0) {
                    cfg.ace.adc.kind = analog::AdcKind::Ramp;
                    cfg.ace.numAdcs = 1;
                    cfg.ace.rampAutoTerminate = kind == 2;
                }
                cfg.iiu.enabled = (units & 1) != 0;
                cfg.transpose.enabled = (units & 2) != 0;
                for (const auto &[rows, cols] : shapes) {
                    const int element_bits = rows == 8 ? bpc : 5;
                    const i64 wmax = (i64{1} << element_bits) - 1;
                    const MatrixI m = randomMatrix(
                        rows, cols, -wmax, wmax,
                        static_cast<u64>(100 * bpc + 10 * units + kind));
                    for (bool is_signed : {false, true}) {
                        for (int input_bits : {1, 2, 4, 8}) {
                            const i64 lo =
                                is_signed ? -(i64{1} << (input_bits - 1))
                                          : 0;
                            const i64 hi =
                                is_signed
                                    ? (i64{1} << (input_bits - 1)) - 1
                                    : (i64{1} << input_bits) - 1;
                            const std::string where =
                                "kind " + std::to_string(kind) + " bpc " +
                                std::to_string(bpc) + " units " +
                                std::to_string(units) + " shape " +
                                std::to_string(rows) + "x" +
                                std::to_string(cols) + " signed " +
                                std::to_string(is_signed) + " input " +
                                std::to_string(input_bits);
                            CostTally tally;
                            CostTally twin_tally;
                            Hct hct(cfg, &tally);
                            Hct twin(cfg, &twin_tally);
                            hct.setMatrix(m, element_bits, bpc);
                            twin.setMatrix(m, element_bits, bpc);
                            Rng rng(static_cast<u64>(cases) + 1);
                            // From an idle DCE, then from one the
                            // first MVM left busy: the arbiter is
                            // rebased to mid-reduction, as the
                            // scheduler does for pipelined issue.
                            for (int round = 0; round < 2; ++round) {
                                std::vector<i64> x(rows);
                                for (auto &v : x)
                                    v = rng.uniformInt(lo, hi);
                                const Cycle start = round == 0 ? 5 : 0;
                                const auto got =
                                    hct.execMvm(x, input_bits, start);
                                const auto want = walkReference(
                                    twin, twin_tally, x, input_bits,
                                    start);
                                ASSERT_EQ(got.values, want.values)
                                    << where << " round " << round;
                                ASSERT_EQ(got.values,
                                          hct.ace().referenceMvm(x))
                                    << where << " round " << round;
                                ASSERT_EQ(got.done, want.done)
                                    << where << " round " << round;
                                ASSERT_TRUE(sameTally(tally, twin_tally))
                                    << where << " round " << round;
                                ASSERT_TRUE(sameDce(hct, twin))
                                    << where << " round " << round;
                                hct.arbiter().rebase(got.done / 2);
                                twin.arbiter().rebase(want.done / 2);
                            }
                            ++cases;
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(cases, 3 * 4 * 4 * 2 * 2 * 4);
}

TEST(HctReduction, WideOperandsSumExactly)
{
    // W·x runs in 16-bit operands and 32-bit sums only when elements
    // and inputs fit 15 bits and the worst case fits 32; everything
    // else takes 64-bit lanes. Both sides of each bound, exactly.
    struct Case
    {
        int elementBits;
        int inputBits;
        bool isSigned;
    };
    const Case cases[] = {{5, 15, false}, {5, 16, false}, {5, 16, true},
                          {15, 8, true},  {16, 8, true},  {20, 16, false},
                          {12, 14, false}, {12, 15, true}};
    HctConfig cfg = smallHct();
    cfg.dce.pipeline.depth = 64;
    cfg.ace.numArrays = 64;
    for (const Case &c : cases) {
        Hct hct(cfg);
        const i64 wmax = (i64{1} << c.elementBits) - 1;
        const MatrixI m = randomMatrix(21, 19, -wmax, wmax, 97);
        hct.setMatrix(m, c.elementBits, 4);
        const i64 lo = c.isSigned ? -(i64{1} << (c.inputBits - 1)) : 0;
        const i64 hi = c.isSigned ? (i64{1} << (c.inputBits - 1)) - 1
                                  : (i64{1} << c.inputBits) - 1;
        std::vector<i64> x = randomVector(21, lo, hi, 98);
        x[0] = hi;
        x[1] = c.isSigned ? lo : hi;
        EXPECT_EQ(hct.execMvm(x, c.inputBits, 0).values,
                  hct.ace().referenceMvm(x))
            << c.elementBits << "-bit elements, " << c.inputBits
            << "-bit inputs";
    }
}

TEST(HctReduction, CrossbarPathMatchesTheWalk)
{
    // Read noise sends the tile down the crossbar path: codes come
    // from Crossbar solves one conversion at a time, and ace.adc must
    // still be charged exactly once per conversion.
    HctConfig cfg = smallHct();
    cfg.ace.numArrays = 64;
    cfg.ace.adc.bits = 5;
    cfg.ace.noise.readSigma = 0.02;
    const MatrixI m = randomMatrix(21, 19, -31, 31, 71);
    for (bool is_signed : {false, true}) {
        CostTally tally;
        CostTally twin_tally;
        Hct hct(cfg, &tally);
        Hct twin(cfg, &twin_tally);
        hct.setMatrix(m, 5, 2);
        twin.setMatrix(m, 5, 2);
        Rng rng(is_signed ? 73 : 72);
        for (int round = 0; round < 3; ++round) {
            std::vector<i64> x(21);
            for (auto &v : x)
                v = is_signed ? rng.uniformInt(i64{-8}, i64{7})
                              : rng.uniformInt(i64{0}, i64{15});
            const Cycle start = round == 0 ? 5 : 0;
            const auto got = hct.execMvm(x, 4, start);
            const auto want = walkReference(twin, twin_tally, x, 4, start);
            ASSERT_EQ(got.values, want.values)
                << "signed " << is_signed << " round " << round;
            ASSERT_EQ(got.done, want.done)
                << "signed " << is_signed << " round " << round;
            ASSERT_TRUE(sameTally(tally, twin_tally))
                << "signed " << is_signed << " round " << round;
            ASSERT_TRUE(sameDce(hct, twin))
                << "signed " << is_signed << " round " << round;
            hct.arbiter().rebase(got.done / 2);
            twin.arbiter().rebase(want.done / 2);
        }
    }
}

TEST(HctReduction, PlansFollowInputWidthSignAndReprogramming)
{
    // One tile interleaves every (input width, sign) twice, then is
    // programmed with another shape, element width and bits per cell
    // and does it again. A plan kept across setMatrix() or looked up
    // under the wrong key moves a done cycle, a tally entry or a
    // stage clock away from the walk.
    HctConfig cfg = smallHct();
    cfg.ace.numArrays = 64;
    cfg.ace.adc.bits = 5;
    struct Program
    {
        std::size_t rows;
        std::size_t cols;
        int elementBits;
        int bitsPerCell;
    };
    const Program programs[] = {{21, 19, 5, 2}, {12, 9, 3, 1}};
    CostTally tally;
    CostTally twin_tally;
    Hct hct(cfg, &tally);
    Hct twin(cfg, &twin_tally);
    Rng rng(81);
    int mvms = 0;
    for (const Program &prog : programs) {
        const i64 wmax = (i64{1} << prog.elementBits) - 1;
        const MatrixI m = randomMatrix(prog.rows, prog.cols, -wmax, wmax,
                                       static_cast<u64>(prog.rows));
        hct.setMatrix(m, prog.elementBits, prog.bitsPerCell);
        twin.setMatrix(m, prog.elementBits, prog.bitsPerCell);
        for (int pass = 0; pass < 2; ++pass) {
            for (int input_bits : {1, 2, 4, 8}) {
                for (bool is_signed : {false, true}) {
                    const i64 lo =
                        is_signed ? -(i64{1} << (input_bits - 1)) : 0;
                    const i64 hi = is_signed
                                       ? (i64{1} << (input_bits - 1)) - 1
                                       : (i64{1} << input_bits) - 1;
                    std::vector<i64> x(prog.rows);
                    for (auto &v : x)
                        v = rng.uniformInt(lo, hi);
                    x[0] = is_signed ? lo : hi;
                    const std::string where =
                        std::to_string(prog.rows) + "x" +
                        std::to_string(prog.cols) + " pass " +
                        std::to_string(pass) + " input " +
                        std::to_string(input_bits) + " signed " +
                        std::to_string(is_signed);
                    const auto got = hct.execMvm(x, input_bits, 0);
                    const auto want =
                        walkReference(twin, twin_tally, x, input_bits, 0);
                    ASSERT_EQ(got.values, want.values) << where;
                    ASSERT_EQ(got.values, hct.ace().referenceMvm(x))
                        << where;
                    ASSERT_EQ(got.done, want.done) << where;
                    ASSERT_TRUE(sameTally(tally, twin_tally)) << where;
                    ASSERT_TRUE(sameDce(hct, twin)) << where;
                    hct.arbiter().rebase(got.done / 2);
                    twin.arbiter().rebase(want.done / 2);
                    ++mvms;
                }
            }
        }
    }
    EXPECT_EQ(mvms, 32);
}

/**
 * A pipeline holding exactly what the eager register-file write left
 * after `hct`'s last MVM on pipe `p`: VR0 the accumulator, VR1 the
 * last partial product shifted into place, both over acc_bits bits.
 */
digital::Pipeline
eagerRegisterFile(Hct &twin, std::size_t p, const std::vector<i64> &x,
                  int input_bits)
{
    const std::size_t width = twin.config().dce.pipeline.width;
    const int acc_bits = twin.accumulatorBits(input_bits);
    const u64 mask = (u64{1} << acc_bits) - 1;
    const auto stream = twin.ace().execMvm(x, input_bits, 0);
    const auto sum = analog::Ace::reduceStream(
        stream, twin.ace().matrix().cols());
    const std::size_t c0 = p * width;
    const std::size_t n = std::min(width, sum.size() - c0);
    std::vector<u64> acc(n), staged(n);
    for (std::size_t e = 0; e < n; ++e) {
        acc[e] = static_cast<u64>(sum[c0 + e]) & mask;
        staged[e] = static_cast<u64>(stream.back().values[c0 + e]
                                     << stream.back().shift) &
                    mask;
    }
    digital::Pipeline pipe(twin.config().dce.pipeline);
    pipe.setElements(1, staged.data(), n,
                     static_cast<std::size_t>(acc_bits));
    pipe.setElements(0, acc.data(), n,
                     static_cast<std::size_t>(acc_bits));
    return pipe;
}

::testing::AssertionResult
sameRegisters(const digital::Pipeline &got, const digital::Pipeline &want)
{
    const digital::PipelineConfig &cfg = got.config();
    for (std::size_t vr = 0; vr < cfg.numRegs; ++vr)
        for (std::size_t e = 0; e < cfg.width; ++e)
            if (got.element(vr, e, cfg.depth) !=
                want.element(vr, e, cfg.depth))
                return ::testing::AssertionFailure()
                       << "VR" << vr << " element " << e << ": "
                       << got.element(vr, e, cfg.depth) << " != "
                       << want.element(vr, e, cfg.depth);
    return ::testing::AssertionSuccess();
}

TEST(HctRegisterFile, EveryAccessSeesTheEagerWrite)
{
    // 12 x 19 at 4 bits per cell: three pipelines, the last holding 3
    // elements; signed inputs leave a SUB-plane value in VR1.
    const MatrixI m = randomMatrix(12, 19, -15, 15, 91);
    const auto x = randomVector(12, -8, 7, 92);
    using Op = void (*)(digital::Pipeline &);
    const Op ops[] = {
        [](digital::Pipeline &) {},
        [](digital::Pipeline &pipe) {
            pipe.execMacro(digital::MacroKind::Add, 2, 0, 1, 20, 0);
        },
        [](digital::Pipeline &pipe) {
            pipe.execMacro(digital::MacroKind::Xor, 0, 0, 1, 3, 0);
        },
        [](digital::Pipeline &pipe) {
            pipe.execMacro(digital::MacroKind::Or, 1, 2, 3, 8, 0);
        },
        [](digital::Pipeline &pipe) {
            pipe.execShift(3, 1, 2, true, 20, 0);
        },
        [](digital::Pipeline &pipe) { pipe.execShift(1, 1, 1, false, 5, 0); },
        [](digital::Pipeline &pipe) { pipe.elementLoad(4, 0, pipe, 1, 2, 0); },
        [](digital::Pipeline &pipe) { pipe.setElement(0, 2, 0x5); },
        [](digital::Pipeline &pipe) { pipe.writeRow(1, 1, 0x3, 2, 2, 0); },
        [](digital::Pipeline &pipe) {
            const u64 words[2] = {7, 9};
            pipe.setElements(0, words, 2, 4);
        },
        [](digital::Pipeline &pipe) { pipe.clearReg(0); },
        [](digital::Pipeline &pipe) { pipe.clearReg(1); },
    };
    for (std::size_t op = 0; op < std::size(ops); ++op) {
        for (std::size_t p = 0; p < 3; ++p) {
            Hct hct(smallHct());
            Hct twin(smallHct());
            hct.setMatrix(m, 4, 4);
            twin.setMatrix(m, 4, 4);
            hct.execMvm(x, 4, 0);
            digital::Pipeline want = eagerRegisterFile(twin, p, x, 4);
            digital::Pipeline &got = hct.dce().pipeline(p);
            ops[op](got);
            ops[op](want);
            ASSERT_TRUE(sameRegisters(got, want))
                << "op " << op << " pipe " << p;
        }
    }

    // Direct reads, each on a register file nothing has read yet.
    for (std::size_t p = 0; p < 3; ++p) {
        const std::size_t depth = smallHct().dce.pipeline.depth;
        const std::size_t width = smallHct().dce.pipeline.width;
        Hct twin(smallHct());
        twin.setMatrix(m, 4, 4);
        digital::Pipeline want = eagerRegisterFile(twin, p, x, 4);
        for (std::size_t vr : {0, 1}) {
            for (std::size_t e = 0; e < width; ++e) {
                Hct hct(smallHct());
                hct.setMatrix(m, 4, 4);
                hct.execMvm(x, 4, 0);
                EXPECT_EQ(hct.dce().pipeline(p).element(vr, e, depth),
                          want.element(vr, e, depth));
                Hct rows(smallHct());
                rows.setMatrix(m, 4, 4);
                rows.execMvm(x, 4, 0);
                EXPECT_EQ(rows.dce().pipeline(p).readRow(vr, e, 0),
                          want.element(vr, e, depth));
            }
            Hct hct(smallHct());
            hct.setMatrix(m, 4, 4);
            hct.execMvm(x, 4, 0);
            u64 got_words[8];
            u64 want_words[8];
            hct.dce().pipeline(p).elements(vr, got_words, width, depth);
            want.elements(vr, want_words, width, depth);
            for (std::size_t e = 0; e < width; ++e)
                EXPECT_EQ(got_words[e], want_words[e])
                    << "pipe " << p << " VR" << vr << " element " << e;
        }
    }
}

TEST(HctRegisterFile, LaterMvmReplacesHeldWords)
{
    const MatrixI m = randomMatrix(12, 19, -15, 15, 93);
    const auto x1 = randomVector(12, -8, 7, 94);
    const auto x2 = randomVector(12, 0, 3, 95);
    Hct hct(smallHct());
    Hct twin(smallHct());
    hct.setMatrix(m, 4, 4);
    twin.setMatrix(m, 4, 4);
    hct.execMvm(x1, 4, 0);
    // A partial write between MVMs settles the first MVM's words...
    hct.dce().pipeline(0).setElement(0, 7, 0x1F);
    hct.execMvm(x2, 2, 0);
    // ...and the second MVM's words replace them entirely, including
    // the accumulator bits of a narrower reduction.
    for (std::size_t p = 0; p < 3; ++p)
        EXPECT_TRUE(sameRegisters(hct.dce().pipeline(p),
                                  eagerRegisterFile(twin, p, x2, 2)))
            << "pipe " << p;
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
