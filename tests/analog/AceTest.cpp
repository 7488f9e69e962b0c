/**
 * @file
 * Unit tests for the Analog Compute Element: tiling, partial-product
 * streams, integer exactness in the ideal configuration, ADC rate
 * effects, programming-cost accounting, and the equivalence of the
 * exact integer path with the Crossbar + Adc path it replaces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analog/Ace.h"
#include "common/Random.h"

namespace darth
{
namespace analog
{
namespace
{

AceConfig
smallAce()
{
    AceConfig cfg;
    cfg.numArrays = 16;
    cfg.arrayRows = 16;   // 8 signed rows per array
    cfg.arrayCols = 8;
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

TEST(Ace, SingleArrayFit)
{
    Ace ace(smallAce());
    ace.setMatrix(randomMatrix(8, 8, -1, 1, 1), 1, 1);
    EXPECT_EQ(ace.arraysUsed(), 1u);
    EXPECT_EQ(ace.slices(), 1);
    EXPECT_EQ(ace.rowTiles(), 1u);
    EXPECT_EQ(ace.colTiles(), 1u);
}

TEST(Ace, TilingAcrossArrays)
{
    Ace ace(smallAce());
    // 16 rows -> 2 row tiles; 16 cols -> 2 col tiles; 4-bit elements
    // at 2 bits per cell -> 2 slices. 2*2*2 = 8 arrays.
    ace.setMatrix(randomMatrix(16, 16, -15, 15, 2), 4, 2);
    EXPECT_EQ(ace.slices(), 2);
    EXPECT_EQ(ace.rowTiles(), 2u);
    EXPECT_EQ(ace.colTiles(), 2u);
    EXPECT_EQ(ace.arraysUsed(), 8u);
}

TEST(Ace, TooLargeMatrixIsFatal)
{
    Ace ace(smallAce());
    EXPECT_THROW(ace.setMatrix(randomMatrix(64, 64, -1, 1, 3), 8, 1),
                 std::runtime_error);
}

TEST(Ace, MvmExactUnsignedInputs)
{
    Ace ace(smallAce());
    const MatrixI m = randomMatrix(8, 8, -1, 1, 4);
    ace.setMatrix(m, 1, 1);
    Rng rng(5);
    std::vector<i64> x(8);
    for (auto &v : x)
        v = rng.uniformInt(i64{0}, i64{15});
    const auto stream = ace.execMvm(x, 4, 0);
    const auto reduced = Ace::reduceStream(stream, m.cols());
    EXPECT_EQ(reduced, ace.referenceMvm(x));
}

TEST(Ace, MvmExactSignedInputs)
{
    Ace ace(smallAce());
    const MatrixI m = randomMatrix(8, 8, -3, 3, 6);
    ace.setMatrix(m, 2, 2);
    Rng rng(7);
    std::vector<i64> x(8);
    for (auto &v : x)
        v = rng.uniformInt(i64{-8}, i64{7});
    const auto stream = ace.execMvm(x, 4, 0);
    const auto reduced = Ace::reduceStream(stream, m.cols());
    EXPECT_EQ(reduced, ace.referenceMvm(x));
}

TEST(Ace, MvmExactWithTilingAndSlicing)
{
    Ace ace(smallAce());
    const MatrixI m = randomMatrix(16, 16, -15, 15, 8);
    ace.setMatrix(m, 4, 2);
    Rng rng(9);
    std::vector<i64> x(16);
    for (auto &v : x)
        v = rng.uniformInt(i64{-4}, i64{3});
    const auto stream = ace.execMvm(x, 3, 0);
    const auto reduced = Ace::reduceStream(stream, m.cols());
    EXPECT_EQ(reduced, ace.referenceMvm(x));
}

TEST(Ace, RowGroupSplitWhenAdcTooNarrow)
{
    AceConfig cfg = smallAce();
    cfg.adc.bits = 4;   // max code 7
    Ace ace(cfg);
    // 2-bit cells (max code 3): 8 active rows accumulate up to 24,
    // beyond the 4-bit ADC -> rows must be split into groups of 2.
    const MatrixI m = randomMatrix(8, 4, -3, 3, 10);
    ace.setMatrix(m, 2, 2);
    EXPECT_EQ(ace.rowGroups(), 4u);
    // Exactness must survive the split.
    std::vector<i64> x(8);
    Rng rng(11);
    for (auto &v : x)
        v = rng.uniformInt(i64{0}, i64{3});
    const auto stream = ace.execMvm(x, 2, 0);
    EXPECT_EQ(Ace::reduceStream(stream, m.cols()), ace.referenceMvm(x));
}

TEST(AceDeath, CellWiderThanAdcIsFatal)
{
    AceConfig cfg = smallAce();
    cfg.adc.bits = 4;
    Ace ace(cfg);
    EXPECT_THROW(ace.setMatrix(randomMatrix(4, 4, -15, 15, 10), 4, 4),
                 std::runtime_error);
}

TEST(Ace, StreamSizeMatchesPlanesSlicesTilesGroups)
{
    Ace ace(smallAce());
    const MatrixI m = randomMatrix(16, 8, -3, 3, 12);
    ace.setMatrix(m, 2, 2);
    const auto stream = ace.execMvm(std::vector<i64>(16, 1), 3, 0);
    EXPECT_EQ(stream.size(), 3u * 1u * 2u * ace.rowGroups());
}

TEST(Ace, PartialShiftsCoverInputAndSliceWeights)
{
    Ace ace(smallAce());
    const MatrixI m = randomMatrix(8, 8, -15, 15, 13);
    ace.setMatrix(m, 4, 2);   // 2 slices, weights 0 and 2
    const auto stream = ace.execMvm(std::vector<i64>(8, 1), 2, 0);
    std::vector<int> shifts;
    for (const auto &pp : stream)
        shifts.push_back(pp.shift);
    // Input bits 0..1 and slice shifts 0, 2 -> shifts {0,1,2,3}.
    for (int expected : {0, 1, 2, 3})
        EXPECT_NE(std::find(shifts.begin(), shifts.end(), expected),
                  shifts.end());
}

TEST(Ace, AdcSerializationOrdersReadyTimes)
{
    Ace ace(smallAce());
    const MatrixI m = randomMatrix(16, 8, -1, 1, 14);
    ace.setMatrix(m, 1, 1);   // 2 row tiles -> 2 conversions per plane
    const auto stream = ace.execMvm(std::vector<i64>(16, 1), 2, 0);
    ASSERT_GE(stream.size(), 2u);
    for (std::size_t i = 1; i < stream.size(); ++i)
        EXPECT_GE(stream[i].readyAt, stream[i - 1].readyAt);
    EXPECT_GT(stream[0].readyAt, 0u);
}

TEST(Ace, RampAdcSlowerThanSarWithoutEarlyTermination)
{
    const MatrixI m = randomMatrix(8, 8, -1, 1, 15);
    AceConfig sar_cfg = smallAce();
    Ace sar(sar_cfg);
    sar.setMatrix(m, 1, 1);
    const auto sar_stream = sar.execMvm(std::vector<i64>(8, 1), 1, 0);

    AceConfig ramp_cfg = smallAce();
    ramp_cfg.adc.kind = AdcKind::Ramp;
    ramp_cfg.numAdcs = 1;
    Ace ramp(ramp_cfg);
    ramp.setMatrix(m, 1, 1);
    const auto ramp_stream = ramp.execMvm(std::vector<i64>(8, 1), 1, 0);

    EXPECT_GT(ramp_stream.back().readyAt, sar_stream.back().readyAt);
}

TEST(Ace, RampEarlyTerminationWins)
{
    // With the paper's 64 bitlines, 2 muxed SAR ADCs need 32 cycles
    // per plane while an early-terminated ramp sweeps all bitlines in
    // 4 (§7.3: AES MixColumns).
    AceConfig wide = smallAce();
    wide.arrayRows = 64;
    wide.arrayCols = 64;
    const MatrixI m = randomMatrix(32, 64, -1, 1, 16);

    AceConfig ramp_cfg = wide;
    ramp_cfg.adc.kind = AdcKind::Ramp;
    ramp_cfg.numAdcs = 1;
    ramp_cfg.rampStates = 4;   // the AES MixColumns trick
    Ace ramp(ramp_cfg);
    ramp.setMatrix(m, 1, 1);
    const auto ramp_stream =
        ramp.execMvm(std::vector<i64>(32, 1), 1, 0);

    Ace sar(wide);
    sar.setMatrix(m, 1, 1);
    const auto sar_stream = sar.execMvm(std::vector<i64>(32, 1), 1, 0);

    EXPECT_LT(ramp_stream.back().readyAt, sar_stream.back().readyAt);
}

TEST(Ace, RampAutoTerminationSweepsOnlyTheReachableRange)
{
    // Auto-termination derives the sweep length from the operating
    // point alone: a row group of rowsPerGroup 1-bit cells can only
    // produce codes in ±rowsPerGroup, so the sweep covers
    // 2*rowsPerGroup + 1 states instead of the full 256 — and the
    // values are bit-identical to the full sweep (early termination
    // changes when the ramp stops, never what it resolved).
    const MatrixI m = randomMatrix(8, 8, -1, 1, 17);
    AceConfig full_cfg = smallAce();
    full_cfg.adc.kind = AdcKind::Ramp;
    full_cfg.numAdcs = 1;
    Ace full(full_cfg);
    full.setMatrix(m, 1, 1);
    EXPECT_EQ(full.rampSweepStates(), 0u);

    AceConfig auto_cfg = full_cfg;
    auto_cfg.rampAutoTerminate = true;
    Ace aut(auto_cfg);
    aut.setMatrix(m, 1, 1);
    // smallAce: 16 physical rows = 8 signed rows per tile, 1-bit
    // cells, 8-bit ADC -> one group of 8 rows -> 17 states.
    EXPECT_EQ(aut.rampSweepStates(), 17u);

    const std::vector<i64> x(8, 1);
    const auto full_stream = full.execMvm(x, 1, 0);
    const auto auto_stream = aut.execMvm(x, 1, 0);
    ASSERT_EQ(full_stream.size(), auto_stream.size());
    for (std::size_t i = 0; i < full_stream.size(); ++i)
        EXPECT_EQ(full_stream[i].values, auto_stream[i].values);
    EXPECT_LT(auto_stream.back().readyAt,
              full_stream.back().readyAt);

    // An explicit rampStates still wins over auto-termination.
    AceConfig manual_cfg = auto_cfg;
    manual_cfg.rampStates = 4;
    Ace manual(manual_cfg);
    manual.setMatrix(m, 1, 1);
    EXPECT_EQ(manual.rampSweepStates(), 4u);
}

TEST(Ace, ProgrammingCostRecorded)
{
    CostTally tally;
    Ace ace(smallAce(), &tally);
    ace.setMatrix(randomMatrix(8, 8, -1, 1, 17), 1, 1);
    const CostEntry program = tally.get("ace.program");
    EXPECT_EQ(program.events, 2u * 8u * 8u);   // differential pairs
    EXPECT_GT(program.energy, 0.0);
}

TEST(Ace, NoisyMvmStaysClose)
{
    AceConfig cfg = smallAce();
    cfg.noise.programSigma = 0.02;
    cfg.noise.readSigma = 0.005;
    Ace ace(cfg, nullptr, 99);
    const MatrixI m = randomMatrix(8, 8, -1, 1, 18);
    ace.setMatrix(m, 1, 1);
    std::vector<i64> x(8, 1);
    const auto stream = ace.execMvm(x, 1, 0);
    const auto noisy = Ace::reduceStream(stream, 8);
    const auto exact = ace.referenceMvm(x);
    for (std::size_t c = 0; c < 8; ++c)
        EXPECT_NEAR(static_cast<double>(noisy[c]),
                    static_cast<double>(exact[c]), 2.0);
}

TEST(AceDeath, MvmWithoutMatrixIsFatal)
{
    Ace ace(smallAce());
    EXPECT_THROW((void)ace.execMvm({1}, 1, 0), std::runtime_error);
}

TEST(AceDeath, WrongInputLengthIsFatal)
{
    Ace ace(smallAce());
    ace.setMatrix(MatrixI(4, 4, 1), 1, 1);
    EXPECT_THROW((void)ace.execMvm({1, 0}, 1, 0), std::runtime_error);
}

TEST(AceDeath, BitsPerCellOutsideDeviceRangeIsFatal)
{
    AceConfig cfg = smallAce();
    cfg.adc.bits = 16;
    for (int bits_per_cell : {0, 9}) {
        Ace ace(cfg);
        EXPECT_THROW(ace.setMatrix(MatrixI(4, 4, 1), 9, bits_per_cell),
                     std::runtime_error);
        EXPECT_FALSE(ace.hasMatrix());
    }
}

TEST(AceDeath, OddWordlineCountIsFatal)
{
    AceConfig cfg = smallAce();
    cfg.arrayRows = 15;
    Ace ace(cfg);
    EXPECT_THROW(ace.setMatrix(MatrixI(4, 4, 1), 1, 1),
                 std::runtime_error);
}

TEST(Ace, RejectedMatrixLeavesTheAceAsItWas)
{
    Ace ace(smallAce());
    const MatrixI m = randomMatrix(8, 8, -1, 1, 20);
    ace.setMatrix(m, 1, 1);
    EXPECT_THROW(ace.setMatrix(randomMatrix(64, 64, -1, 1, 21), 8, 1),
                 std::runtime_error);
    EXPECT_EQ(ace.arraysUsed(), 1u);
    EXPECT_EQ(ace.matrix(), m);
    const std::vector<i64> x(8, 1);
    EXPECT_EQ(Ace::reduceStream(ace.execMvm(x, 1, 0), 8),
              ace.referenceMvm(x));
}

/** ACE geometry for one matrix, derived here independently of Ace. */
struct Tiling
{
    std::size_t rowsPerTile = 0;
    std::size_t rowsPerGroup = 0;
    std::size_t rowTiles = 0;
    std::size_t colTiles = 0;
};

Tiling
tilingOf(const AceConfig &cfg, const MatrixI &m, int bits_per_cell)
{
    Tiling t;
    t.rowsPerTile = cfg.arrayRows / 2;
    const i64 max_cell = (i64{1} << bits_per_cell) - 1;
    t.rowsPerGroup = std::min<std::size_t>(
        t.rowsPerTile,
        static_cast<std::size_t>(Adc(cfg.adc).maxCode() / max_cell));
    t.rowTiles = (m.rows() + t.rowsPerTile - 1) / t.rowsPerTile;
    t.colTiles = (m.cols() + cfg.arrayCols - 1) / cfg.arrayCols;
    return t;
}

/**
 * What Ace::execMvm must return and charge, built from the public
 * Crossbar::mvmBitInput + Adc::convert over the ACE's tiling: one
 * crossbar per (slice, row tile, column tile), one partial product
 * per (input plane, slice, row tile, row group), conversions
 * serialized on the ADCs from `start`.
 */
std::vector<PartialProduct>
crossbarReference(const AceConfig &cfg, const MatrixI &m,
                  int element_bits, int bits_per_cell,
                  const std::vector<i64> &x, int input_bits, Cycle start,
                  Cycle sweep_states, CostTally &tally)
{
    const Tiling t = tilingOf(cfg, m, bits_per_cell);
    const Adc adc(cfg.adc);
    const auto slices = sliceSignedMatrix(m, element_bits, bits_per_cell);
    const std::size_t n_slices = slices.size();
    std::vector<Crossbar> xbars;
    for (std::size_t s = 0; s < n_slices; ++s) {
        for (std::size_t rt = 0; rt < t.rowTiles; ++rt) {
            for (std::size_t ct = 0; ct < t.colTiles; ++ct) {
                const std::size_t r0 = rt * t.rowsPerTile;
                const std::size_t c0 = ct * cfg.arrayCols;
                const std::size_t nr =
                    std::min(t.rowsPerTile, m.rows() - r0);
                const std::size_t nc = std::min(cfg.arrayCols, m.cols() - c0);
                MatrixI sub(nr, nc);
                for (std::size_t r = 0; r < nr; ++r)
                    for (std::size_t c = 0; c < nc; ++c)
                        sub(r, c) = slices[s](r0 + r, c0 + c);
                xbars.emplace_back(cfg.arrayRows, cfg.arrayCols,
                                   bits_per_cell);
                xbars.back().programSigned(sub);
            }
        }
    }

    const u64 cells = 2 * n_slices * m.rows() * m.cols();
    tally.add("ace.program", cells * cfg.cellProgramCycles,
              static_cast<double>(cells) * cfg.cellProgramEnergyPJ,
              cells);
    const double arrays =
        static_cast<double>(n_slices * t.rowTiles * t.colTiles);
    const Cycle conv = adc.conversionLatency(m.cols(), cfg.numAdcs,
                                             sweep_states);
    std::vector<PartialProduct> stream;
    Cycle array_free = start;
    Cycle adc_free = start;
    for (const auto &plane : sliceInput(x, input_bits)) {
        const Cycle sampled =
            array_free + cfg.dacApplyCycles + cfg.settleCycles;
        array_free = sampled;
        const auto active = static_cast<double>(
            std::count(plane.bits.begin(), plane.bits.end(), 1));
        tally.add("ace.dac", cfg.dacApplyCycles,
                  active * cfg.rowDriveEnergyPJ * arrays);
        tally.add("ace.array", cfg.settleCycles,
                  cfg.arrayActivationEnergyPJ * arrays);
        tally.add("ace.sh", 0,
                  static_cast<double>(m.cols()) * cfg.sampleHoldEnergyPJ *
                      static_cast<double>(n_slices * t.rowTiles));
        for (std::size_t s = 0; s < n_slices; ++s) {
            for (std::size_t rt = 0; rt < t.rowTiles; ++rt) {
                const std::size_t r0 = rt * t.rowsPerTile;
                const std::size_t nr =
                    std::min(t.rowsPerTile, m.rows() - r0);
                for (std::size_t gr0 = 0; gr0 < nr; gr0 += t.rowsPerGroup) {
                    PartialProduct pp;
                    pp.shift = plane.bit +
                               static_cast<int>(s) * bits_per_cell;
                    pp.negate = plane.negate;
                    pp.values.assign(m.cols(), 0);
                    const std::size_t gr1 =
                        std::min(nr, gr0 + t.rowsPerGroup);
                    std::vector<int> bits(nr, 0);
                    for (std::size_t r = gr0; r < gr1; ++r)
                        bits[r] = plane.bits[r0 + r];
                    for (std::size_t ct = 0; ct < t.colTiles; ++ct) {
                        const Crossbar &xb =
                            xbars[(s * t.rowTiles + rt) * t.colTiles + ct];
                        const auto analog = xb.mvmBitInput(bits);
                        for (std::size_t c = 0; c < analog.size(); ++c)
                            pp.values[ct * cfg.arrayCols + c] =
                                adc.convert(analog[c]);
                    }
                    pp.convStart = std::max(adc_free, sampled);
                    pp.readyAt = pp.convStart + conv;
                    adc_free = pp.readyAt;
                    tally.add("ace.adc", conv,
                              adc.conversionEnergy(m.cols(), cfg.numAdcs,
                                                   sweep_states));
                    stream.push_back(std::move(pp));
                }
            }
        }
    }
    return stream;
}

::testing::AssertionResult
sameStream(const std::vector<PartialProduct> &got,
           const std::vector<PartialProduct> &want)
{
    if (got.size() != want.size())
        return ::testing::AssertionFailure()
               << "stream length " << got.size() << " != " << want.size();
    for (std::size_t i = 0; i < got.size(); ++i) {
        const PartialProduct &a = got[i];
        const PartialProduct &b = want[i];
        if (a.values != b.values || a.shift != b.shift ||
            a.negate != b.negate || a.convStart != b.convStart ||
            a.readyAt != b.readyAt)
            return ::testing::AssertionFailure()
                   << "partial product " << i << " differs";
    }
    return ::testing::AssertionSuccess();
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
                   << "tally entry " << name << " differs";
    }
    return ::testing::AssertionSuccess();
}

TEST(AceExact, MatchesCrossbarAndAdcOverTheGrid)
{
    // Shapes: 3 row tiles x 3 column tiles with a 5-row last tile, and
    // one tile. Every row-group size from 1 to the full 8-row tile
    // occurs below, with ragged last groups.
    const std::pair<std::size_t, std::size_t> shapes[] = {{21, 19},
                                                          {8, 8}};
    const int element_bits = 5;
    int cases = 0;
    for (int kind = 0; kind < 3; ++kind) {
        for (int adc_bits = 3; adc_bits <= 8; ++adc_bits) {
            for (int bpc = 1; bpc <= 4; ++bpc) {
                if ((i64{1} << bpc) - 1 > (i64{1} << (adc_bits - 1)) - 1)
                    continue;   // a single cell exceeds the ADC
                AceConfig cfg = smallAce();
                cfg.numArrays = 64;
                cfg.adc.bits = adc_bits;
                if (kind > 0) {
                    cfg.adc.kind = AdcKind::Ramp;
                    cfg.numAdcs = 1;
                    cfg.rampAutoTerminate = kind == 2;
                }
                for (const auto &[rows, cols] : shapes) {
                    const MatrixI m = randomMatrix(
                        rows, cols, -31, 31,
                        static_cast<u64>(100 * adc_bits + 10 * bpc + kind));
                    for (bool is_signed : {false, true}) {
                        for (int input_bits : {1, 4, 8}) {
                            const i64 lo =
                                is_signed ? -(i64{1} << (input_bits - 1))
                                          : 0;
                            const i64 hi =
                                is_signed
                                    ? (i64{1} << (input_bits - 1)) - 1
                                    : (i64{1} << input_bits) - 1;
                            Rng rng(static_cast<u64>(cases) + 1);
                            std::vector<i64> x(rows);
                            for (auto &v : x)
                                v = rng.uniformInt(lo, hi);
                            const std::string where =
                                "kind " + std::to_string(kind) + " adc " +
                                std::to_string(adc_bits) + " bpc " +
                                std::to_string(bpc) + " shape " +
                                std::to_string(rows) + "x" +
                                std::to_string(cols) + " signed " +
                                std::to_string(is_signed) + " input " +
                                std::to_string(input_bits);

                            CostTally tally;
                            Ace ace(cfg, &tally, 3);
                            ace.setMatrix(m, element_bits, bpc);
                            const auto got = ace.execMvm(x, input_bits, 5);
                            CostTally want_tally;
                            const auto want = crossbarReference(
                                cfg, m, element_bits, bpc, x, input_bits,
                                5, ace.rampSweepStates(), want_tally);
                            ASSERT_TRUE(sameStream(got, want)) << where;
                            ASSERT_TRUE(sameTally(tally, want_tally))
                                << where;
                            ++cases;
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(cases, 3 * 21 * 2 * 2 * 3);
}

TEST(AceExact, StuckCellsTakeTheCrossbarPath)
{
    // Stuck-at faults move conductances while reads stay deterministic
    // (readSigma == 0), so such an ACE must not report integer sums.
    AceConfig cfg = smallAce();
    cfg.noise.stuckAtRate = 0.3;
    Ace ace(cfg, nullptr, 42);
    const MatrixI m = randomMatrix(16, 16, -3, 3, 22);
    ace.setMatrix(m, 2, 2);
    Rng rng(23);
    std::vector<i64> x(16);
    for (auto &v : x)
        v = rng.uniformInt(i64{0}, i64{15});
    const auto stream = ace.execMvm(x, 4, 0);

    // Integer column sums in stream order: plane, slice, row tile.
    // 2-bit cells and an 8-bit ADC give one group per 8-row tile.
    const Tiling t = tilingOf(cfg, m, 2);
    ASSERT_EQ(t.rowsPerGroup, t.rowsPerTile);
    const auto slices = sliceSignedMatrix(m, 2, 2);
    std::size_t i = 0;
    std::size_t differing = 0;
    for (const auto &plane : sliceInput(x, 4)) {
        for (const MatrixI &slice : slices) {
            for (std::size_t rt = 0; rt < t.rowTiles; ++rt) {
                ASSERT_LT(i, stream.size());
                for (std::size_t c = 0; c < m.cols(); ++c) {
                    i64 sum = 0;
                    for (std::size_t r = rt * t.rowsPerTile;
                         r < (rt + 1) * t.rowsPerTile; ++r)
                        sum += plane.bits[r] * slice(r, c);
                    differing +=
                        static_cast<std::size_t>(stream[i].values[c] != sum);
                }
                ++i;
            }
        }
    }
    EXPECT_EQ(i, stream.size());
    EXPECT_GT(differing, 0u);
}

} // namespace
} // namespace analog
} // namespace darth
