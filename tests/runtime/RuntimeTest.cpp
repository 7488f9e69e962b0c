/**
 * @file
 * Tests for the Chip, placement planner, and session-based runtime
 * calls.
 */

#include <stdexcept>
#include <utility>

#include <gtest/gtest.h>

#include "common/Random.h"
#include "runtime/Runtime.h"

namespace darth
{
namespace runtime
{
namespace
{

ChipConfig
smallChip(std::size_t num_hcts = 4)
{
    ChipConfig cfg;
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
reference(const MatrixI &m, const std::vector<i64> &x)
{
    std::vector<i64> out(m.cols(), 0);
    for (std::size_t c = 0; c < m.cols(); ++c)
        for (std::size_t r = 0; r < m.rows(); ++r)
            out[c] += m(r, c) * x[r];
    return out;
}

TEST(Chip, ConstructsTiles)
{
    Chip chip(smallChip(3));
    EXPECT_EQ(chip.numHcts(), 3u);
    EXPECT_EQ(chip.modeledHcts(), 3u);
}

TEST(Chip, ModeledHctsOverride)
{
    ChipConfig cfg = smallChip(2);
    cfg.modeledHcts = 1860;
    Chip chip(cfg);
    EXPECT_EQ(chip.numHcts(), 2u);
    EXPECT_EQ(chip.modeledHcts(), 1860u);
}

TEST(Runtime, PrecisionScale)
{
    EXPECT_EQ(Runtime::precisionToBitsPerCell(0), 1);
    EXPECT_EQ(Runtime::precisionToBitsPerCell(1), 2);
    EXPECT_EQ(Runtime::precisionToBitsPerCell(2), 4);
    EXPECT_EQ(Runtime::precisionToBitsPerCell(1, 8), 4);
    EXPECT_THROW((void)Runtime::precisionToBitsPerCell(3),
                 std::runtime_error);
}

TEST(Runtime, PlanSinglePart)
{
    const auto plan = Runtime::planMatrix(smallChip().hct, 8, 8, 1, 1);
    ASSERT_EQ(plan.parts.size(), 1u);
    EXPECT_FALSE(plan.rowSplit);
    EXPECT_EQ(plan.parts[0].numRows, 8u);
    EXPECT_EQ(plan.parts[0].numCols, 8u);
}

TEST(Runtime, PlanColumnStripes)
{
    // 8 rows fit one tile; 32 cols need 4 col tiles; cap = 8 arrays
    // -> 8 tiles per HCT covers 1 row tile x 8 col tiles, so a
    // single part suffices. Shrink capacity by using 2 slices.
    const auto plan = Runtime::planMatrix(smallChip().hct, 8, 32, 2, 1);
    EXPECT_FALSE(plan.rowSplit);
    ASSERT_GE(plan.parts.size(), 1u);
    std::size_t covered = 0;
    for (const auto &part : plan.parts) {
        EXPECT_EQ(part.numRows, 8u);
        covered += part.numCols;
    }
    EXPECT_EQ(covered, 32u);
}

TEST(Runtime, PlanRowSplitWhenRowsExceedCapacity)
{
    // 8 arrays, 1 slice, 8 rows/tile -> 64 rows per HCT max; 100
    // rows forces a row split.
    const auto plan =
        Runtime::planMatrix(smallChip().hct, 100, 8, 1, 1);
    EXPECT_TRUE(plan.rowSplit);
    EXPECT_GE(plan.parts.size(), 2u);
    std::size_t rows_covered = 0;
    for (const auto &part : plan.parts)
        if (part.col0 == 0)
            rows_covered += part.numRows;
    EXPECT_EQ(rows_covered, 100u);
}

TEST(Runtime, ExecMvmSinglePartExact)
{
    Chip chip(smallChip());
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixI m = randomMatrix(8, 8, -1, 1, 211);
    const MatrixHandle handle = session.setMatrix(m, 1, 0);
    Rng rng(212);
    std::vector<i64> x(8);
    for (auto &v : x)
        v = rng.uniformInt(i64{0}, i64{7});
    const auto result = session.execMVM(handle, x, 3);
    EXPECT_EQ(result.values, reference(m, x));
    EXPECT_GT(result.done, 0u);
}

TEST(Runtime, ExecMvmColumnStripesExact)
{
    Chip chip(smallChip(4));
    Runtime rt(chip);
    Session session = rt.createSession();
    // 2 slices halve capacity: 8 rows x 32 cols may need > 1 part.
    const MatrixI m = randomMatrix(8, 32, -3, 3, 213);
    const MatrixHandle handle = session.setMatrix(m, 2, 0);
    std::vector<i64> x(8, 1);
    const auto result = session.execMVM(handle, x, 2);
    EXPECT_EQ(result.values, reference(m, x));
}

TEST(Runtime, ExecMvmRowSplitExact)
{
    Chip chip(smallChip(8));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixI m = randomMatrix(100, 8, -1, 1, 214);
    const MatrixHandle handle = session.setMatrix(m, 1, 0);
    ASSERT_TRUE(handle.plan().rowSplit);
    Rng rng(215);
    std::vector<i64> x(100);
    for (auto &v : x)
        v = rng.uniformInt(i64{0}, i64{3});
    const auto result = session.execMVM(handle, x, 2);
    EXPECT_EQ(result.values, reference(m, x));
}

TEST(Runtime, RowSplitTallMatrixBitExactAcrossShapes)
{
    // A matrix taller than one HCT (64 rows at this geometry) must
    // produce rowSplit plans whose cross-part adds are bit-exact
    // against the integer reference, including signed inputs and
    // multi-column-stripe shapes.
    for (const std::size_t rows : {65u, 96u, 130u}) {
        Chip chip(smallChip(16));
        Runtime rt(chip);
        Session session = rt.createSession();
        const MatrixI m = randomMatrix(rows, 16, -3, 3,
                                       300 + rows);
        const MatrixHandle handle = session.setMatrix(m, 2, 0);
        ASSERT_TRUE(handle.plan().rowSplit)
            << rows << " rows should not fit one HCT";
        Rng rng(400 + rows);
        std::vector<i64> x(rows);
        for (auto &v : x)
            v = rng.uniformInt(i64{-4}, i64{3});
        const auto result = session.execMVM(handle, x, 3);
        EXPECT_EQ(result.values, reference(m, x))
            << "row-split mismatch at " << rows << " rows";
    }
}

TEST(Runtime, TwoMatricesUseDistinctHcts)
{
    Chip chip(smallChip(4));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle a =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 216), 1, 0);
    const MatrixHandle b =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 217), 1, 0);
    EXPECT_NE(a.plan().parts[0].hctIndex, b.plan().parts[0].hctIndex);
    // Both matrices stay usable.
    std::vector<i64> x(8, 1);
    EXPECT_EQ(session.execMVM(a, x, 1).values,
              reference(a.matrix(), x));
    EXPECT_EQ(session.execMVM(b, x, 1).values,
              reference(b.matrix(), x));
}

TEST(Runtime, OutOfHctsIsFatal)
{
    Chip chip(smallChip(1));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle held =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 218), 1, 0);
    EXPECT_THROW(session.setMatrix(randomMatrix(8, 8, 0, 1, 219), 1, 0),
                 std::runtime_error);
    EXPECT_TRUE(held.valid());
}

TEST(Runtime, FreeMatrixReclaimsHcts)
{
    // The seed leaked placements forever; released handles must
    // return their tiles to the free pool.
    Chip chip(smallChip(1));
    Runtime rt(chip);
    Session session = rt.createSession();
    EXPECT_EQ(rt.freeHcts(), 1u);
    {
        const MatrixHandle handle =
            session.setMatrix(randomMatrix(8, 8, 0, 1, 220), 1, 0);
        EXPECT_EQ(rt.freeHcts(), 0u);
    }
    EXPECT_EQ(rt.freeHcts(), 1u);
    // The reclaimed tile is reusable, and the new placement works.
    const MatrixI m = randomMatrix(8, 8, -1, 1, 221);
    const MatrixHandle again = session.setMatrix(m, 1, 0);
    std::vector<i64> x(8, 1);
    EXPECT_EQ(session.execMVM(again, x, 1).values, reference(m, x));
}

TEST(Runtime, PlacementCursorSkipsOccupiedHcts)
{
    Chip chip(smallChip(3));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle a =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 222), 1, 0);
    MatrixHandle b = session.setMatrix(randomMatrix(8, 8, 0, 1, 223),
                                       1, 0);
    const MatrixHandle c =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 224), 1, 0);
    EXPECT_EQ(rt.freeHcts(), 0u);
    // Free the middle tile; the cursor (wrapped back to tile 0,
    // which is still fully allocated) must skip it and land on the
    // reclaimed tile.
    const std::size_t freed = b.plan().parts[0].hctIndex;
    b.release();
    const MatrixHandle d =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 225), 1, 0);
    EXPECT_EQ(d.plan().parts[0].hctIndex, freed);
    EXPECT_NE(d.plan().parts[0].hctIndex,
              a.plan().parts[0].hctIndex);
    EXPECT_NE(d.plan().parts[0].hctIndex,
              c.plan().parts[0].hctIndex);
}

TEST(Runtime, MvmInputLengthMismatchThrowsInvalidArgument)
{
    Chip chip(smallChip());
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle handle =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 226), 1, 0);
    // Too short and too long both throw std::invalid_argument (not a
    // silent truncation / out-of-bounds read).
    EXPECT_THROW(session.submit(handle, std::vector<i64>(7, 1), 1),
                 std::invalid_argument);
    EXPECT_THROW(session.submit(handle, std::vector<i64>(9, 1), 1),
                 std::invalid_argument);
    try {
        session.submit(handle, std::vector<i64>(3, 1), 1);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("3 elements"), std::string::npos) << msg;
        EXPECT_NE(msg.find("8 rows"), std::string::npos) << msg;
    }
    EXPECT_THROW(session.submit(handle, std::vector<i64>(8, 1), 0),
                 std::invalid_argument);
    // The handle still works after the rejected submissions.
    std::vector<i64> x(8, 1);
    EXPECT_EQ(session.execMVM(handle, x, 1).values,
              reference(handle.matrix(), x));
}

TEST(Runtime, DisableAnalogModeBlocksMvm)
{
    Chip chip(smallChip());
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle handle =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 227), 1, 0);
    rt.disableAnalogMode(handle.id(), 0);
    EXPECT_THROW((void)session.submit(handle, std::vector<i64>(8, 1),
                                      1),
                 std::runtime_error);
}

TEST(Runtime, PlaceAndFreeMatrixDirectly)
{
    // The registry-level API (used by the serving layer and by
    // Session internally) places and reclaims without a session
    // object.
    Chip chip(smallChip(1));
    Runtime rt(chip);
    const int handle =
        rt.placeMatrix(randomMatrix(8, 8, 0, 1, 230), 1, 1);
    EXPECT_EQ(rt.freeHcts(), 0u);
    rt.freeMatrix(handle);
    EXPECT_EQ(rt.freeHcts(), 1u);
    EXPECT_THROW((void)rt.plan(handle), std::runtime_error);
}

TEST(Runtime, ReleasedSessionRejectsUse)
{
    // Submitting through a released (moved-from) session must throw
    // std::invalid_argument at the call site, not be silently
    // accepted (or crash) until a wait.
    Chip chip(smallChip(2));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle handle =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 231), 1, 0);
    const MvmFuture pending =
        session.submit(handle, std::vector<i64>(8, 1), 1);
    Session moved = std::move(session);
    EXPECT_THROW(session.submit(handle, std::vector<i64>(8, 1), 1),
                 std::invalid_argument);
    EXPECT_THROW((void)session.wait(pending), std::invalid_argument);
    EXPECT_THROW(session.waitAll(), std::invalid_argument);
    EXPECT_THROW(session.setMatrix(randomMatrix(8, 8, 0, 1, 232), 1, 0),
                 std::invalid_argument);
    // The moved-to session carries on: same id, same queued work.
    EXPECT_EQ(moved.wait(pending).values,
              reference(handle.matrix(), std::vector<i64>(8, 1)));
}

TEST(KernelModel, MvmCostMatchesHct)
{
    // The oracle must report exactly what the simulator measures.
    const auto cfg = smallChip().hct;
    KernelModel km(cfg);
    const MvmShape shape{8, 8, 2, 1, 3};
    const auto cost = km.mvm(shape);

    CostTally tally;
    hct::Hct hct(cfg, &tally, 1);
    hct.setMatrix(randomMatrix(8, 8, -3, 3, 221), 2, 1);
    const auto measured =
        hct.execMvm(std::vector<i64>(8, 1), 3, 0);
    EXPECT_EQ(cost.latency, measured.done);
    EXPECT_GT(cost.energy, 0.0);
}

TEST(KernelModel, CachesShapes)
{
    KernelModel km(smallChip().hct);
    const MvmShape shape{8, 8, 1, 1, 1};
    const auto a = km.mvm(shape);
    const auto b = km.mvm(shape);
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_DOUBLE_EQ(a.energy, b.energy);
}

TEST(KernelModel, AmortizedLeqLatency)
{
    KernelModel km(smallChip().hct);
    const auto mvm = km.mvm(MvmShape{8, 8, 2, 1, 4});
    EXPECT_LE(mvm.amortized, mvm.latency);
    const auto add = km.macro(digital::MacroKind::Add, 16);
    EXPECT_LE(add.amortized, add.latency);
    EXPECT_GT(add.latency, 0u);
}

TEST(KernelModel, MultiplyScalesWithBits)
{
    KernelModel km(smallChip().hct);
    const auto m8 = km.multiply(8);
    const auto m4 = km.multiply(4);
    EXPECT_GT(m8.latency, m4.latency);
    EXPECT_GT(m8.energy, m4.energy);
}

TEST(KernelModel, RowIo)
{
    KernelModel km(smallChip().hct);
    EXPECT_EQ(km.rowIo(5).latency, 5u);
}

} // namespace
} // namespace runtime
} // namespace darth
