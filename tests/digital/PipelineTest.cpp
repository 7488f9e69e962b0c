/**
 * @file
 * Unit tests for the RACER pipeline: functional macro results, timing
 * behaviour (bit-pipelining, carry serialization), row I/O, shifts,
 * and the DARTH-PUM element-wise load extension.
 */

#include <gtest/gtest.h>

#include "common/Random.h"
#include "digital/Pipeline.h"

namespace darth
{
namespace digital
{
namespace
{

PipelineConfig
smallConfig(LogicFamilyKind family = LogicFamilyKind::Oscar)
{
    PipelineConfig cfg;
    cfg.depth = 16;
    cfg.width = 8;
    cfg.numRegs = 8;
    cfg.family = family;
    return cfg;
}

TEST(Pipeline, ElementRoundTrip)
{
    Pipeline pipe(smallConfig());
    pipe.setElement(2, 3, 0xBEEF);
    EXPECT_EQ(pipe.element(2, 3, 16), 0xBEEFull);
    EXPECT_EQ(pipe.element(2, 3, 8), 0xEFull);
}

TEST(Pipeline, ClearReg)
{
    Pipeline pipe(smallConfig());
    pipe.setElement(1, 0, 0xFFFF);
    pipe.clearReg(1);
    EXPECT_EQ(pipe.element(1, 0, 16), 0u);
}

TEST(Pipeline, AddAllElements)
{
    Pipeline pipe(smallConfig());
    for (std::size_t e = 0; e < 8; ++e) {
        pipe.setElement(0, e, 100 * e + 1);
        pipe.setElement(1, e, 7 * e + 3);
    }
    pipe.execMacro(MacroKind::Add, 2, 0, 1, 16, 0);
    for (std::size_t e = 0; e < 8; ++e)
        EXPECT_EQ(pipe.element(2, e, 16), (100 * e + 1) + (7 * e + 3));
}

TEST(Pipeline, SubWrapsTwosComplement)
{
    Pipeline pipe(smallConfig());
    pipe.setElement(0, 0, 5);
    pipe.setElement(1, 0, 10);
    pipe.execMacro(MacroKind::Sub, 2, 0, 1, 16, 0);
    EXPECT_EQ(pipe.element(2, 0, 16), (5 - 10) & 0xFFFFull);
}

TEST(Pipeline, XorAndOrNot)
{
    Pipeline pipe(smallConfig());
    pipe.setElement(0, 0, 0xF0F0);
    pipe.setElement(1, 0, 0xFF00);
    pipe.execMacro(MacroKind::Xor, 2, 0, 1, 16, 0);
    pipe.execMacro(MacroKind::And, 3, 0, 1, 16, 0);
    pipe.execMacro(MacroKind::Or, 4, 0, 1, 16, 0);
    pipe.execMacro(MacroKind::Not, 5, 0, 0, 16, 0);
    EXPECT_EQ(pipe.element(2, 0, 16), 0x0FF0ull);
    EXPECT_EQ(pipe.element(3, 0, 16), 0xF000ull);
    EXPECT_EQ(pipe.element(4, 0, 16), 0xFFF0ull);
    EXPECT_EQ(pipe.element(5, 0, 16), 0x0F0Full);
}

TEST(Pipeline, IndependentMacrosPipelineOverlap)
{
    // Two independent XORs on an empty pipeline: the second's stage 0
    // starts as soon as the first vacates it, so total time is far
    // less than 2x a single macro.
    Pipeline pipe(smallConfig());
    const Cycle t1 = pipe.execMacro(MacroKind::Xor, 2, 0, 1, 16, 0);
    const Cycle t2 = pipe.execMacro(MacroKind::Xor, 3, 0, 1, 16, 0);
    EXPECT_LT(t2, 2 * t1);
    const BitProgram p = synthesizeMacro(
        MacroKind::Xor, LogicFamily(LogicFamilyKind::Oscar));
    EXPECT_EQ(t2, t1 + p.opCount());
}

TEST(Pipeline, CarryChainSerializesStages)
{
    // ADD latency grows ~linearly with bit count because of the
    // ripple carry; XOR grows with bits only through the 1-cycle
    // control handoff.
    Pipeline pipe(smallConfig());
    const Cycle add_done = pipe.execMacro(MacroKind::Add, 2, 0, 1, 16, 0);
    Pipeline pipe2(smallConfig());
    const Cycle xor_done =
        pipe2.execMacro(MacroKind::Xor, 2, 0, 1, 16, 0);
    EXPECT_GT(add_done, 3 * xor_done);
    // 16 bits x 11 ops, fully serialized.
    EXPECT_EQ(add_done, 16u * 11u);
}

TEST(Pipeline, IdealFamilyFasterThanOscar)
{
    Pipeline oscar(smallConfig(LogicFamilyKind::Oscar));
    Pipeline ideal(smallConfig(LogicFamilyKind::Ideal));
    const Cycle t_oscar = oscar.execMacro(MacroKind::Add, 2, 0, 1, 16, 0);
    const Cycle t_ideal = ideal.execMacro(MacroKind::Add, 2, 0, 1, 16, 0);
    EXPECT_GT(static_cast<double>(t_oscar) /
                  static_cast<double>(t_ideal),
              1.8);
}

TEST(Pipeline, ShiftUpMultiplies)
{
    Pipeline pipe(smallConfig());
    pipe.setElement(0, 0, 0x0021);
    pipe.execShift(1, 0, 3, true, 16, 0);
    EXPECT_EQ(pipe.element(1, 0, 16), 0x0021ull << 3);
}

TEST(Pipeline, ShiftDownDivides)
{
    Pipeline pipe(smallConfig());
    pipe.setElement(0, 0, 0x8400);
    pipe.execShift(1, 0, 2, false, 16, 0);
    EXPECT_EQ(pipe.element(1, 0, 16), 0x8400ull >> 2);
}

TEST(Pipeline, ShiftInPlace)
{
    Pipeline pipe(smallConfig());
    pipe.setElement(0, 0, 0x0101);
    pipe.execShift(0, 0, 1, true, 16, 0);
    EXPECT_EQ(pipe.element(0, 0, 16), 0x0202ull);
}

TEST(Pipeline, WriteRowWithShiftUnitOffset)
{
    // The ACE->DCE shift units place partial products pre-shifted:
    // writing value v at lo_bit=k equals storing v << k.
    Pipeline pipe(smallConfig());
    pipe.writeRow(0, 2, 0x5, 3, 8, 0);
    EXPECT_EQ(pipe.element(0, 2, 16), 0x5ull << 3);
}

TEST(Pipeline, WriteRowPastBit64WritesZeros)
{
    // A u64 value has no bits past 64: a row write spanning columns
    // 64 and up must store zeros there, not wrap the shift around.
    PipelineConfig cfg = smallConfig();
    cfg.depth = 128;
    Pipeline pipe(cfg);
    pipe.writeRow(0, 3, 1, 0, 72, 0);
    pipe.execShift(1, 0, 64, false, 72, 0);
    EXPECT_EQ(pipe.element(1, 3, 8), 0u);
    EXPECT_EQ(pipe.element(0, 3, 64), 1u);
}

TEST(Pipeline, WriteRowOneCyclePerRow)
{
    Pipeline pipe(smallConfig());
    Cycle t = 0;
    for (std::size_t e = 0; e < 8; ++e)
        t = pipe.writeRow(0, e, e, 0, 8, t);
    EXPECT_EQ(t, 8u);
}

TEST(Pipeline, ReadRowMatchesSetElement)
{
    Pipeline pipe(smallConfig());
    pipe.setElement(3, 5, 0x1234);
    EXPECT_EQ(pipe.readRow(3, 5, 0), 0x1234ull);
}

TEST(Pipeline, ElementLoadGathersFromTable)
{
    // Table pipeline stores a lookup table across rows/registers;
    // the compute pipeline gathers entries by per-element address.
    PipelineConfig cfg = smallConfig();
    Pipeline table(cfg);
    Pipeline compute(cfg);
    // Table: entry t = t * 3, spread over registers 0.. (width = 8).
    for (u64 t = 0; t < 16; ++t)
        table.setElement(t / 8, t % 8, t * 3);
    for (std::size_t e = 0; e < 8; ++e)
        compute.setElement(0, e, (e * 2 + 1) % 16);   // addresses
    compute.elementLoad(1, 0, table, 0, 8, 0);
    for (std::size_t e = 0; e < 8; ++e)
        EXPECT_EQ(compute.element(1, e, 8), ((e * 2 + 1) % 16) * 3);
}

TEST(Pipeline, ElementLoadCostThreeCyclesPerElement)
{
    PipelineConfig cfg = smallConfig();
    Pipeline table(cfg);
    Pipeline compute(cfg);
    const Cycle done = compute.elementLoad(1, 0, table, 0, 8, 0);
    EXPECT_EQ(done, 3u * cfg.width);
}

TEST(Pipeline, CostTallyRecordsOpsAndEnergy)
{
    CostTally tally;
    PipelineConfig cfg = smallConfig();
    Pipeline pipe(cfg, &tally);
    pipe.execMacro(MacroKind::Add, 2, 0, 1, 16, 0);
    const CostEntry ops = tally.get("dce.boolop");
    EXPECT_EQ(ops.events, 16u * 11u);
    EXPECT_DOUBLE_EQ(ops.energy, 16.0 * 11.0 * cfg.opEnergyPJ);
}

TEST(PipelineDeath, BadRegisterPanics)
{
    Pipeline pipe(smallConfig());
    EXPECT_DEATH(pipe.setElement(99, 0, 0), "out of range");
    EXPECT_DEATH(pipe.execMacro(MacroKind::Add, 0, 99, 1, 8, 0),
                 "out of range");
}

TEST(PipelineDeath, ElementOutOfRangePanics)
{
    // checkElem is the only guard between an element index >= width
    // and a write outside the column's valid rows.
    Pipeline pipe(smallConfig());
    const std::size_t width = smallConfig().width;
    EXPECT_DEATH(pipe.setElement(0, width, 1), "out of range");
    EXPECT_DEATH((void)pipe.element(0, width, 8), "out of range");
    EXPECT_DEATH(pipe.writeRow(0, width, 1, 0, 8, 0), "out of range");
}

TEST(PipelineDeath, TooManyBitsPanics)
{
    Pipeline pipe(smallConfig());
    EXPECT_DEATH(pipe.execMacro(MacroKind::Add, 0, 1, 2, 17, 0),
                 "exceeds depth");
}

TEST(PipelineDeath, WideWidthIsFatal)
{
    PipelineConfig cfg = smallConfig();
    cfg.width = 65;
    EXPECT_THROW(Pipeline{cfg}, std::runtime_error);
}

TEST(Pipeline, MacroRunMatchesTheWalk)
{
    // Closed-form run timing against one execMacro per issue, from
    // random stage clocks (left by random earlier macros and shifts),
    // with random non-monotone issues and mixed ADD (11-op) / SUB
    // (12-op) runs.
    PipelineConfig cfg = smallConfig();
    cfg.depth = 32;
    Rng rng(2024);
    for (int trial = 0; trial < 400; ++trial) {
        Pipeline walk(cfg);
        Pipeline closed(cfg);
        const int warmups = static_cast<int>(rng.uniformInt(0, 6));
        for (int w = 0; w < warmups; ++w) {
            const auto bits =
                static_cast<std::size_t>(rng.uniformInt(1, 32));
            const auto issue = static_cast<Cycle>(rng.uniformInt(0, 600));
            const i64 what = rng.uniformInt(0, 3);
            for (Pipeline *pipe : {&walk, &closed}) {
                if (what == 3)
                    pipe->execShift(3, 4, 2, true, bits, issue);
                else
                    pipe->execMacro(what == 0   ? MacroKind::Xor
                                    : what == 1 ? MacroKind::Add
                                                : MacroKind::Sub,
                                    2, 0, 1, bits, issue);
            }
        }
        const auto bits = static_cast<std::size_t>(rng.uniformInt(1, 32));
        const int runs = static_cast<int>(rng.uniformInt(1, 3));
        for (int r = 0; r < runs; ++r) {
            const MacroKind kind =
                rng.uniformInt(0, 1) == 0 ? MacroKind::Add : MacroKind::Sub;
            std::vector<Cycle> issues(
                static_cast<std::size_t>(rng.uniformInt(1, 20)));
            for (Cycle &issue : issues)
                issue = static_cast<Cycle>(rng.uniformInt(0, 3000));
            Cycle latest = 0;
            for (Cycle issue : issues)
                latest = std::max(
                    latest, walk.execMacro(kind, 2, 0, 1, bits, issue));
            ASSERT_EQ(closed.timeMacroRun(kind, bits, issues.data(),
                                          issues.size()),
                      latest)
                << "trial " << trial << " run " << r;
            ASSERT_EQ(closed.opCount(), walk.opCount())
                << "trial " << trial << " run " << r;
            for (std::size_t i = 0; i < cfg.depth; ++i)
                ASSERT_EQ(closed.stageFreeAt(i), walk.stageFreeAt(i))
                    << "trial " << trial << " run " << r << " stage " << i;
        }
    }
}

TEST(Pipeline, MacroRunChargesNoTally)
{
    // The caller charges the energy in its own order; only the op
    // count moves.
    CostTally tally;
    Pipeline pipe(smallConfig(), &tally);
    const Cycle issues[3] = {0, 4, 9};
    pipe.timeMacroRun(MacroKind::Add, 16, issues, 3);
    EXPECT_EQ(tally.get("dce.boolop").events, 0u);
    EXPECT_EQ(pipe.opCount(),
              3u * 16u *
                  KernelCache::instance()
                      .macro(MacroKind::Add, LogicFamilyKind::Oscar)
                      .program.opCount());
}

TEST(Pipeline, HeldElementsReadLikeSetElements)
{
    // held words overlay the columns exactly as setElements would:
    // elements past `count` and columns past `bits` keep their bits.
    Pipeline eager(smallConfig());
    Pipeline lazy(smallConfig());
    for (Pipeline *pipe : {&eager, &lazy})
        for (std::size_t e = 0; e < 8; ++e)
            pipe->setElement(2, e, 0xA5A5 + e);
    const u64 first[5] = {1, 0xFF, 3, 0x1234, 0x7};
    const u64 second[3] = {0xF0, 0x0F, 0xAA};
    eager.setElements(2, first, 5, 12);
    eager.setElements(2, second, 3, 6);
    lazy.holdElements(2, first, 5, 12);
    lazy.holdElements(2, second, 3, 6);
    for (std::size_t e = 0; e < 8; ++e)
        EXPECT_EQ(lazy.element(2, e, 16), eager.element(2, e, 16)) << e;

    // clearReg drops held words: nothing resurfaces on a later read or
    // partial write.
    lazy.holdElements(3, first, 5, 12);
    lazy.clearReg(3);
    lazy.writeRow(3, 0, 1, 0, 1, 0);
    EXPECT_EQ(lazy.element(3, 0, 16), 1u);
    for (std::size_t e = 1; e < 8; ++e)
        EXPECT_EQ(lazy.element(3, e, 16), 0u) << e;
}

/** Property sweep: pipeline arithmetic matches integer semantics. */
class PipelineMacroProperty
    : public ::testing::TestWithParam<std::tuple<MacroKind, u64, u64>>
{
};

TEST_P(PipelineMacroProperty, MatchesReference)
{
    const auto [kind, a, b] = GetParam();
    Pipeline pipe(smallConfig());
    pipe.setElement(0, 0, a);
    pipe.setElement(1, 0, b);
    pipe.execMacro(kind, 2, 0, 1, 16, 0);
    EXPECT_EQ(pipe.element(2, 0, 16),
              referenceMacro(kind, a, b, 16));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineMacroProperty,
    ::testing::Combine(
        ::testing::Values(MacroKind::Add, MacroKind::Sub, MacroKind::Xor,
                          MacroKind::And, MacroKind::Or, MacroKind::Nor),
        ::testing::Values(u64{0}, u64{1}, u64{0xFF}, u64{0x8000},
                          u64{0xFFFF}, u64{0x1234}),
        ::testing::Values(u64{0}, u64{1}, u64{0x00FF}, u64{0xFFFF},
                          u64{0xABCD})));

} // namespace
} // namespace digital
} // namespace darth
