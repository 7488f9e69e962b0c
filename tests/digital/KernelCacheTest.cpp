/**
 * @file
 * Tests for the process-wide compiled-kernel cache: truth-table
 * compilation must be a bit-exact stand-in for the scalar reference
 * BitProgram::evaluate (every macro kind, both logic families, all
 * widths), a non-SSA program must be refused, and the cache's
 * hit/miss counters must move.
 */

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "digital/KernelCache.h"
#include "digital/Pipeline.h"
#include "digital/Synthesis.h"

namespace darth
{
namespace digital
{
namespace
{

const MacroKind kAllMacros[] = {
    MacroKind::Not,  MacroKind::Copy, MacroKind::And,
    MacroKind::Or,   MacroKind::Nor,  MacroKind::Nand,
    MacroKind::Xor,  MacroKind::Xnor, MacroKind::Add,
    MacroKind::Sub,  MacroKind::Mux,
};

class KernelCacheTest : public ::testing::TestWithParam<LogicFamilyKind>
{
};

/**
 * Every synthesized macro compiles (the library programs are all
 * SSA-pure) and the compiled word-parallel evaluation matches
 * BitProgram::evaluate lane for lane. The three operand words below place
 * every (a, b, cin) minterm combination in some lane, so the 64
 * lanes jointly cover the whole truth table.
 */
TEST_P(KernelCacheTest, CompiledMatchesInterpreterEveryMacro)
{
    const LogicFamily family(GetParam());
    const u64 wa = 0xF0F0F0F0F0F0F0F0ULL;
    const u64 wb = 0xCCCCCCCCCCCCCCCCULL;
    const u64 wc = 0xAAAAAAAAAAAAAAAAULL;
    for (MacroKind kind : kAllMacros) {
        const BitProgram program = synthesizeMacro(kind, family);
        const CompiledKernel kernel = KernelCache::compile(program);
        ASSERT_TRUE(kernel.valid) << macroName(kind);
        EXPECT_EQ(kernel.hasCarry, program.hasCarryChain())
            << macroName(kind);
        const u64 wr = kernel.evalResult(wa, wb, wc);
        const u64 wcout =
            kernel.hasCarry ? kernel.evalCarry(wa, wb, wc) : 0;
        for (int lane = 0; lane < 64; ++lane) {
            const bool a = (wa >> lane) & 1;
            const bool b = (wb >> lane) & 1;
            const bool c = (wc >> lane) & 1;
            bool cout = false;
            const bool r = program.evaluate(a, b, c, &cout);
            EXPECT_EQ((wr >> lane) & 1, static_cast<u64>(r))
                << macroName(kind) << " lane " << lane;
            if (kernel.hasCarry) {
                EXPECT_EQ((wcout >> lane) & 1, static_cast<u64>(cout))
                    << macroName(kind) << " carry lane " << lane;
            }
        }
    }
}

/**
 * Word-parallel carry chaining through the compiled kernel: running
 * evalResult/evalCarry across bit positions with 64 independent
 * lanes must reproduce native 8-bit add/sub per lane. This is the
 * equivalence the compiled MVM reduction rests on.
 */
TEST_P(KernelCacheTest, ChainedAddSubMatchNativeArithmetic)
{
    const LogicFamily family(GetParam());
    for (MacroKind kind : {MacroKind::Add, MacroKind::Sub}) {
        const BitProgram program = synthesizeMacro(kind, family);
        const CompiledKernel kernel = KernelCache::compile(program);
        ASSERT_TRUE(kernel.valid);
        ASSERT_TRUE(kernel.hasCarry);

        constexpr int kBits = 8;
        // 64 lanes of deterministic operand pairs.
        u64 a_val[64], b_val[64];
        for (int lane = 0; lane < 64; ++lane) {
            a_val[lane] = (static_cast<u64>(lane) * 37 + 11) & 0xFF;
            b_val[lane] = (static_cast<u64>(lane) * 101 + 3) & 0xFF;
        }
        // Transpose into bit-plane words.
        u64 a_bits[kBits] = {}, b_bits[kBits] = {};
        for (int bit = 0; bit < kBits; ++bit)
            for (int lane = 0; lane < 64; ++lane) {
                a_bits[bit] |= ((a_val[lane] >> bit) & 1ULL) << lane;
                b_bits[bit] |= ((b_val[lane] >> bit) & 1ULL) << lane;
            }
        u64 carry = initialCarry(kind) ? ~0ULL : 0ULL;
        u64 result[kBits];
        for (int bit = 0; bit < kBits; ++bit) {
            result[bit] =
                kernel.evalResult(a_bits[bit], b_bits[bit], carry);
            carry = kernel.evalCarry(a_bits[bit], b_bits[bit], carry);
        }
        for (int lane = 0; lane < 64; ++lane) {
            u64 got = 0;
            for (int bit = 0; bit < kBits; ++bit)
                got |= ((result[bit] >> lane) & 1ULL) << bit;
            EXPECT_EQ(got, referenceMacro(kind, a_val[lane],
                                          b_val[lane], kBits))
                << macroName(kind) << " lane " << lane;
        }
    }
}

/**
 * Pipeline-level sweep across register widths below the 64-element
 * word: the compiled kernel evaluates full words, so the pipeline's
 * width mask must confine effects to the live elements. Covers
 * width = 1 (single live lane), an odd width, and the full word.
 */
TEST_P(KernelCacheTest, PipelineWidthMaskingBelowFullWord)
{
    constexpr int kBits = 8;
    for (std::size_t width : {std::size_t{1}, std::size_t{5},
                              std::size_t{63}, std::size_t{64}}) {
        PipelineConfig cfg;
        cfg.depth = kBits;
        cfg.width = width;
        cfg.numRegs = 8;
        cfg.family = GetParam();
        Pipeline pipe(cfg);

        std::vector<u64> a(width), b(width);
        for (std::size_t e = 0; e < width; ++e) {
            a[e] = (e * 29 + 5) & 0xFF;
            b[e] = (e * 67 + 17) & 0xFF;
        }
        for (MacroKind kind :
             {MacroKind::Xor, MacroKind::And, MacroKind::Add,
              MacroKind::Sub}) {
            pipe.setElements(0, a.data(), width, kBits);
            pipe.setElements(1, b.data(), width, kBits);
            pipe.execMacro(kind, 2, 0, 1, kBits, 0);
            std::vector<u64> out(width, 0);
            pipe.elements(2, out.data(), width, kBits);
            for (std::size_t e = 0; e < width; ++e)
                EXPECT_EQ(out[e],
                          referenceMacro(kind, a[e], b[e], kBits))
                    << macroName(kind) << " width " << width
                    << " elem " << e;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, KernelCacheTest,
                         ::testing::Values(LogicFamilyKind::Oscar,
                                           LogicFamilyKind::Ideal));

/**
 * A program that reads a scratch register before writing it is not a
 * pure function of (a, b, cin) under BitProgram::evaluate's
 * persistent-scratch semantics; compile() must refuse it (pipelines
 * run compiled kernels only, so KernelCache::macro panics on a
 * refused program).
 */
TEST(KernelCacheCompile, NonSsaProgramFallsBackToInterpreter)
{
    BitProgram program;
    program.numRegs = kFirstScratch + 1;
    // Reads scratch reg 4 before any op writes it.
    program.ops.push_back(
        GateOp{Prim::Or, kFirstScratch, kFirstScratch, kRegA});
    program.resultReg = kFirstScratch;
    const CompiledKernel kernel = KernelCache::compile(program);
    EXPECT_FALSE(kernel.valid);
}

/**
 * Counter movement on the shared instance. The cache is process-wide
 * and other tests may already have populated any key, so assert
 * deltas only: a repeated lookup is a guaranteed hit and never a
 * miss.
 */
TEST(KernelCacheCounters, RepeatLookupHitsWithoutMissing)
{
    KernelCache &cache = KernelCache::instance();
    // Ensure the entry exists (may or may not count a miss).
    cache.macro(MacroKind::Add, LogicFamilyKind::Oscar);
    const u64 hits_before = cache.hits();
    const u64 misses_before = cache.misses();
    const KernelCache::Entry &entry =
        cache.macro(MacroKind::Add, LogicFamilyKind::Oscar);
    EXPECT_TRUE(entry.kernel.valid);
    EXPECT_EQ(cache.hits(), hits_before + 1);
    EXPECT_EQ(cache.misses(), misses_before);
    // Stable reference: a second lookup returns the same entry.
    EXPECT_EQ(&cache.macro(MacroKind::Add, LogicFamilyKind::Oscar),
              &entry);
}

} // namespace
} // namespace digital
} // namespace darth
