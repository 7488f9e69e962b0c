/**
 * @file
 * Process-wide compiled-kernel cache: the dynamic-translation layer
 * of the digital PUM simulator.
 *
 * Synthesis and compilation are paid once per process:
 *
 *   1. Synthesized BitPrograms are cached per (macro kind, logic
 *      family) — the program depends on nothing else — so scratch
 *      KernelModel pipelines never re-derive them.
 *   2. Each cached program is additionally *compiled*: a per-bit gate
 *      program is a pure Boolean function of (a, b, cin), so it
 *      collapses to two 8-entry truth tables (result and carry-out).
 *      Pipelines evaluate those tables word-parallel with a handful
 *      of branch-free mask operations; the op list is never walked.
 *
 * Compilation is conservative: a program that reads a scratch
 * register before writing it is not a pure function of its inputs
 * under BitProgram::evaluate's persistent-scratch semantics, so
 * compile() refuses it. Every synthesized macro compiles, and macro()
 * panics if one ever does not. The timing/energy model is untouched —
 * op counts and stage reservations still come from the synthesized
 * program.
 */

#ifndef DARTH_DIGITAL_KERNELCACHE_H
#define DARTH_DIGITAL_KERNELCACHE_H

#include <atomic>
#include <map>
#include <mutex>
#include <utility>

#include "common/Types.h"
#include "digital/BitProgram.h"
#include "digital/LogicFamily.h"
#include "digital/Synthesis.h"

namespace darth
{
namespace digital
{

/**
 * Flat, branch-light compiled form of one BitProgram: Shannon
 * expansion on the carry input over two 2-input lookup tables, each
 * stored as four full-word minterm masks. Evaluating one bit column
 * of 64 elements costs ~20 bitwise host ops regardless of the gate
 * program's length.
 */
struct CompiledKernel
{
    /** False when the program is not SSA-pure (compile() refused it). */
    bool valid = false;
    bool hasCarry = false;
    /**
     * result[c][m]: all-ones mask when the program's result bit is 1
     * for carry-in c and operand minterm m (m = a*2 + b).
     */
    u64 result[2][4] = {{0, 0, 0, 0}, {0, 0, 0, 0}};
    /** Carry-out truth masks, same layout (valid when hasCarry). */
    u64 carry[2][4] = {{0, 0, 0, 0}, {0, 0, 0, 0}};

    /** Word-parallel LUT2: minterm masks applied to operand words. */
    static u64
    lut(const u64 m[4], u64 a, u64 b)
    {
        return (m[0] & ~a & ~b) | (m[1] & ~a & b) | (m[2] & a & ~b) |
               (m[3] & a & b);
    }

    /** result word for operand words a/b and carry word c. */
    u64
    evalResult(u64 a, u64 b, u64 c) const
    {
        return (~c & lut(result[0], a, b)) | (c & lut(result[1], a, b));
    }

    /** carry-out word for operand words a/b and carry word c. */
    u64
    evalCarry(u64 a, u64 b, u64 c) const
    {
        return (~c & lut(carry[0], a, b)) | (c & lut(carry[1], a, b));
    }
};

/**
 * Process-wide translation cache shared by every Pipeline (and so by
 * every chip, scratch KernelModel HCT, and worker thread). Entries
 * are keyed by (MacroKind, LogicFamilyKind) — the only inputs
 * synthesizeMacro consumes — and never evicted; the whole population
 * is the macro-kind cross logic-family product.
 */
class KernelCache
{
  public:
    /** One cached macro: the synthesized program + its compiled form. */
    struct Entry
    {
        BitProgram program;
        CompiledKernel kernel;
    };

    /** The process-wide instance. */
    static KernelCache &instance();

    /**
     * Look up (synthesizing + compiling on first use) the entry for a
     * macro kind under a logic family; its kernel is always valid.
     * The returned reference is stable for the process lifetime.
     * Thread-safe.
     */
    const Entry &macro(MacroKind kind, LogicFamilyKind family);

    /** Cumulative lookup hits (entry already present). */
    u64 hits() const { return hits_.load(std::memory_order_relaxed); }

    /** Cumulative lookup misses (synthesis + compilation runs). */
    u64
    misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }

    /**
     * Compile a BitProgram to truth-table form. Public for tests;
     * returns kernel.valid = false when the program reads a scratch
     * register before writing it (not a pure function of a/b/cin).
     */
    static CompiledKernel compile(const BitProgram &program);

  private:
    KernelCache() = default;

    mutable std::mutex mu_;
    std::map<std::pair<int, int>, Entry> entries_;
    std::atomic<u64> hits_{0};
    std::atomic<u64> misses_{0};
};

} // namespace digital
} // namespace darth

#endif // DARTH_DIGITAL_KERNELCACHE_H
