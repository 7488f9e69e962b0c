/**
 * @file
 * RACER-style bit-pipelined digital PUM pipeline.
 *
 * A pipeline is a chain of `depth` SLC ReRAM arrays. Vector register
 * (VR) j occupies column j of every array; element e occupies row e;
 * array i holds bit position i of every value (Figure 5: values are
 * bit-striped). A macro instruction (ADD, XOR, ...) is realized as a
 * short gate program per bit position, executed in array i for bit i;
 * instructions flow through the arrays like a classic pipeline, so
 * independent macros overlap (bit-pipelining) while carry chains
 * serialize stage-to-stage.
 *
 * The pipeline is simultaneously a *functional* simulator (bit columns
 * are evaluated with real gate programs, so results are bit-exact) and
 * a *timing* model (per-stage reservation of array time).
 *
 * Registers written through holdElements() keep their element words
 * and are transposed into bit columns only when an access reaches
 * them, so an HCT that writes its accumulator after every MVM pays no
 * transpose unless something reads it.
 */

#ifndef DARTH_DIGITAL_PIPELINE_H
#define DARTH_DIGITAL_PIPELINE_H

#include <cstddef>
#include <string>
#include <vector>

#include "common/Stats.h"
#include "common/Types.h"
#include "digital/KernelCache.h"
#include "digital/LogicFamily.h"
#include "digital/Synthesis.h"

namespace darth
{
namespace digital
{

/** Static configuration of one pipeline (Table 2 defaults). */
struct PipelineConfig
{
    /** Number of arrays in the chain = bit-width capacity. */
    std::size_t depth = 64;
    /** Elements per vector register (array rows). */
    std::size_t width = 64;
    /** Vector registers (array columns). */
    std::size_t numRegs = 64;
    /** Logic family executed by the arrays. */
    LogicFamilyKind family = LogicFamilyKind::Oscar;
    /** Energy per in-array column primitive, picojoules. */
    double opEnergyPJ = 8.0;
    /** Energy per row-wide I/O access, picojoules. */
    double ioEnergyPJ = 1.5;
};

/**
 * One bit-pipelined compute pipeline with its vector register file.
 */
class Pipeline
{
  public:
    /**
     * @param config  Pipeline geometry and logic family.
     * @param tally   Optional cost sink (categories "dce.*").
     */
    explicit Pipeline(const PipelineConfig &config,
                      CostTally *tally = nullptr);

    const PipelineConfig &config() const { return cfg_; }
    const LogicFamily &family() const { return family_; }

    // ------------------------------------------------------------------
    // Functional state access (test/debug interface; no cost recorded).
    // ------------------------------------------------------------------

    /** Write an element's integer value into a VR. */
    void setElement(std::size_t vr, std::size_t elem, u64 value);

    /** Read an element's integer value (low `bits` bits). */
    u64 element(std::size_t vr, std::size_t elem,
                std::size_t bits = 64) const;

    /**
     * Batch transfer: write elements 0..count-1 of a VR in one call,
     * each element's low `bits` columns taken from values[e]
     * (elements >= count and columns >= bits keep their contents).
     * One 64x64 bit-matrix transpose on the host replaces count*bits
     * single-bit writes — the ADC-to-DCE staging hot path.
     */
    void setElements(std::size_t vr, const u64 *values,
                     std::size_t count, std::size_t bits);

    /**
     * setElements() deferred: keeps the words and transposes them into
     * `vr`'s bit columns only when a read or a partial write reaches
     * `vr`. Every access sees exactly what setElements() would have
     * left; clearReg() and a later holdElements() of `vr` discard or
     * supersede them.
     */
    void holdElements(std::size_t vr, const u64 *values,
                      std::size_t count, std::size_t bits);

    /**
     * Batch read of elements 0..count-1 (low `bits` bits each) into
     * out[e] — the transposed inverse of setElements, used for
     * accumulator readback.
     */
    void elements(std::size_t vr, u64 *out, std::size_t count,
                  std::size_t bits) const;

    /** Zero out a vector register (discarding any held words). */
    void clearReg(std::size_t vr);

    // ------------------------------------------------------------------
    // Macro execution (functional + timed). All exec* methods return
    // the cycle at which the macro completes, given the earliest issue
    // time; per-stage occupancy is reserved internally.
    // ------------------------------------------------------------------

    /** dst = op(a, b) over the low `bits` bit positions. */
    Cycle execMacro(MacroKind kind, std::size_t dst, std::size_t a,
                    std::size_t b, std::size_t bits, Cycle issue);

    /**
     * Timing of `count` >= 1 back-to-back carry-chained macros of one
     * kind (Add, Sub) over 1..depth bits, issued at
     * issues[0..count): leaves every stage clock where `count`
     * execMacro calls in that order would, and returns the latest of
     * their completions, in O(count + bits) instead of
     * O(count * bits). No functional work.
     * Their ops are added to opCount() but not charged to the tally:
     * the caller charges `dce.boolop`, so a DCE reducing over several
     * pipelines can add the energy in its per-partial-product order.
     */
    Cycle timeMacroRun(MacroKind kind, std::size_t bits,
                       const Cycle *issues, std::size_t count);

    /**
     * timeMacroRun() with the issue cycles already folded into
     * from_issue = max_k(issues[k] + w·(count-1-k)), w the macro's ops
     * per stage: O(bits), for a caller that issues runs of one shape
     * again and again and folds its issue offsets once.
     */
    Cycle timeMacroRun(MacroKind kind, std::size_t bits,
                       Cycle from_issue, std::size_t count);

    /**
     * Logical shift of bit positions by k (up = toward MSB,
     * multiply by 2^k). Implemented with the inter-array transfer
     * buffers: two accesses per stage, chained along the pipeline.
     */
    Cycle execShift(std::size_t dst, std::size_t src, std::size_t k,
                    bool up, std::size_t bits, Cycle issue);

    // ------------------------------------------------------------------
    // Row I/O (the DCE write port: one row per cycle).
    // ------------------------------------------------------------------

    /**
     * Write `bits` bits of `value` into element row `elem` of register
     * `vr`, starting at bit position `lo_bit` (the shift units set
     * lo_bit during ACE->DCE transfers). One cycle.
     */
    Cycle writeRow(std::size_t vr, std::size_t elem, u64 value,
                   std::size_t lo_bit, std::size_t bits, Cycle when);

    /** Read element row `elem` of register `vr`. One cycle. */
    u64 readRow(std::size_t vr, std::size_t elem, Cycle when);

    /**
     * Element-wise gather (the DARTH-PUM load extension, §4.2): for
     * each element e, read addr = a[e] from `addr_vr`, fetch entry
     * `addr` from the table laid out in `table` starting at register
     * `table_base_vr` (entry t lives at register table_base_vr + t /
     * width, row t % width), and write it to dst[e]. Three cycles per
     * element (address read-out, adjacent-pipeline read, write-back).
     */
    Cycle elementLoad(std::size_t dst, std::size_t addr_vr,
                      const Pipeline &table, std::size_t table_base_vr,
                      std::size_t bits, Cycle issue);

    /** Cycle at which stage `stage` can accept a new macro. */
    Cycle stageFreeAt(std::size_t stage) const;

    /** Cycle at which the whole pipeline drains (max stage time). */
    Cycle drainTime() const;

    /**
     * Overwrite every stage's free time (both directions) — the
     * pipeline-side analogue of Arbiter::rebase. KernelModel uses it
     * to time each measured shape from cycle 0 on the reused scratch
     * tile instead of behind the previous measurement's stages.
     */
    void
    rebase(Cycle when)
    {
        for (auto &stage : stageFree_)
            stage = when;
    }

    /** Total in-array primitive ops executed so far. */
    u64 opCount() const { return opCount_; }

  private:
    /**
     * Per-instance pointer cache over the process-wide KernelCache:
     * macro programs are family-fixed, execMacro sits on the
     * MVM-reduction hot path, and the global cache's entries are
     * stable for the process lifetime.
     */
    const KernelCache::Entry &cachedEntry(MacroKind kind);

    /** Reserve stage time for a macro; returns completion cycle. */
    Cycle reserveStages(std::size_t bits, Cycle issue,
                        Cycle ops_per_stage, bool carry_chained);

    /**
     * Functionally evaluate a cached macro column-parallel through
     * its compiled truth-table kernel (KernelCache compiles every
     * synthesized macro).
     *
     * @param carry        Initial carry column fed to kRegCin.
     * @param chain_carry  Propagate carry-out between bit positions.
     */
    void runProgram(const KernelCache::Entry &entry, std::size_t dst,
                    std::size_t a, std::size_t b, std::size_t bits,
                    u64 carry, bool chain_carry);

    /**
     * The column merge of setElements (unchecked). Const so that a
     * const reader can settle held words: the columns are mutable.
     */
    void writeElements(std::size_t vr, const u64 *values,
                       std::size_t count, std::size_t bits) const;

    /** Transpose `vr`'s held words, if any, into its bit columns. */
    void
    settle(std::size_t vr) const
    {
        if (!held_.empty())
            settleHeld(vr);
    }
    void settleHeld(std::size_t vr) const;

    /**
     * Store bits 0..bits-1 of `value` in element `elem`'s row, at
     * columns lo_bit..lo_bit+bits-1 of register `vr` (unchecked).
     */
    void writeBits(std::size_t vr, std::size_t elem, u64 value,
                   std::size_t lo_bit, std::size_t bits);

    void checkReg(std::size_t vr) const;
    void checkElem(std::size_t elem) const;

    void recordOps(u64 column_ops);
    void recordIo(u64 accesses);

    PipelineConfig cfg_;
    LogicFamily family_;
    CostTally *tally_;

    /** Low `width` bits set: the valid elements of a column word. */
    u64 widthMask_;
    /**
     * bits_[vr][bit] = one bit column packed into a word: bit e is
     * element e (width <= 64 is enforced at construction). Mutable,
     * with held_, because settling held words changes how a value is
     * stored, not the value.
     */
    mutable std::vector<std::vector<u64>> bits_;
    /** Words of a holdElements() call not yet transposed into bits_. */
    struct Held
    {
        std::size_t vr = 0;
        std::size_t count = 0;
        std::size_t bits = 0;
        u64 words[64] = {};
    };
    /** At most one entry per register. */
    mutable std::vector<Held> held_;
    std::vector<Cycle> stageFree_;
    /** entries_[kind]: resolved KernelCache entry (null until used). */
    std::vector<const KernelCache::Entry *> entries_;
    u64 opCount_ = 0;

    /** Tally accumulators, resolved again when KernelModel clears its
     *  scratch tallies between measured shapes. */
    CostHandle boolopEntry_{"dce.boolop"};
    CostHandle ioEntry_{"dce.io"};
};

} // namespace digital
} // namespace darth

#endif // DARTH_DIGITAL_PIPELINE_H
