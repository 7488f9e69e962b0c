#include "digital/Pipeline.h"

#include <algorithm>
#include <utility>

#include "common/Logging.h"

namespace darth
{
namespace digital
{

Pipeline::Pipeline(const PipelineConfig &config, CostTally *tally)
    : cfg_(config), family_(config.family), tally_(tally),
      widthMask_(config.width >= 64 ? ~u64{0}
                                    : (u64{1} << config.width) - 1),
      stageFree_(config.depth, 0)
{
    if (cfg_.depth == 0 || cfg_.width == 0 || cfg_.numRegs == 0)
        darth_fatal("Pipeline: zero-sized configuration");
    if (cfg_.width > 64)
        darth_fatal("Pipeline: width > 64 elements per array is not "
                    "supported by the row I/O model");
    bits_.assign(cfg_.numRegs, std::vector<u64>(cfg_.depth, 0));
}

void
Pipeline::checkReg(std::size_t vr) const
{
    if (vr >= cfg_.numRegs)
        darth_panic("Pipeline: VR ", vr, " out of range ", cfg_.numRegs);
}

void
Pipeline::checkElem(std::size_t elem) const
{
    if (elem >= cfg_.width)
        darth_panic("Pipeline: element ", elem, " out of range ",
                    cfg_.width);
}

void
Pipeline::writeBits(std::size_t vr, std::size_t elem, u64 value,
                    std::size_t lo_bit, std::size_t bits)
{
    const u64 row = u64{1} << elem;
    for (std::size_t i = 0; i < bits; ++i) {
        u64 &column = bits_[vr][lo_bit + i];
        // A u64 value has no bits past 64: those columns get zeros.
        if (i < 64 && ((value >> i) & 1ULL))
            column |= row;
        else
            column &= ~row;
    }
}

void
Pipeline::setElement(std::size_t vr, std::size_t elem, u64 value)
{
    checkReg(vr);
    checkElem(elem);
    writeBits(vr, elem, value, 0, cfg_.depth);
}

namespace
{

/**
 * In-place 64x64 bit-matrix transpose network (the classic recursive
 * block-swap). In LSB indexing the raw network transposes along the
 * anti-diagonal, so callers go through bitTranspose below.
 */
void
transposeNetwork64(u64 a[64])
{
    u64 m = 0x00000000FFFFFFFFULL;
    for (u64 j = 32; j != 0; j >>= 1, m ^= m << j) {
        for (std::size_t k = 0; k < 64; k = (k + j + 1) & ~j) {
            const u64 t = (a[k] ^ (a[k + j] >> j)) & m;
            a[k] ^= t;
            a[k + j] ^= t << j;
        }
    }
}

/**
 * Main-diagonal 64x64 bit transpose: out[b] bit e == in[e] bit b.
 * Reversing the row order on the way in and out turns the network's
 * anti-diagonal transpose into the main-diagonal one; the transform
 * is an involution, so one function serves write and readback.
 */
void
bitTranspose(const u64 in[64], u64 out[64])
{
    u64 a[64];
    for (std::size_t k = 0; k < 64; ++k)
        a[k] = in[63 - k];
    transposeNetwork64(a);
    for (std::size_t b = 0; b < 64; ++b)
        out[b] = a[63 - b];
}

} // namespace

void
Pipeline::setElements(std::size_t vr, const u64 *values,
                      std::size_t count, std::size_t bits)
{
    checkReg(vr);
    if (count > cfg_.width)
        darth_panic("Pipeline: ", count, " elements out of range ",
                    cfg_.width);
    u64 in[64] = {0};
    for (std::size_t e = 0; e < count; ++e)
        in[e] = values[e];
    u64 columns[64];
    bitTranspose(in, columns);
    const u64 elem_mask =
        count >= 64 ? ~u64{0} : ((u64{1} << count) - 1);
    const std::size_t n = std::min(bits, cfg_.depth);
    for (std::size_t bit = 0; bit < n && bit < 64; ++bit) {
        u64 &column = bits_[vr][bit];
        column = ((column & ~elem_mask) | (columns[bit] & elem_mask)) &
                 widthMask_;
    }
    // As in writeBits, columns past 64 get zeros.
    for (std::size_t bit = 64; bit < n; ++bit)
        bits_[vr][bit] &= ~elem_mask;
}

void
Pipeline::elements(std::size_t vr, u64 *out, std::size_t count,
                   std::size_t bits) const
{
    checkReg(vr);
    if (count > cfg_.width)
        darth_panic("Pipeline: ", count, " elements out of range ",
                    cfg_.width);
    u64 columns[64] = {0};
    const std::size_t n =
        std::min<std::size_t>({bits, cfg_.depth, 64});
    for (std::size_t bit = 0; bit < n; ++bit)
        columns[bit] = bits_[vr][bit];
    u64 values[64];
    bitTranspose(columns, values);
    for (std::size_t e = 0; e < count; ++e)
        out[e] = values[e];
}

u64
Pipeline::element(std::size_t vr, std::size_t elem,
                  std::size_t bits) const
{
    checkReg(vr);
    checkElem(elem);
    u64 value = 0;
    const std::size_t n = std::min<std::size_t>({bits, cfg_.depth, 64});
    for (std::size_t bit = 0; bit < n; ++bit)
        value |= ((bits_[vr][bit] >> elem) & 1ULL) << bit;
    return value;
}

void
Pipeline::clearReg(std::size_t vr)
{
    checkReg(vr);
    std::fill(bits_[vr].begin(), bits_[vr].end(), u64{0});
}

void
Pipeline::recordOps(u64 column_ops)
{
    opCount_ += column_ops;
    if (tally_ == nullptr)
        return;
    if (tallyGen_ != tally_->generation()) {
        tallyGen_ = tally_->generation();
        boolopEntry_ = nullptr;
        ioEntry_ = nullptr;
    }
    if (boolopEntry_ == nullptr)
        boolopEntry_ = &tally_->entry("dce.boolop");
    boolopEntry_->events += column_ops;
    boolopEntry_->cycles += column_ops;
    boolopEntry_->energy +=
        static_cast<double>(column_ops) * cfg_.opEnergyPJ;
}

void
Pipeline::recordIo(u64 accesses)
{
    if (tally_ == nullptr)
        return;
    if (tallyGen_ != tally_->generation()) {
        tallyGen_ = tally_->generation();
        boolopEntry_ = nullptr;
        ioEntry_ = nullptr;
    }
    if (ioEntry_ == nullptr)
        ioEntry_ = &tally_->entry("dce.io");
    ioEntry_->events += accesses;
    ioEntry_->cycles += accesses;
    ioEntry_->energy += static_cast<double>(accesses) * cfg_.ioEnergyPJ;
}

Cycle
Pipeline::reserveStages(std::size_t bits, Cycle issue,
                        Cycle ops_per_stage, bool carry_chained)
{
    if (bits > cfg_.depth)
        darth_panic("Pipeline: macro over ", bits,
                    " bits exceeds depth ", cfg_.depth);
    // Control hands the macro to successive arrays one cycle apart; a
    // carry chain additionally forces stage i to wait for stage i-1's
    // full completion.
    Cycle prev_start = issue;
    Cycle prev_done = issue;
    Cycle completion = issue;
    for (std::size_t i = 0; i < bits; ++i) {
        const Cycle ready =
            carry_chained ? std::max(issue, prev_done)
                          : std::max(issue, prev_start + (i > 0 ? 1 : 0));
        const Cycle start = std::max(ready, stageFree_[i]);
        const Cycle done = start + ops_per_stage;
        stageFree_[i] = done;
        prev_start = start;
        prev_done = done;
        completion = std::max(completion, done);
    }
    return completion;
}

void
Pipeline::runProgram(const KernelCache::Entry &entry, std::size_t dst,
                     std::size_t a, std::size_t b, std::size_t bits,
                     u64 carry, bool chain_carry)
{
    // Column i of every scratch register is one packed word, like
    // the register file's; masking each op to the width keeps the
    // elements past `width` zero.

    // Fast path: the compiled truth-table kernel replaces the op
    // walk with a fixed handful of word operations per bit column.
    const CompiledKernel &kernel = entry.kernel;
    if (kernel.valid) {
        for (std::size_t bit = 0; bit < bits; ++bit) {
            const u64 wa = bits_[a][bit];
            const u64 wb = bits_[b][bit];
            const u64 out = kernel.evalResult(wa, wb, carry) & widthMask_;
            if (chain_carry && kernel.hasCarry)
                carry = kernel.evalCarry(wa, wb, carry) & widthMask_;
            bits_[dst][bit] = out;
        }
        return;
    }

    const BitProgram &program = entry.program;
    std::vector<u64> regs(static_cast<std::size_t>(program.numRegs),
                          0ULL);
    for (std::size_t bit = 0; bit < bits; ++bit) {
        regs[kRegA] = bits_[a][bit];
        regs[kRegB] = bits_[b][bit];
        regs[kRegCin] = carry;
        regs[kRegZero] = 0ULL;
        for (const auto &op : program.ops) {
            const u64 sa = regs[static_cast<std::size_t>(op.srcA)];
            const u64 sb = regs[static_cast<std::size_t>(op.srcB)];
            u64 out = 0;
            switch (op.prim) {
              case Prim::Nor: out = ~(sa | sb); break;
              case Prim::Or: out = sa | sb; break;
              case Prim::And: out = sa & sb; break;
              case Prim::Nand: out = ~(sa & sb); break;
              case Prim::Xor: out = sa ^ sb; break;
              case Prim::Xnor: out = ~(sa ^ sb); break;
              case Prim::Not: out = ~sa; break;
              case Prim::Copy: out = sa; break;
            }
            regs[static_cast<std::size_t>(op.dst)] = out & widthMask_;
        }
        bits_[dst][bit] =
            regs[static_cast<std::size_t>(program.resultReg)] &
            widthMask_;
        if (chain_carry && program.hasCarryChain())
            carry = regs[static_cast<std::size_t>(program.carryOutReg)];
    }
}

const KernelCache::Entry &
Pipeline::cachedEntry(MacroKind kind)
{
    const std::size_t index = static_cast<std::size_t>(kind);
    if (entries_.size() <= index)
        entries_.resize(index + 1, nullptr);
    if (entries_[index] == nullptr)
        entries_[index] = &KernelCache::instance().macro(kind,
                                                         cfg_.family);
    return *entries_[index];
}

Cycle
Pipeline::execMacro(MacroKind kind, std::size_t dst, std::size_t a,
                    std::size_t b, std::size_t bits, Cycle issue)
{
    checkReg(dst);
    checkReg(a);
    checkReg(b);
    if (bits > cfg_.depth)
        darth_panic("Pipeline: macro over ", bits,
                    " bits exceeds depth ", cfg_.depth);
    const KernelCache::Entry &entry = cachedEntry(kind);
    const BitProgram &program = entry.program;
    runProgram(entry, dst, a, b, bits,
               initialCarry(kind) ? widthMask_ : u64{0},
               program.hasCarryChain());
    recordOps(static_cast<u64>(program.opCount()) * bits);
    return reserveStages(bits, issue, program.opCount(),
                         program.hasCarryChain());
}

Cycle
Pipeline::timeMacro(MacroKind kind, std::size_t bits, Cycle issue)
{
    if (bits > cfg_.depth)
        darth_panic("Pipeline: macro over ", bits,
                    " bits exceeds depth ", cfg_.depth);
    const KernelCache::Entry &entry = cachedEntry(kind);
    const BitProgram &program = entry.program;
    recordOps(static_cast<u64>(program.opCount()) * bits);
    return reserveStages(bits, issue, program.opCount(),
                         program.hasCarryChain());
}

Cycle
Pipeline::execShift(std::size_t dst, std::size_t src, std::size_t k,
                    bool up, std::size_t bits, Cycle issue)
{
    checkReg(dst);
    checkReg(src);
    if (bits > cfg_.depth)
        darth_panic("Pipeline: shift over ", bits, " bits exceeds depth");

    // Functional: move bit columns by k positions.
    std::vector<u64> out(cfg_.depth, 0);
    for (std::size_t bit = 0; bit < bits; ++bit) {
        if (up) {
            if (bit + k < cfg_.depth)
                out[bit + k] = bits_[src][bit];
        } else {
            if (bit >= k)
                out[bit - k] = bits_[src][bit];
        }
    }
    bits_[dst] = std::move(out);

    // Timing: each stage reads its column into the inter-array buffer
    // and the receiving stage writes it (2 accesses per hop), flowing
    // along the pipeline like a non-chained macro.
    const Cycle per_stage = 2 * std::max<std::size_t>(k, 1);
    recordOps(per_stage * bits);
    return reserveStages(bits, issue, per_stage, false);
}

Cycle
Pipeline::writeRow(std::size_t vr, std::size_t elem, u64 value,
                   std::size_t lo_bit, std::size_t bits, Cycle when)
{
    checkReg(vr);
    checkElem(elem);
    if (lo_bit + bits > cfg_.depth)
        darth_panic("Pipeline::writeRow: bits [", lo_bit, ", ",
                    lo_bit + bits, ") exceed depth ", cfg_.depth);
    writeBits(vr, elem, value, lo_bit, bits);
    recordIo(1);
    return when + 1;        // the DCE write port moves one row/cycle
}

u64
Pipeline::readRow(std::size_t vr, std::size_t elem, Cycle when)
{
    (void)when;
    recordIo(1);
    return element(vr, elem, cfg_.depth);
}

Cycle
Pipeline::elementLoad(std::size_t dst, std::size_t addr_vr,
                      const Pipeline &table, std::size_t table_base_vr,
                      std::size_t bits, Cycle issue)
{
    checkReg(dst);
    checkReg(addr_vr);
    Cycle t = std::max(issue, drainTime());
    for (std::size_t elem = 0; elem < cfg_.width; ++elem) {
        const u64 addr = element(addr_vr, elem, bits);
        const std::size_t entry_vr =
            table_base_vr +
            static_cast<std::size_t>(addr) / table.cfg_.width;
        const std::size_t entry_row =
            static_cast<std::size_t>(addr) % table.cfg_.width;
        if (entry_vr >= table.cfg_.numRegs)
            darth_panic("Pipeline::elementLoad: address ", addr,
                        " overflows the table registers");
        const u64 value = table.element(entry_vr, entry_row, bits);
        setElement(dst, elem, value);
        t += 3;              // address read, table read, write-back
        recordIo(3);
    }
    for (auto &stage : stageFree_)
        stage = std::max(stage, t);
    return t;
}

Cycle
Pipeline::drainTime() const
{
    Cycle latest = 0;
    for (Cycle stage : stageFree_)
        latest = std::max(latest, stage);
    return latest;
}

} // namespace digital
} // namespace darth
