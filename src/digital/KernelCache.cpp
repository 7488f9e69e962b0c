#include "digital/KernelCache.h"

#include <vector>

#include "common/Logging.h"

namespace darth
{
namespace digital
{

KernelCache &
KernelCache::instance()
{
    static KernelCache cache; // determinism-lint: allow(static-mutable-local) process-wide cache: entries_ is only touched under mu_, counters are atomic
    return cache;
}

CompiledKernel
KernelCache::compile(const BitProgram &program)
{
    CompiledKernel kernel;
    if (program.resultReg < 0 || program.resultReg >= program.numRegs)
        return kernel;
    if (program.carryOutReg >= program.numRegs)
        return kernel;

    // SSA-purity guard: BitProgram::evaluate's scratch registers
    // persist across bit positions, so a program is a pure function
    // of (a, b, cin) only if every scratch register is written before
    // it is read. Anything else is refused.
    std::vector<bool> defined(static_cast<std::size_t>(program.numRegs),
                              false);
    defined[kRegA] = defined[kRegB] = true;
    defined[kRegCin] = defined[kRegZero] = true;
    for (const auto &op : program.ops) {
        if (op.srcA < 0 || op.srcA >= program.numRegs)
            return kernel;
        if (op.srcB < 0 || op.srcB >= program.numRegs)
            return kernel;
        if (op.dst < 0 || op.dst >= program.numRegs)
            return kernel;
        if (!defined[static_cast<std::size_t>(op.srcA)])
            return kernel;
        // Not/Copy ignore srcB, so an undefined srcB is harmless.
        const bool uses_b = op.prim != Prim::Not && op.prim != Prim::Copy;
        if (uses_b && !defined[static_cast<std::size_t>(op.srcB)])
            return kernel;
        defined[static_cast<std::size_t>(op.dst)] = true;
    }
    if (!defined[static_cast<std::size_t>(program.resultReg)])
        return kernel;
    kernel.hasCarry = program.hasCarryChain();
    if (kernel.hasCarry &&
        !defined[static_cast<std::size_t>(program.carryOutReg)])
        return kernel;

    // Truth-table extraction: 8 scalar reference evaluations cover
    // the whole (a, b, cin) input space.
    for (int cin = 0; cin < 2; ++cin) {
        for (int a = 0; a < 2; ++a) {
            for (int b = 0; b < 2; ++b) {
                bool cout = false;
                const bool r = program.evaluate(a != 0, b != 0,
                                                cin != 0, &cout);
                const std::size_t m =
                    static_cast<std::size_t>(a * 2 + b);
                kernel.result[cin][m] = r ? ~0ULL : 0ULL;
                if (kernel.hasCarry)
                    kernel.carry[cin][m] = cout ? ~0ULL : 0ULL;
            }
        }
    }
    kernel.valid = true;
    return kernel;
}

const KernelCache::Entry &
KernelCache::macro(MacroKind kind, LogicFamilyKind family)
{
    const std::pair<int, int> key(static_cast<int>(kind),
                                  static_cast<int>(family));
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    Entry entry;
    entry.program = synthesizeMacro(kind, LogicFamily(family));
    entry.kernel = compile(entry.program);
    // Pipelines execute only compiled kernels; every synthesized
    // macro is SSA-pure (KernelCacheTest holds all of them).
    if (!entry.kernel.valid)
        darth_panic("KernelCache: synthesized ", macroName(kind),
                    " program does not compile");
    return entries_.emplace(key, std::move(entry)).first->second;
}

} // namespace digital
} // namespace darth
