/**
 * @file
 * Kernel timing/energy oracle.
 *
 * The application mappers (CNN layers, LLM encoder blocks) need
 * per-kernel latency and energy for shapes that are executed many
 * thousands of times; re-simulating every invocation bit-by-bit would
 * be wasteful and adds nothing (PUM cycle counts are data-independent).
 * KernelModel measures each distinct shape ONCE on a real Hct /
 * Pipeline instance and caches the result, so the numbers used by the
 * benches are exactly the simulator's numbers (a test asserts this).
 */

#ifndef DARTH_RUNTIME_KERNELMODEL_H
#define DARTH_RUNTIME_KERNELMODEL_H

#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "hct/Hct.h"

namespace darth
{
namespace runtime
{

/** Shape of one analog-reduced MVM. */
struct MvmShape
{
    std::size_t rows = 0;
    std::size_t cols = 0;
    int elementBits = 1;
    int bitsPerCell = 1;
    int inputBits = 1;

    auto
    key() const
    {
        return std::tie(rows, cols, elementBits, bitsPerCell,
                        inputBits);
    }
    bool operator<(const MvmShape &o) const { return key() < o.key(); }
};

/** Measured cost of one kernel invocation. */
struct KernelCost
{
    /** End-to-end latency on an idle tile. */
    Cycle latency = 0;
    /** Additional latency per back-to-back repetition (pipelining). */
    Cycle amortized = 0;
    /** Energy per invocation. */
    PicoJoule energy = 0.0;
};

/**
 * Canonical serialization of every HctConfig field that can influence
 * a KernelModel measurement, plus the measurement seed. This is the
 * process-wide cost-memo key prefix: two KernelModels share memoized
 * measurements iff their silicon keys are equal, so identical chips
 * in a pool pay for each (shape, bits) measurement once. Doubles are
 * serialized by bit pattern, so the key is collision-free — any
 * config delta, however small, yields a distinct key.
 */
std::string siliconKey(const hct::HctConfig &config, u64 seed);

/** Measures and caches kernel costs on a scratch HCT. */
class KernelModel
{
  public:
    explicit KernelModel(const hct::HctConfig &config, u64 seed = 1);

    const hct::HctConfig &config() const { return cfg_; }

    /** Full hybrid MVM cost (ACE + transfer + DCE reduction). */
    KernelCost mvm(const MvmShape &shape);

    /** One digital vector macro over `bits` bit positions. */
    KernelCost macro(digital::MacroKind kind, std::size_t bits);

    /**
     * Integer multiply of two `bits`-bit vectors implemented as
     * shift-and-add in the DCE (bits conditional additions).
     */
    KernelCost multiply(std::size_t bits);

    /** Row I/O for `elements` rows (1 cycle each). */
    KernelCost rowIo(std::size_t elements) const;

  private:
    hct::Hct &scratchHct();
    digital::Pipeline &scratchPipe();

    hct::HctConfig cfg_;
    u64 seed_;
    /** Memo key prefix (computed once; cfg_/seed_ are immutable). */
    std::string siliconKey_;
    CostTally hctTally_;
    CostTally pipeTally_;
    std::unique_ptr<hct::Hct> hct_;
    std::unique_ptr<digital::Pipeline> pipe_;
    std::map<MvmShape, KernelCost> mvmCache_;
    std::map<std::tuple<int, std::size_t>, KernelCost> macroCache_;
};

} // namespace runtime
} // namespace darth

#endif // DARTH_RUNTIME_KERNELMODEL_H
