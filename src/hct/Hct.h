/**
 * @file
 * Hybrid Compute Tile (Section 4, Figure 8).
 *
 * An HCT couples one Analog Compute Element (64 crossbars + ADCs) with
 * one Digital Compute Element (64 RACER pipelines) through:
 *
 *  - shift units that place each ADC output into its final bit
 *    position *during* the ACE->DCE transfer (Figure 10b), removing
 *    the write/shift/add serialization of naive hybrid PUM;
 *  - a transpose unit for row-vector <-> column-element crossings;
 *  - an analog/digital arbiter that makes MVMs atomic;
 *  - an instruction injection unit that replays the shift-and-add µop
 *    sequence locally instead of through the shared front end;
 *  - the vACore abstraction: a logical group of analog arrays
 *    configured for one (element width, bits/cell) operating point.
 *
 * execMvm() runs the full Figure 9 walkthrough: bit-serial analog MVM,
 * partial-product transfer, and pipelined ADD/SUB reduction in the
 * DCE, returning bit-exact integer results in the ideal-noise
 * configuration. With shift units the reduction's host work does not
 * grow with the number of conversions, except for one loop of energy
 * additions: the accumulator is the integer sum of the shifted codes
 * (under ideal noise, one product W·x); the ADC, network and DCE issue
 * timing of an MVM is a fixed offset from its analog start, so it is
 * planned once per (input width, sign) of the programmed matrix and
 * each pipeline's stage clocks advance in closed form from that plan;
 * and the accumulator and last staged value are held in the register
 * file untransposed until read. Without shift units every partial
 * product is staged, shifted and added in the DCE one by one.
 */

#ifndef DARTH_HCT_HCT_H
#define DARTH_HCT_HCT_H

#include <cstddef>
#include <vector>

#include "analog/Ace.h"
#include "common/Stats.h"
#include "digital/Dce.h"
#include "hct/Arbiter.h"
#include "hct/InjectionUnit.h"
#include "hct/TransposeUnit.h"

namespace darth
{
namespace hct
{

/** Static configuration of one HCT (Table 2 defaults). */
struct HctConfig
{
    digital::DceConfig dce;
    analog::AceConfig ace;
    /** Shift-during-transfer units (Figure 10 optimization). */
    bool shiftUnits = true;
    IiuConfig iiu;
    TransposeConfig transpose;
    Cycle arbiterSwitchPenalty = 1;
    /** ACE->DCE network width (rate-matched to ADC throughput). */
    std::size_t networkBytesPerCycle = 8;
    double networkEnergyPerBytePJ = 0.1;

    /** The paper's Table 2 configuration for the given ADC kind. */
    static HctConfig paperDefault(analog::AdcKind adc);
};

/**
 * Throws std::invalid_argument, naming `who`, when an MVM over `rows`
 * rows needs a wider accumulator than `cfg`'s DCE reduces into
 * (min(pipeline depth, 63) bits): its result would wrap.
 */
void checkAccumulatorFits(const HctConfig &cfg, int element_bits,
                          int input_bits, std::size_t rows,
                          const char *who);

/** A vACore operating point (Section 4.2). */
struct VACore
{
    int elementBits = 0;
    int bitsPerCell = 0;
    bool valid = false;
};

/** One hybrid compute tile. */
class Hct
{
  public:
    explicit Hct(const HctConfig &config, CostTally *tally = nullptr,
                 u64 seed = 1);

    const HctConfig &config() const { return cfg_; }

    analog::Ace &ace() { return ace_; }
    digital::Dce &dce() { return dce_; }
    Arbiter &arbiter() { return arbiter_; }
    InjectionUnit &iiu() { return iiu_; }
    TransposeUnit &transposer() { return transpose_; }

    // ------------------------------------------------------------------
    // vACore / matrix management (Table 1 semantics).
    // ------------------------------------------------------------------

    /**
     * Allocate a vACore: fixes the (element width, bits/cell)
     * operating point and programs the shift units and IIU µop table
     * for the matching shift-and-add sequence.
     */
    void allocVACore(int element_bits, int bits_per_cell);

    const VACore &vacore() const { return vacore_; }

    /** Program a matrix into the active vACore. */
    void setMatrix(const MatrixI &m, int element_bits, int bits_per_cell);

    /** Disable the ACE; copies the matrix into DCE registers. */
    Cycle disableAnalogMode(Cycle start);

    bool analogEnabled() const { return analogEnabled_; }

    // ------------------------------------------------------------------
    // Hybrid MVM (the Figure 9 walkthrough).
    // ------------------------------------------------------------------

    struct MvmResult
    {
        std::vector<i64> values;
        Cycle done = 0;
    };

    /**
     * Full hybrid MVM: y = M x with bit-serial inputs and DCE
     * reduction. Throws std::invalid_argument when the exact result
     * needs more accumulator bits than the DCE holds
     * (checkAccumulatorFits).
     *
     * @param x           Signed input vector (length = matrix rows).
     * @param input_bits  Two's complement input width.
     * @param start       Earliest start cycle.
     */
    MvmResult execMvm(const std::vector<i64> &x, int input_bits,
                      Cycle start);

    /** Accumulator width used for the reduction (for tests). */
    int accumulatorBits(int input_bits) const;

    // ------------------------------------------------------------------
    // Digital-side helpers (arbiter-mediated DCE access).
    // ------------------------------------------------------------------

    /** Run a macro on one DCE pipeline under the digital mode. */
    Cycle digitalMacro(std::size_t pipe, digital::MacroKind kind,
                       std::size_t dst, std::size_t a, std::size_t b,
                       std::size_t bits, Cycle start);

    /** Bit shift on one pipeline (inter-array transfer buffers). */
    Cycle digitalShift(std::size_t pipe, std::size_t dst,
                       std::size_t src, std::size_t k, bool up,
                       std::size_t bits, Cycle start);

    /** Element-wise gather from a table pipeline (§4.2 extension). */
    Cycle elementLoad(std::size_t pipe, std::size_t dst,
                      std::size_t addr_vr, std::size_t table_pipe,
                      std::size_t table_base_vr, std::size_t bits,
                      Cycle start);

    /** Number of MVMs executed (stats). */
    u64 mvmCount() const { return mvmCount_; }

  private:
    /** Reduction pipelines needed for the current matrix. */
    std::size_t reductionPipes() const;

    /**
     * The shift-unit reduction of one (input_bits, sign) of the
     * programmed matrix, relative to the analog start.
     */
    struct ReductionPlan
    {
        int accBits = 0;
        /** Conversions; how many subtract; the last one's shift. */
        std::size_t count = 0;
        std::size_t subs = 0;
        int lastShift = 0;
        /** The IIU's sequence setup: no macro completes before it. */
        Cycle setup = 0;
        /** Runs of equal macros, in stream order (every pipeline). */
        struct Run
        {
            digital::MacroKind kind = digital::MacroKind::Add;
            std::size_t count = 0;
        };
        std::vector<Run> runs;
        /**
         * fromIssue[p * runs.size() + r]: run r's issue cycles on
         * pipeline p, folded as Pipeline::timeMacroRun() takes them.
         */
        std::vector<Cycle> fromIssue;
        /** Per pipeline, one transfer's hct.network energy. */
        std::vector<double> networkEnergy;
        /** One ADD's and one SUB's dce.boolop column ops. */
        u64 addOps = 0;
        u64 subOps = 0;
    };

    /** The plan of this MVM, built at its shape's first MVM. */
    const ReductionPlan &
    reductionPlan(int input_bits, const analog::ConversionPlan &conversions);

    /** Shift-unit reduction: element-native sums, planned timing. */
    Cycle reduceWithShiftUnits(const std::vector<i64> &x, int input_bits,
                               Cycle analog_start,
                               std::vector<i64> &values);

    /** No shift units: stage, shift and add each partial product. */
    Cycle reduceWalk(const std::vector<i64> &x, int input_bits,
                     Cycle analog_start, std::vector<i64> &values);

    HctConfig cfg_;
    CostTally *tally_;
    analog::Ace ace_;
    digital::Dce dce_;
    Arbiter arbiter_;
    InjectionUnit iiu_;
    TransposeUnit transpose_;
    VACore vacore_;
    bool analogEnabled_ = true;
    u64 mvmCount_ = 0;
    /** plans_[2 * input_bits + negative]; cleared by setMatrix(). */
    std::vector<ReductionPlan> plans_;
    /** Shift-unit reduction scratch, reused across MVMs. */
    std::vector<i64> codes_;
    std::vector<i64> lastCodes_;
    std::vector<u64> accWords_;
    std::vector<u64> stagedWords_;
    CostHandle adcEntry_{"ace.adc"};
    CostHandle networkEntry_{"hct.network"};
    CostHandle boolopEntry_{"dce.boolop"};
};

} // namespace hct
} // namespace darth

#endif // DARTH_HCT_HCT_H
