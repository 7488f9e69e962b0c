/**
 * @file
 * Analog Compute Element: the analog half of a hybrid compute tile.
 *
 * An ACE owns 64 crossbar arrays (Table 2) plus the input buffers, row
 * drivers, sample-and-hold, and ADCs needed for MVM. setMatrix() tiles
 * a signed integer matrix across arrays three ways: bit slices
 * (element_bits / bits_per_cell), row tiles (matrix rows beyond one
 * array's differential capacity), and column tiles. execMvm() streams
 * the input bit-serially (input bit-slicing) and emits one
 * PartialProduct per (input plane, weight slice, row tile, row group):
 * exactly the stream the HCT's shift units place into DCE rows for
 * shift-and-add reduction (Figure 9).
 *
 * When the per-bitline accumulation range exceeds the ADC range, the
 * ACE automatically splits wordline activation into row groups (the
 * standard precision-versus-throughput trade: more groups, more
 * conversions).
 *
 * Two functional paths produce the ADC codes; both charge the same
 * CostTally entries in the same order:
 *
 *  - Exact integer path, under the ideal noise model
 *    (NoiseModel::ideal()). Each code is the integer sum of the active
 *    rows' slice values in one row group. The float solve recovers
 *    that same integer: ideal conductances are gMin + step*code, the
 *    G_min offsets of a differential pair cancel, and the solve's
 *    rounding error stays far below half an LSB for every shape a
 *    Crossbar accepts, so nearbyint() lands on the integer. Row
 *    grouping keeps |sum| <= rowsPerGroup*max_cell <= maxCode(), so
 *    the ADC clamp never fires and the shift-and-add of the whole
 *    stream is exactly W·x. exactProduct() therefore returns W·x as
 *    one integer product (a 16-bit dot product per column over a
 *    column-major copy of the matrix when operands and sums fit) and
 *    the codes of the last conversion only: the value a DCE stages
 *    last. execMvm() still emits every code, for the callers that
 *    reduce partial products one by one. No Crossbar is built and the
 *    matrix is never sliced.
 *  - Crossbar path, for every other noise model. Programming noise,
 *    stuck-at cells, drift and wire resistance move conductances even
 *    when reads are deterministic, so each code comes from a
 *    Crossbar solve and Adc::convert() (conversionCodes()).
 *
 * On both paths a conversion's timing depends only on the programmed
 * shape, the input width and whether the top plane subtracts, never
 * on the input values, so beginMvm() hands out one cached conversion
 * plan per (input_bits, sign), relative to the MVM's analog start.
 */

#ifndef DARTH_ANALOG_ACE_H
#define DARTH_ANALOG_ACE_H

#include <cstddef>
#include <memory>
#include <vector>

#include "analog/Adc.h"
#include "analog/BitSlicing.h"
#include "analog/Crossbar.h"
#include "common/Matrix.h"
#include "common/Stats.h"
#include "reram/NoiseModel.h"

namespace darth
{
namespace analog
{

/** Static configuration of one ACE (Tables 2 and 3 defaults). */
struct AceConfig
{
    std::size_t numArrays = 64;
    std::size_t arrayRows = 64;
    std::size_t arrayCols = 64;
    AdcParams adc;
    /** ADC instances shared across the ACE (SAR: 2, ramp: 1). */
    std::size_t numAdcs = 2;
    /** Early-termination reference states for ramp ADCs (0 = full). */
    Cycle rampStates = 0;
    /**
     * Derive the ramp sweep length from the operating point instead
     * of sweeping the full code range: a row group of `rowsPerGroup`
     * cells of at most `2^bits_per_cell - 1` can only produce codes
     * in ±rowsPerGroup·max_cell, so the reference ramp terminates
     * after covering that range (the §5.3 early-exit generalized from
     * AES to any operating point). Shape- and config-derived only —
     * never data-dependent — so the KernelModel oracle and the
     * functional tiles agree. Ignored for SAR ADCs and when
     * `rampStates` is set explicitly.
     */
    bool rampAutoTerminate = false;
    /** Cycles to drive the wordlines with one input bit plane. */
    Cycle dacApplyCycles = 1;
    /** Array settle + sample-and-hold capture, cycles. */
    Cycle settleCycles = 1;
    /** Energy per active wordline drive (0.7 mW row periphery). */
    double rowDriveEnergyPJ = 0.7;
    /** Energy per column sample-and-hold capture. */
    double sampleHoldEnergyPJ = 2.1e-5;
    /** Energy per array activation for one 1-bit MVM. */
    double arrayActivationEnergyPJ = 1.0;
    /** Analog write-verify energy per cell programmed. */
    double cellProgramEnergyPJ = 20.0;
    /** Cycles per cell programmed (analog writes are slow, §4.1). */
    Cycle cellProgramCycles = 16;
    reram::NoiseModel noise;
};

/** One ADC conversion of a bit-serial MVM: its reduction tag and timing. */
struct Conversion
{
    /** Bit positions to shift left during the ACE->DCE transfer. */
    int shift = 0;
    /** True when this plane subtracts (two's complement sign plane). */
    bool negate = false;
    /** Cycle at which the ADC began converting this vector. */
    Cycle convStart = 0;
    /** Cycle at which the last ADC output is available. */
    Cycle readyAt = 0;
};

/**
 * The conversions of one MVM shape in stream order, with convStart and
 * readyAt as offsets from the MVM's analog start.
 */
using ConversionPlan = std::vector<Conversion>;

/** One ADC-digitized partial product vector with its reduction tag. */
struct PartialProduct : Conversion
{
    /** One code per matrix output column. */
    std::vector<i64> values;
};

/** The analog half of an HCT. */
class Ace
{
  public:
    explicit Ace(const AceConfig &config, CostTally *tally = nullptr,
                 u64 seed = 1);

    const AceConfig &config() const { return cfg_; }

    /**
     * Program a signed matrix, tiling across arrays.
     *
     * @param m              Signed elements, |m| < 2^element_bits.
     * @param element_bits   Logical element magnitude width.
     * @param bits_per_cell  Device bits (1 = SLC).
     */
    void setMatrix(const MatrixI &m, int element_bits,
                   int bits_per_cell);

    /** The logically stored matrix. */
    const MatrixI &matrix() const { return matrix_; }

    bool hasMatrix() const { return slices_ > 0; }

    std::size_t
    arraysUsed() const
    {
        return static_cast<std::size_t>(slices_) * rowTiles_ * colTiles_;
    }
    int slices() const { return slices_; }
    std::size_t rowTiles() const { return rowTiles_; }
    std::size_t colTiles() const { return colTiles_; }
    std::size_t rowGroups() const { return rowGroups_; }

    /**
     * Reference states one ramp sweep covers for the programmed
     * operating point: the explicit `rampStates` override if set,
     * else the ±rowsPerGroup·max_cell range when `rampAutoTerminate`,
     * else 0 (full sweep). 0 for SAR ADCs and before setMatrix().
     */
    Cycle rampSweepStates() const { return rampSweepStates_; }

    /**
     * Bit-serial MVM: returns the partial-product stream, ordered by
     * readyAt, with every tally charge. The caller (HCT) reduces it in
     * the DCE.
     *
     * @param x           Signed input vector (length = matrix rows).
     * @param input_bits  Two's complement input width.
     * @param start       Earliest cycle the ACE may begin.
     */
    std::vector<PartialProduct> execMvm(const std::vector<i64> &x,
                                        int input_bits, Cycle start);

    /**
     * An MVM without a partial-product stream, for a caller that
     * reduces it in place: one pass over `x` checks its length and
     * sliceInput()'s range and counts each plane's active rows, the
     * per-plane entries (ace.dac, ace.array, ace.sh) are charged, and
     * the MVM's conversion plan is returned, built at the first MVM
     * of its (input_bits, sign) and kept until setMatrix(). The caller
     * charges ace.adc once per conversion (conversionCycles(),
     * conversionEnergy()) and takes the values from exactProduct() or
     * conversionCodes().
     */
    const ConversionPlan &beginMvm(const std::vector<i64> &x,
                                   int input_bits);

    /** Cycles and energy each conversion charges to ace.adc. */
    Cycle conversionCycles() const { return conversionCycles_; }
    double conversionEnergy() const { return conversionEnergy_; }

    /**
     * The exact path's values of an MVM beginMvm() admitted (ideal
     * noise model only; panics otherwise). Charges nothing.
     *
     * @param out   Receives y = W·x (mod 2^64).
     * @param last  Receives the codes of the final conversion.
     */
    void exactProduct(const std::vector<i64> &x, int input_bits,
                      std::vector<i64> &out, std::vector<i64> &last);

    /**
     * Every code of an MVM beginMvm() admitted, on either path:
     * codes[k * cols + c] for conversion k of the plan. Charges
     * nothing.
     */
    void conversionCodes(const std::vector<i64> &x, int input_bits,
                         std::vector<i64> &codes);

    /** Exact integer reference of the full MVM (tests). */
    std::vector<i64> referenceMvm(const std::vector<i64> &x) const;

    /** Reference reduction of a partial-product stream (tests). */
    static std::vector<i64> reduceStream(
        const std::vector<PartialProduct> &stream, std::size_t cols);

  private:
    /** Crossbar holding (slice s, row tile rt, col tile ct). */
    Crossbar &xbar(int s, std::size_t rt, std::size_t ct);

    /** Build the crossbars from sliceSignedMatrix(matrix_) output. */
    void programCrossbars(const std::vector<MatrixI> &slices);

    /** One row group of one row tile (rows relative to the tile). */
    struct RowGroup
    {
        std::size_t rowTile = 0;
        std::size_t firstRow = 0;
        std::size_t rows = 0;
    };

    /**
     * The conversion plan of an MVM of `input_bits` planes: one
     * conversion per (plane, slice, row group) in stream order,
     * serialized on the shared ADCs.
     */
    ConversionPlan buildPlan(int input_bits, bool negative) const;

    /**
     * sliceInput()'s range checks and the active rows of every input
     * plane, into planeRows_, in one pass over `x`; true when the top
     * plane subtracts.
     */
    bool countPlaneRows(const std::vector<i64> &x, int input_bits);

    /**
     * Exact path: add one conversion's codes into sums[0..cols) —
     * slice `s` of the rows of `group` whose input has bit `bit` set.
     */
    void addGroupCodes(const std::vector<i64> &x, int bit,
                       const RowGroup &group, int s, i64 *sums) const;

    /** Crossbar path: one conversion's codes into values[0..cols). */
    void convertGroup(const std::vector<i64> &x, int bit, int s,
                      const RowGroup &group, i64 *values);

    AceConfig cfg_;
    CostTally *tally_;
    u64 seed_;

    MatrixI matrix_;
    int elementBits_ = 0;
    int bitsPerCell_ = 0;
    int slices_ = 0;
    std::size_t rowTiles_ = 0;
    std::size_t colTiles_ = 0;
    std::size_t rowsPerTile_ = 0;
    std::size_t colsPerTile_ = 0;
    std::size_t rowGroups_ = 1;
    std::size_t rowsPerGroup_ = 0;
    /** The row groups that hold rows, tile-major (stream order). */
    std::vector<RowGroup> groups_;
    /** Effective ramp sweep length (see rampSweepStates()). */
    Cycle rampSweepStates_ = 0;
    /** Per-conversion ace.adc charge at this operating point. */
    Cycle conversionCycles_ = 0;
    double conversionEnergy_ = 0.0;
    /** plans_[2 * input_bits + negative]; empty until first used. */
    std::vector<ConversionPlan> plans_;
    /** Exact path: the matrix column-major in 16 bits, when it fits. */
    std::vector<i16> columns16_;
    /** Scratch: per-plane active rows, 16-bit inputs, 64-bit lanes. */
    std::vector<std::size_t> planeRows_;
    std::vector<i16> x16_;
    std::vector<u64> acc64_;
    CostHandle dacEntry_{"ace.dac"};
    CostHandle arrayEntry_{"ace.array"};
    CostHandle shEntry_{"ace.sh"};
    CostHandle adcEntry_{"ace.adc"};
    /** Crossbar path: one array per (slice, row tile, col tile). */
    std::vector<std::unique_ptr<Crossbar>> xbars_;
    /** Crossbar path scratch, reused across every solve. */
    std::vector<int> bits_;
    std::vector<double> vScratch_;
    std::vector<double> analog_;
    Adc adc_;
};

} // namespace analog
} // namespace darth

#endif // DARTH_ANALOG_ACE_H
