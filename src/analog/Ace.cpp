#include "analog/Ace.h"

#include <algorithm>
#include <cmath>

#include "common/Logging.h"

namespace darth
{
namespace analog
{

Ace::Ace(const AceConfig &config, CostTally *tally, u64 seed)
    : cfg_(config), tally_(tally), seed_(seed), adc_(config.adc)
{
    if (cfg_.numArrays == 0)
        darth_fatal("Ace: at least one array is required");
    if (cfg_.adc.kind == AdcKind::Ramp && cfg_.numAdcs != 1)
        darth_warn("Ace: ramp ADCs share one reference generator; "
                   "numAdcs is treated as 1");
}

Crossbar &
Ace::xbar(int s, std::size_t rt, std::size_t ct)
{
    const std::size_t index =
        (static_cast<std::size_t>(s) * rowTiles_ + rt) * colTiles_ + ct;
    return *xbars_[index];
}

void
Ace::setMatrix(const MatrixI &m, int element_bits, int bits_per_cell)
{
    if (m.rows() == 0 || m.cols() == 0)
        darth_fatal("Ace::setMatrix: empty matrix");
    // The device and array limits a Crossbar enforces, checked here so
    // both functional paths accept the same configurations.
    if (bits_per_cell < 1 || bits_per_cell > 8)
        darth_fatal("Ace::setMatrix: bits per cell must be in [1, 8], "
                    "got ", bits_per_cell);
    if (cfg_.arrayRows == 0 || cfg_.arrayRows % 2 != 0 ||
        cfg_.arrayCols == 0)
        darth_fatal("Ace::setMatrix: arrays need a non-zero even number "
                    "of wordlines (differential pairs) and at least one "
                    "bitline");

    // Validate into locals and commit only once nothing can fail, so
    // a rejected matrix leaves the ACE as it was.
    const int slices = numSlices(element_bits, bits_per_cell);
    const std::size_t rows_per_tile = cfg_.arrayRows / 2;
    const std::size_t row_tiles =
        (m.rows() + rows_per_tile - 1) / rows_per_tile;
    const std::size_t col_tiles =
        (m.cols() + cfg_.arrayCols - 1) / cfg_.arrayCols;
    const std::size_t needed =
        static_cast<std::size_t>(slices) * row_tiles * col_tiles;
    if (needed > cfg_.numArrays)
        darth_fatal("Ace::setMatrix: matrix needs ", needed,
                    " arrays but the ACE has ", cfg_.numArrays,
                    "; split across HCTs via the runtime");

    // Row-group split when the accumulation range exceeds the ADC.
    const i64 max_cell = (i64{1} << bits_per_cell) - 1;
    const i64 adc_max = adc_.maxCode();
    if (max_cell > adc_max)
        darth_fatal("Ace::setMatrix: a single ", bits_per_cell,
                    "-bit cell (code ", max_cell, ") exceeds the ",
                    cfg_.adc.bits, "-bit ADC range; no row grouping "
                    "can compensate");
    const auto sliced = sliceSignedMatrix(m, element_bits, bits_per_cell);

    matrix_ = m;
    elementBits_ = element_bits;
    bitsPerCell_ = bits_per_cell;
    slices_ = slices;
    rowsPerTile_ = rows_per_tile;
    colsPerTile_ = cfg_.arrayCols;
    rowTiles_ = row_tiles;
    colTiles_ = col_tiles;
    // Each group's |column sum| stays within rowsPerGroup * max_cell
    // <= adc_max, so no conversion ever saturates.
    rowsPerGroup_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(adc_max / std::max<i64>(max_cell, 1)));
    rowsPerGroup_ = std::min(rowsPerGroup_, rowsPerTile_);
    rowGroups_ = (rowsPerTile_ + rowsPerGroup_ - 1) / rowsPerGroup_;

    // Ramp sweep length for this operating point. An explicit
    // rampStates wins; otherwise auto-termination sweeps only the
    // ±rowsPerGroup·max_cell codes a group can reach. Derived from
    // the operating point alone (never the programmed data), so the
    // KernelModel oracle measured on a scratch tile matches the
    // serving tiles exactly.
    rampSweepStates_ = 0;
    if (cfg_.adc.kind == AdcKind::Ramp) {
        if (cfg_.rampStates != 0) {
            rampSweepStates_ = cfg_.rampStates;
        } else if (cfg_.rampAutoTerminate) {
            const Cycle range =
                2 * static_cast<Cycle>(rowsPerGroup_) *
                    static_cast<Cycle>(max_cell) +
                1;
            rampSweepStates_ =
                std::min(range, cfg_.adc.rampFullLatency);
        }
    }

    reprogramAll(sliced);
}

void
Ace::reprogramAll(const std::vector<MatrixI> &slices)
{
    xbars_.clear();
    tileTables_.clear();
    const std::size_t cols = matrix_.cols();
    if (cfg_.noise.ideal()) {
        const std::size_t lanes = static_cast<std::size_t>(slices_) * cols;
        tileTables_.resize(rowTiles_);
        for (std::size_t rt = 0; rt < rowTiles_; ++rt) {
            const std::size_t r0 = rt * rowsPerTile_;
            const std::size_t nr =
                std::min(rowsPerTile_, matrix_.rows() - r0);
            std::vector<i32> &table = tileTables_[rt];
            table.resize(nr * lanes);
            for (std::size_t r = 0; r < nr; ++r)
                for (int s = 0; s < slices_; ++s)
                    for (std::size_t c = 0; c < cols; ++c)
                        table[r * lanes +
                              static_cast<std::size_t>(s) * cols + c] =
                            static_cast<i32>(
                                slices[static_cast<std::size_t>(s)](
                                    r0 + r, c));
        }
    } else {
        xbars_.reserve(arraysUsed());
        for (int s = 0; s < slices_; ++s) {
            for (std::size_t rt = 0; rt < rowTiles_; ++rt) {
                for (std::size_t ct = 0; ct < colTiles_; ++ct) {
                    const std::size_t r0 = rt * rowsPerTile_;
                    const std::size_t c0 = ct * colsPerTile_;
                    const std::size_t nr =
                        std::min(rowsPerTile_, matrix_.rows() - r0);
                    const std::size_t nc =
                        std::min(colsPerTile_, cols - c0);
                    MatrixI sub(nr, nc);
                    for (std::size_t r = 0; r < nr; ++r)
                        for (std::size_t c = 0; c < nc; ++c)
                            sub(r, c) = slices[static_cast<std::size_t>(
                                s)](r0 + r, c0 + c);
                    auto xb = std::make_unique<Crossbar>(
                        cfg_.arrayRows, cfg_.arrayCols, bitsPerCell_,
                        cfg_.noise,
                        seed_ + xbars_.size() * 7919 + 13);
                    xb->programSigned(sub);
                    xbars_.push_back(std::move(xb));
                }
            }
        }
    }
    // Both devices of every differential pair of every slice are
    // written, whichever path holds the values.
    const u64 cells_written =
        2 * static_cast<u64>(slices_) * matrix_.rows() * cols;
    if (tally_ != nullptr)
        tally_->add("ace.program",
                    cells_written * cfg_.cellProgramCycles,
                    static_cast<double>(cells_written) *
                        cfg_.cellProgramEnergyPJ,
                    cells_written);
}

void
Ace::sumPlane(const std::vector<int> &plane_bits)
{
    const std::size_t lanes =
        static_cast<std::size_t>(slices_) * matrix_.cols();
    laneSums_.assign(rowTiles_ * rowGroups_ * lanes, 0);
    const i32 lo = static_cast<i32>(adc_.minCode());
    const i32 hi = static_cast<i32>(adc_.maxCode());
    for (std::size_t rt = 0; rt < rowTiles_; ++rt) {
        const std::size_t r0 = rt * rowsPerTile_;
        const std::size_t nr = std::min(rowsPerTile_, matrix_.rows() - r0);
        const i32 *const table = tileTables_[rt].data();
        for (std::size_t g = 0; g < rowGroups_; ++g) {
            i32 *const __restrict sum =
                &laneSums_[(rt * rowGroups_ + g) * lanes];
            const std::size_t end = std::min(nr, (g + 1) * rowsPerGroup_);
            for (std::size_t r = g * rowsPerGroup_; r < end; ++r) {
                if (plane_bits[r0 + r] == 0)
                    continue;
                const i32 *const __restrict row = table + r * lanes;
                for (std::size_t i = 0; i < lanes; ++i)
                    sum[i] += row[i];
            }
            for (std::size_t i = 0; i < lanes; ++i)
                sum[i] = std::clamp(sum[i], lo, hi);
        }
    }
}

void
Ace::convertGroup(const std::vector<int> &plane_bits, int s,
                  std::size_t rt, std::size_t gr0, std::size_t gnr,
                  std::vector<i64> &values)
{
    const std::size_t r0 = rt * rowsPerTile_;
    for (std::size_t ct = 0; ct < colTiles_; ++ct) {
        Crossbar &xb = xbar(s, rt, ct);
        bits_.assign(xb.logicalRows(), 0);
        for (std::size_t r = 0; r < gnr; ++r)
            bits_[gr0 + r] = plane_bits[r0 + gr0 + r];
        xb.mvmBitInputInto(bits_, vScratch_, analog_);
        const std::size_t c0 = ct * colsPerTile_;
        for (std::size_t c = 0; c < analog_.size(); ++c)
            values[c0 + c] = adc_.convert(analog_[c]);
    }
}

std::vector<PartialProduct>
Ace::execMvm(const std::vector<i64> &x, int input_bits, Cycle start)
{
    if (!hasMatrix())
        darth_fatal("Ace::execMvm: no matrix programmed");
    if (x.size() != matrix_.rows())
        darth_fatal("Ace::execMvm: input length ", x.size(),
                    " != matrix rows ", matrix_.rows());

    const bool exact = cfg_.noise.ideal();
    const std::size_t cols = matrix_.cols();
    const auto planes = sliceInput(x, input_bits);
    std::vector<PartialProduct> stream;
    stream.reserve(planes.size() * static_cast<std::size_t>(slices_) *
                   rowTiles_ * rowGroups_);

    Cycle array_free = start;
    Cycle adc_free = start;
    // Every conversion digitizes all columns at one operating point.
    const Cycle conv_cycles =
        adc_.conversionLatency(cols, cfg_.numAdcs, rampSweepStates_);
    const double conv_energy =
        adc_.conversionEnergy(cols, cfg_.numAdcs, rampSweepStates_);
    // Resolve the tally accumulators once per MVM; the per-plane and
    // per-group charges below then skip the string-keyed map lookup.
    // Safe within one call: nothing clears the tally mid-MVM.
    CostEntry *t_dac = nullptr;
    CostEntry *t_array = nullptr;
    CostEntry *t_sh = nullptr;
    CostEntry *t_adc = nullptr;
    if (tally_ != nullptr) {
        t_dac = &tally_->entry("ace.dac");
        t_array = &tally_->entry("ace.array");
        t_sh = &tally_->entry("ace.sh");
        t_adc = &tally_->entry("ace.adc");
    }
    for (const auto &plane : planes) {
        // Drive the wordlines with this bit plane; all arrays of all
        // slices sample concurrently.
        const Cycle sampled =
            array_free + cfg_.dacApplyCycles + cfg_.settleCycles;
        array_free = sampled;

        std::size_t active_rows = 0;
        for (int b : plane.bits)
            active_rows += static_cast<std::size_t>(b != 0);
        if (tally_ != nullptr) {
            const double arrays =
                static_cast<double>(slices_ * rowTiles_ * colTiles_);
            t_dac->events += 1;
            t_dac->cycles += cfg_.dacApplyCycles;
            t_dac->energy += static_cast<double>(active_rows) *
                             cfg_.rowDriveEnergyPJ * arrays;
            t_array->events += 1;
            t_array->cycles += cfg_.settleCycles;
            t_array->energy += cfg_.arrayActivationEnergyPJ * arrays;
            t_sh->events += 1;
            t_sh->energy += static_cast<double>(cols) *
                            cfg_.sampleHoldEnergyPJ *
                            static_cast<double>(slices_ * rowTiles_);
        }
        if (exact)
            sumPlane(plane.bits);

        for (int s = 0; s < slices_; ++s) {
            for (std::size_t rt = 0; rt < rowTiles_; ++rt) {
                const std::size_t r0 = rt * rowsPerTile_;
                const std::size_t nr =
                    std::min(rowsPerTile_, matrix_.rows() - r0);
                for (std::size_t g = 0; g < rowGroups_; ++g) {
                    const std::size_t gr0 = g * rowsPerGroup_;
                    if (gr0 >= nr)
                        continue;

                    PartialProduct pp;
                    pp.shift = plane.bit +
                               s * bitsPerCell_;
                    pp.negate = plane.negate;
                    if (exact) {
                        const std::size_t lane =
                            (rt * rowGroups_ + g) *
                                static_cast<std::size_t>(slices_) +
                            static_cast<std::size_t>(s);
                        const i32 *const sums =
                            laneSums_.data() + lane * cols;
                        pp.values.assign(sums, sums + cols);
                    } else {
                        pp.values.assign(cols, 0);
                        convertGroup(plane.bits, s, rt, gr0,
                                     std::min(rowsPerGroup_, nr - gr0),
                                     pp.values);
                    }

                    // Conversions serialize on the shared ADCs.
                    const Cycle conv_start = std::max(adc_free, sampled);
                    const Cycle conv_done = conv_start + conv_cycles;
                    adc_free = conv_done;
                    pp.convStart = conv_start;
                    pp.readyAt = conv_done;
                    if (tally_ != nullptr) {
                        t_adc->events += 1;
                        t_adc->cycles += conv_done - conv_start;
                        t_adc->energy += conv_energy;
                    }
                    stream.push_back(std::move(pp));
                }
            }
        }
    }
    return stream;
}

std::vector<i64>
Ace::referenceMvm(const std::vector<i64> &x) const
{
    if (x.size() != matrix_.rows())
        darth_fatal("Ace::referenceMvm: input length mismatch");
    std::vector<i64> out(matrix_.cols(), 0);
    for (std::size_t c = 0; c < matrix_.cols(); ++c) {
        i64 acc = 0;
        for (std::size_t r = 0; r < matrix_.rows(); ++r)
            acc += x[r] * matrix_(r, c);
        out[c] = acc;
    }
    return out;
}

std::vector<i64>
Ace::reduceStream(const std::vector<PartialProduct> &stream,
                  std::size_t cols)
{
    std::vector<i64> out(cols, 0);
    for (const auto &pp : stream) {
        if (pp.values.size() != cols)
            darth_fatal("Ace::reduceStream: width mismatch");
        const i64 sign = pp.negate ? -1 : 1;
        for (std::size_t c = 0; c < cols; ++c)
            out[c] += sign * (pp.values[c] << pp.shift);
    }
    return out;
}

} // namespace analog
} // namespace darth
