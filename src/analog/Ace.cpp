#include "analog/Ace.h"

#include <algorithm>
#include <array>
#include <bit>
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
    // Only the crossbars hold slices; the exact path reads the matrix.
    const bool exact = cfg_.noise.ideal();
    std::vector<MatrixI> sliced;
    if (exact)
        checkMatrixRange(m, element_bits);
    else
        sliced = sliceSignedMatrix(m, element_bits, bits_per_cell);

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
    groups_.clear();
    for (std::size_t rt = 0; rt < rowTiles_; ++rt) {
        const std::size_t nr =
            std::min(rowsPerTile_, m.rows() - rt * rowsPerTile_);
        for (std::size_t r0 = 0; r0 < nr; r0 += rowsPerGroup_)
            groups_.push_back(
                {rt, r0, std::min(rowsPerGroup_, nr - r0)});
    }

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

    conversionCycles_ =
        adc_.conversionLatency(m.cols(), cfg_.numAdcs, rampSweepStates_);
    conversionEnergy_ =
        adc_.conversionEnergy(m.cols(), cfg_.numAdcs, rampSweepStates_);
    plans_.clear();

    xbars_.clear();
    columns16_.clear();
    if (!exact)
        programCrossbars(sliced);
    else if (elementBits_ <= 15) {
        // Column c's weights side by side, for one dot product each.
        const std::size_t rows = m.rows();
        columns16_.resize(rows * m.cols());
        for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t c = 0; c < m.cols(); ++c)
                columns16_[c * rows + r] = static_cast<i16>(m(r, c));
    }
    // Both devices of every differential pair of every slice are
    // written, whichever path holds the values.
    const u64 cells_written =
        2 * static_cast<u64>(slices_) * m.rows() * m.cols();
    if (tally_ != nullptr)
        tally_->add("ace.program",
                    cells_written * cfg_.cellProgramCycles,
                    static_cast<double>(cells_written) *
                        cfg_.cellProgramEnergyPJ,
                    cells_written);
}

void
Ace::programCrossbars(const std::vector<MatrixI> &slices)
{
    xbars_.reserve(arraysUsed());
    for (int s = 0; s < slices_; ++s) {
        for (std::size_t rt = 0; rt < rowTiles_; ++rt) {
            for (std::size_t ct = 0; ct < colTiles_; ++ct) {
                const std::size_t r0 = rt * rowsPerTile_;
                const std::size_t c0 = ct * colsPerTile_;
                const std::size_t nr =
                    std::min(rowsPerTile_, matrix_.rows() - r0);
                const std::size_t nc =
                    std::min(colsPerTile_, matrix_.cols() - c0);
                MatrixI sub(nr, nc);
                for (std::size_t r = 0; r < nr; ++r)
                    for (std::size_t c = 0; c < nc; ++c)
                        sub(r, c) = slices[static_cast<std::size_t>(s)](
                            r0 + r, c0 + c);
                auto xb = std::make_unique<Crossbar>(
                    cfg_.arrayRows, cfg_.arrayCols, bitsPerCell_,
                    cfg_.noise, seed_ + xbars_.size() * 7919 + 13);
                xb->programSigned(sub);
                xbars_.push_back(std::move(xb));
            }
        }
    }
}

void
Ace::addGroupCodes(const std::vector<i64> &x, int bit,
                   const RowGroup &group, int s, i64 *sums) const
{
    const std::size_t cols = matrix_.cols();
    const std::size_t r0 = group.rowTile * rowsPerTile_ + group.firstRow;
    for (std::size_t r = r0; r < r0 + group.rows; ++r) {
        if (((static_cast<u64>(x[r]) >> bit) & 1) == 0)
            continue;
        const i64 *const row = &matrix_(r, 0);
        for (std::size_t c = 0; c < cols; ++c)
            sums[c] += sliceElement(row[c], s, bitsPerCell_);
    }
}

void
Ace::convertGroup(const std::vector<i64> &x, int bit, int s,
                  const RowGroup &group, i64 *values)
{
    const std::size_t r0 = group.rowTile * rowsPerTile_;
    for (std::size_t ct = 0; ct < colTiles_; ++ct) {
        Crossbar &xb = xbar(s, group.rowTile, ct);
        bits_.assign(xb.logicalRows(), 0);
        for (std::size_t r = group.firstRow;
             r < group.firstRow + group.rows; ++r)
            bits_[r] = static_cast<int>(
                (static_cast<u64>(x[r0 + r]) >> bit) & 1);
        xb.mvmBitInputInto(bits_, vScratch_, analog_);
        const std::size_t c0 = ct * colsPerTile_;
        for (std::size_t c = 0; c < analog_.size(); ++c)
            values[c0 + c] = adc_.convert(analog_[c]);
    }
}

bool
Ace::countPlaneRows(const std::vector<i64> &x, int input_bits)
{
    if (input_bits <= 0 || input_bits > 63)
        darth_fatal("sliceInput: input_bits must be in [1, 63]");
    // Plane `bit` drives the rows whose input has that bit set (the
    // bits sliceInput() lays out). Eight planes at a time are counted
    // in the bytes of one word, flushed before a byte can overflow;
    // the low eight share one pass with the range's extremes.
    static constexpr auto kSpread = [] {
        std::array<u64, 256> spread{};
        for (std::size_t b = 0; b < 256; ++b)
            for (int i = 0; i < 8; ++i)
                if ((b >> i) & 1)
                    spread[b] |= u64{1} << (8 * i);
        return spread;
    }();
    planeRows_.assign(static_cast<std::size_t>(input_bits), 0);
    const auto flush = [&](int base, u64 counts) {
        for (int i = 0; i < 8 && base + i < input_bits; ++i)
            planeRows_[static_cast<std::size_t>(base + i)] +=
                (counts >> (8 * i)) & 0xff;
    };
    i64 lo = 0;
    i64 hi = 0;
    for (int base = 0; base < input_bits; base += 8) {
        u64 counts = 0;
        std::size_t pending = 0;
        for (i64 v : x) {
            if (base == 0) {
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
            counts += kSpread[(static_cast<u64>(v) >> base) & 0xff];
            if (++pending == 255) {
                flush(base, counts);
                counts = 0;
                pending = 0;
            }
        }
        flush(base, counts);
    }
    // sliceInput()'s bounds: two's complement when any value is
    // negative, else unsigned. checkInputRange() names the culprit.
    const bool negative = lo < 0;
    const u64 top = negative ? (u64{1} << (input_bits - 1)) - 1
                             : (u64{1} << input_bits) - 1;
    if (lo < -(i64{1} << (input_bits - 1)) || static_cast<u64>(hi) > top)
        checkInputRange(x, input_bits);
    return negative;
}

ConversionPlan
Ace::buildPlan(int input_bits, bool negative) const
{
    ConversionPlan plan;
    plan.reserve(static_cast<std::size_t>(input_bits) *
                 static_cast<std::size_t>(slices_) * groups_.size());
    Cycle array_free = 0;
    Cycle adc_free = 0;
    for (int bit = 0; bit < input_bits; ++bit) {
        // Drive the wordlines with this bit plane; all arrays of all
        // slices sample concurrently.
        const Cycle sampled =
            array_free + cfg_.dacApplyCycles + cfg_.settleCycles;
        array_free = sampled;
        const bool negate = negative && bit == input_bits - 1;
        for (int s = 0; s < slices_; ++s) {
            for (std::size_t g = 0; g < groups_.size(); ++g) {
                // Conversions serialize on the shared ADCs.
                const Cycle conv_start = std::max(adc_free, sampled);
                adc_free = conv_start + conversionCycles_;
                plan.push_back({bit + s * bitsPerCell_, negate,
                                conv_start, adc_free});
            }
        }
    }
    return plan;
}

const ConversionPlan &
Ace::beginMvm(const std::vector<i64> &x, int input_bits)
{
    if (!hasMatrix())
        darth_fatal("Ace: MVM with no matrix programmed");
    if (x.size() != matrix_.rows())
        darth_fatal("Ace: MVM input length ", x.size(),
                    " != matrix rows ", matrix_.rows());
    const bool negative = countPlaneRows(x, input_bits);

    if (tally_ != nullptr) {
        // Every plane drives and samples all arrays of all slices.
        const double arrays =
            static_cast<double>(slices_ * rowTiles_ * colTiles_);
        const u64 planes = static_cast<u64>(input_bits);
        CostEntry &dac = *dacEntry_.get(tally_);
        CostEntry &array = *arrayEntry_.get(tally_);
        CostEntry &sh = *shEntry_.get(tally_);
        dac.events += planes;
        dac.cycles += planes * cfg_.dacApplyCycles;
        array.events += planes;
        array.cycles += planes * cfg_.settleCycles;
        sh.events += planes;
        for (std::size_t active_rows : planeRows_) {
            dac.energy += static_cast<double>(active_rows) *
                          cfg_.rowDriveEnergyPJ * arrays;
            array.energy += cfg_.arrayActivationEnergyPJ * arrays;
            sh.energy += static_cast<double>(matrix_.cols()) *
                         cfg_.sampleHoldEnergyPJ *
                         static_cast<double>(slices_ * rowTiles_);
        }
    }

    const std::size_t key =
        2 * static_cast<std::size_t>(input_bits) + negative;
    if (plans_.size() <= key)
        plans_.resize(key + 1);
    if (plans_[key].empty())
        plans_[key] = buildPlan(input_bits, negative);
    return plans_[key];
}

void
Ace::conversionCodes(const std::vector<i64> &x, int input_bits,
                     std::vector<i64> &codes)
{
    const std::size_t cols = matrix_.cols();
    const bool exact = cfg_.noise.ideal();
    codes.assign(static_cast<std::size_t>(input_bits) *
                     static_cast<std::size_t>(slices_) * groups_.size() *
                     cols,
                 0);
    i64 *values = codes.data();
    for (int bit = 0; bit < input_bits; ++bit) {
        for (int s = 0; s < slices_; ++s) {
            for (const RowGroup &group : groups_) {
                if (exact)
                    addGroupCodes(x, bit, group, s, values);
                else
                    convertGroup(x, bit, s, group, values);
                values += cols;
            }
        }
    }
}

std::vector<PartialProduct>
Ace::execMvm(const std::vector<i64> &x, int input_bits, Cycle start)
{
    const ConversionPlan &plan = beginMvm(x, input_bits);
    std::vector<i64> codes;
    conversionCodes(x, input_bits, codes);
    const std::size_t cols = matrix_.cols();
    CostEntry *adc = adcEntry_.get(tally_);
    std::vector<PartialProduct> stream(plan.size());
    for (std::size_t k = 0; k < plan.size(); ++k) {
        PartialProduct &pp = stream[k];
        static_cast<Conversion &>(pp) = plan[k];
        pp.convStart += start;
        pp.readyAt += start;
        const auto first =
            codes.begin() + static_cast<std::ptrdiff_t>(k * cols);
        pp.values.assign(first, first + static_cast<std::ptrdiff_t>(cols));
        if (adc != nullptr) {
            adc->events += 1;
            adc->cycles += conversionCycles_;
            adc->energy += conversionEnergy_;
        }
    }
    return stream;
}

namespace
{

/**
 * sum a[i]·b[i] in 32-bit arithmetic; the caller bounds every partial
 * sum. Plain -O3 turns it into packed 16-bit multiply-adds.
 */
i32
dot16(const i16 *__restrict a, const i16 *__restrict b, std::size_t n)
{
    i32 sum = 0;
    for (std::size_t i = 0; i < n; ++i)
        sum += static_cast<i32>(a[i]) * static_cast<i32>(b[i]);
    return sum;
}

} // namespace

void
Ace::exactProduct(const std::vector<i64> &x, int input_bits,
                  std::vector<i64> &out, std::vector<i64> &last)
{
    if (!cfg_.noise.ideal())
        darth_panic("Ace::exactProduct: needs the ideal noise model");

    // No conversion clamps, so the shift-and-add of every code is W·x.
    // When elements and inputs fit 16 bits and the worst-case sum fits
    // 32, each column is one 16-bit dot product with 32-bit sums;
    // otherwise rows add into wrapping 64-bit lanes, zero inputs
    // skipped.
    const std::size_t rows = matrix_.rows();
    const std::size_t cols = matrix_.cols();
    const int worst_bits =
        elementBits_ + input_bits +
        static_cast<int>(std::bit_width(rows - 1)) + 1;
    out.resize(cols);
    if (!columns16_.empty() && input_bits <= 15 && worst_bits <= 32) {
        x16_.resize(rows);
        for (std::size_t r = 0; r < rows; ++r)
            x16_[r] = static_cast<i16>(x[r]);
        for (std::size_t c = 0; c < cols; ++c)
            out[c] = dot16(columns16_.data() + c * rows, x16_.data(), rows);
    } else {
        acc64_.assign(cols, 0);
        for (std::size_t r = 0; r < rows; ++r) {
            if (x[r] == 0)
                continue;
            const u64 xr = static_cast<u64>(x[r]);
            const i64 *const row = &matrix_(r, 0);
            for (std::size_t c = 0; c < cols; ++c)
                acc64_[c] += xr * static_cast<u64>(row[c]);
        }
        for (std::size_t c = 0; c < cols; ++c)
            out[c] = static_cast<i64>(acc64_[c]);
    }

    // The last conversion: the top plane of the last slice over the
    // last row group.
    last.assign(cols, 0);
    addGroupCodes(x, input_bits - 1, groups_.back(), slices_ - 1,
                  last.data());
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
