#include "runtime/Runtime.h"

#include <algorithm>

#include "common/Logging.h"

namespace darth
{
namespace runtime
{

Runtime::Runtime(Chip &chip)
    : chip_(chip), scheduler_(chip), occupied_(chip.numHcts(), false)
{
}

int
Runtime::precisionToBitsPerCell(int precision, int device_max_bits)
{
    switch (precision) {
      case 0:
        return 1;
      case 1:
        return std::max(1, device_max_bits / 2);
      case 2:
        return device_max_bits;
      default:
        darth_fatal("Runtime: precision scale must be 0, 1, or 2; got ",
                    precision);
    }
}

MatrixPlan
Runtime::planMatrix(const hct::HctConfig &cfg, std::size_t rows,
                    std::size_t cols, int element_bits,
                    int bits_per_cell)
{
    if (rows == 0 || cols == 0)
        darth_fatal("Runtime::planMatrix: empty matrix");
    MatrixPlan plan;
    plan.rows = rows;
    plan.cols = cols;
    plan.elementBits = element_bits;
    plan.bitsPerCell = bits_per_cell;

    const std::size_t rows_per_tile = cfg.ace.arrayRows / 2;
    const std::size_t cols_per_tile = cfg.ace.arrayCols;
    const int slices = analog::numSlices(element_bits, bits_per_cell);
    const std::size_t cap_tiles =
        cfg.ace.numArrays / static_cast<std::size_t>(slices);
    if (cap_tiles == 0)
        darth_fatal("Runtime::planMatrix: ", slices,
                    " weight slices exceed the ACE array count");

    const std::size_t row_tiles =
        (rows + rows_per_tile - 1) / rows_per_tile;

    if (row_tiles <= cap_tiles) {
        // Column stripes: each part holds all rows and a chunk of
        // columns; outputs are independent.
        const std::size_t col_tiles_per_part =
            std::max<std::size_t>(1, cap_tiles / row_tiles);
        const std::size_t cols_per_part =
            col_tiles_per_part * cols_per_tile;
        for (std::size_t c0 = 0; c0 < cols; c0 += cols_per_part) {
            MatrixPart part;
            part.row0 = 0;
            part.numRows = rows;
            part.col0 = c0;
            part.numCols = std::min(cols_per_part, cols - c0);
            plan.parts.push_back(part);
        }
    } else {
        // Row stripes: each part holds a chunk of rows over one
        // column tile; partial outputs must be added across parts.
        plan.rowSplit = true;
        const std::size_t rows_per_part = cap_tiles * rows_per_tile;
        for (std::size_t c0 = 0; c0 < cols; c0 += cols_per_tile) {
            for (std::size_t r0 = 0; r0 < rows; r0 += rows_per_part) {
                MatrixPart part;
                part.row0 = r0;
                part.numRows = std::min(rows_per_part, rows - r0);
                part.col0 = c0;
                part.numCols = std::min(cols_per_tile, cols - c0);
                plan.parts.push_back(part);
            }
        }
    }
    return plan;
}

Session
Runtime::createSession()
{
    SeqLock lock(mu_);
    return Session(*this, nextSession_++);
}

std::size_t
Runtime::freeHcts() const
{
    SeqLock lock(mu_);
    return freeHctsLocked();
}

std::size_t
Runtime::freeHctsLocked() const
{
    std::size_t free = 0;
    for (bool used : occupied_)
        free += !used;
    return free;
}

int
Runtime::placeMatrix(const MatrixI &m, int element_bits,
                     int bits_per_cell, u64 session)
{
    SeqLock lock(mu_);
    MatrixPlan plan = planMatrix(chip_.config().hct, m.rows(), m.cols(),
                                 element_bits, bits_per_cell);
    if (plan.parts.size() > freeHctsLocked())
        darth_fatal("Runtime::placeMatrix: placement needs ",
                    plan.parts.size(), " HCTs but only ",
                    freeHctsLocked(), " of ", chip_.numHcts(),
                    " are free; increase ChipConfig::numHcts or "
                    "release unused matrices");

    for (auto &part : plan.parts) {
        // Advance the cursor past fully-allocated HCTs; the free-count
        // check above bounds the scan.
        std::size_t scanned = 0;
        while (occupied_[nextHct_]) {
            nextHct_ = (nextHct_ + 1) % chip_.numHcts();
            if (++scanned > chip_.numHcts())
                darth_panic("Runtime::placeMatrix: no free HCT despite "
                            "the capacity check");
        }
        part.hctIndex = nextHct_;
        occupied_[nextHct_] = true;
        nextHct_ = (nextHct_ + 1) % chip_.numHcts();
        MatrixI sub(part.numRows, part.numCols);
        for (std::size_t r = 0; r < part.numRows; ++r)
            for (std::size_t c = 0; c < part.numCols; ++c)
                sub(r, c) = m(part.row0 + r, part.col0 + c);
        chip_.hct(part.hctIndex)
            .setMatrix(sub, element_bits, bits_per_cell);
    }

    int id;
    if (!freeIds_.empty()) {
        id = freeIds_.back();
        freeIds_.pop_back();
    } else {
        id = static_cast<int>(placed_.size());
        placed_.push_back(nullptr);
    }
    auto pm = std::make_unique<PlacedMatrix>();
    pm->matrix = m;
    pm->plan = std::move(plan);
    pm->session = session;
    pm->id = id;
    pm->uid = nextUid_++;
    placed_[static_cast<std::size_t>(id)] = std::move(pm);
    return id;
}

void
Runtime::freeMatrix(int handle)
{
    SeqLock lock(mu_);
    PlacedMatrix &pm = placedRefLocked(handle);
    scheduler_.drainMatrix(handle);
    for (const auto &part : pm.plan.parts)
        occupied_[part.hctIndex] = false;
    freeIds_.push_back(handle);
    placed_[static_cast<std::size_t>(handle)].reset();
}

const PlacedMatrix &
Runtime::placedRef(int handle) const
{
    SeqLock lock(mu_);
    return placedRefLocked(handle);
}

PlacedMatrix &
Runtime::placedRef(int handle)
{
    SeqLock lock(mu_);
    return placedRefLocked(handle);
}

const PlacedMatrix &
Runtime::placedRefLocked(int handle) const
{
    if (handle < 0 ||
        static_cast<std::size_t>(handle) >= placed_.size() ||
        placed_[static_cast<std::size_t>(handle)] == nullptr)
        darth_fatal("Runtime: invalid or released matrix handle ",
                    handle);
    return *placed_[static_cast<std::size_t>(handle)];
}

PlacedMatrix &
Runtime::placedRefLocked(int handle)
{
    return const_cast<PlacedMatrix &>(
        static_cast<const Runtime *>(this)->placedRefLocked(handle));
}

Cycle
Runtime::disableAnalogMode(int handle, Cycle start)
{
    SeqLock lock(mu_);
    PlacedMatrix &pm = placedRefLocked(handle);
    scheduler_.drainMatrix(handle);
    pm.analogEnabled = false;
    Cycle done = start;
    for (const auto &part : pm.plan.parts)
        done = std::max(done, chip_.hct(part.hctIndex)
                                  .disableAnalogMode(start));
    return done;
}

const MatrixPlan &
Runtime::plan(int handle) const
{
    SeqLock lock(mu_);
    return placedRefLocked(handle).plan;
}

const MatrixI &
Runtime::matrix(int handle) const
{
    SeqLock lock(mu_);
    return placedRefLocked(handle).matrix;
}

} // namespace runtime
} // namespace darth
