/**
 * @file
 * A 2-D grid of ReRAM devices (one memory array / crossbar mat).
 *
 * Both compute elements of an HCT are built out of 64x64 arrays of
 * these cells (Table 2). The CellArray owns fault assignment (stuck-at
 * cells decided once at construction from the NoiseModel) and exposes
 * programming and conductance read-out; electrical MVM behaviour lives
 * in analog::Crossbar. The DCE's pipelines keep their bit columns as
 * packed words (digital::Pipeline) and build no cells.
 */

#ifndef DARTH_RERAM_CELLARRAY_H
#define DARTH_RERAM_CELLARRAY_H

#include <cstddef>
#include <vector>

#include "common/Matrix.h"
#include "common/Random.h"
#include "reram/Device.h"
#include "reram/NoiseModel.h"

namespace darth
{
namespace reram
{

/** Grid of devices with shared technology parameters and noise. */
class CellArray
{
  public:
    /**
     * @param rows    Wordline count.
     * @param cols    Bitline count.
     * @param params  Device technology parameters.
     * @param noise   Non-ideality knobs (also decides stuck-at cells).
     * @param seed    RNG seed for fault placement and noise draws.
     */
    CellArray(std::size_t rows, std::size_t cols,
              const DeviceParams &params = DeviceParams{},
              const NoiseModel &noise = NoiseModel{}, u64 seed = 1);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    const DeviceParams &params() const { return params_; }
    const NoiseModel &noise() const { return noise_; }

    /** Program one cell with a level code. */
    void program(std::size_t r, std::size_t c, int code);

    /** Program the whole array from a matrix of level codes. */
    void programMatrix(const MatrixI &codes);

    /** Stored level code of a cell (what was requested). */
    int programmedCode(std::size_t r, std::size_t c) const;

    /** Digital read-back of a cell (nearest-level snap). */
    int readCode(std::size_t r, std::size_t c) const;

    /** Effective conductance of a cell at read time (with noise). */
    Siemens readConductance(std::size_t r, std::size_t c) const;

    /** Full conductance matrix snapshot (one noise draw per cell). */
    MatrixD conductanceMatrix() const;

    /** Count of stuck cells (for fault-injection tests). */
    std::size_t stuckCellCount() const;

    /** Number of program operations issued (wear/energy accounting). */
    u64 programCount() const { return programCount_; }

    /** Access the RNG (shared with callers that add system noise). */
    Rng &rng() { return rng_; }

  private:
    Device &cell(std::size_t r, std::size_t c);
    const Device &cell(std::size_t r, std::size_t c) const;

    std::size_t rows_;
    std::size_t cols_;
    DeviceParams params_;
    NoiseModel noise_;
    mutable Rng rng_;
    std::vector<Device> cells_;
    u64 programCount_ = 0;
};

} // namespace reram
} // namespace darth

#endif // DARTH_RERAM_CELLARRAY_H
