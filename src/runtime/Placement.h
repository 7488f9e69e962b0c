/**
 * @file
 * Matrix placement structures shared by the planner (Runtime), the
 * submission scheduler, and the session layer.
 *
 * A matrix spreads over HCTs as a list of MatrixParts: column stripes
 * when one tile holds all rows, row stripes (with cross-part output
 * adds) when it cannot. A PlacedMatrix is one programmed placement —
 * the unit the scheduler routes MVM requests to and the unit a
 * session's MatrixHandle owns.
 */

#ifndef DARTH_RUNTIME_PLACEMENT_H
#define DARTH_RUNTIME_PLACEMENT_H

#include <cstddef>
#include <vector>

#include "common/Matrix.h"
#include "common/Types.h"

namespace darth
{
namespace runtime
{

/** One part of a matrix placed on one HCT. */
struct MatrixPart
{
    std::size_t hctIndex = 0;
    std::size_t row0 = 0;
    std::size_t numRows = 0;
    std::size_t col0 = 0;
    std::size_t numCols = 0;
};

/** Placement plan for a matrix. */
struct MatrixPlan
{
    std::vector<MatrixPart> parts;
    /** True when parts split rows (outputs need cross-part adds). */
    bool rowSplit = false;
    std::size_t rows = 0;
    std::size_t cols = 0;
    int elementBits = 0;
    int bitsPerCell = 0;
};

/** One matrix programmed onto the chip (owned by the Runtime). */
struct PlacedMatrix
{
    MatrixI matrix;
    MatrixPlan plan;
    bool analogEnabled = true;
    /** Owning session (0 when placed through Runtime::placeMatrix
     *  without one; session ids start at 1). */
    u64 session = 0;
    /** Handle index in the Runtime registry (reused after release). */
    int id = -1;
    /** Never-reused placement identity (pipelining chains key on
     *  this, so a reused handle id cannot chain across placements). */
    u64 uid = 0;
};

} // namespace runtime
} // namespace darth

#endif // DARTH_RUNTIME_PLACEMENT_H
