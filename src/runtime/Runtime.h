/**
 * @file
 * Application-agnostic runtime library: a thin façade over the chip,
 * the placement planner, and the asynchronous submission scheduler.
 *
 * The runtime serves many concurrent clients. Each client opens a
 * Session (createSession()), places matrices through it — receiving
 * move-only RAII MatrixHandles whose placements are reclaimed on
 * release — and submits MVMs asynchronously: submit() enqueues a
 * request and returns an MvmFuture, the Scheduler packs queued
 * requests onto the HCTs that hold their matrices (tracking per-tile
 * busy-until cycles so independent placements overlap), and wait() /
 * waitAll() resolve results. See docs/runtime-api.md for the full
 * session/submission model, handle lifetime rules, and the migration
 * table from the old blocking calls.
 *
 * Placement is unchanged from the Table 1 library: setMatrix-style
 * placement plans column stripes when one tile holds all rows and row
 * stripes (with cross-part output adds) otherwise, and the 0-2
 * precision scale maps onto bits per cell.
 *
 * The original blocking entry points (setMatrix() returning a raw
 * int, run-to-completion execMVM()) are gone; docs/runtime-api.md
 * keeps the migration table from that surface to sessions.
 */

#ifndef DARTH_RUNTIME_RUNTIME_H
#define DARTH_RUNTIME_RUNTIME_H

#include <cstddef>
#include <memory>
#include <vector>

#include "analog/BitSlicing.h"
#include "common/ThreadAnnotations.h"
#include "runtime/Chip.h"
#include "runtime/KernelModel.h"
#include "runtime/Placement.h"
#include "runtime/Scheduler.h"
#include "runtime/Session.h"

namespace darth
{
namespace runtime
{

/** The application-agnostic runtime façade. */
class Runtime
{
  public:
    explicit Runtime(Chip &chip);

    /**
     * Map the programmer's precision scale (0-2) onto bits per cell:
     * 0 = 1 bit (SLC), 1 = half of the device maximum, 2 = maximum.
     */
    static int precisionToBitsPerCell(int precision,
                                      int device_max_bits = 4);

    /**
     * Plan a matrix placement without touching hardware. Static so
     * application mappers can cost large models analytically.
     */
    static MatrixPlan planMatrix(const hct::HctConfig &cfg,
                                 std::size_t rows, std::size_t cols,
                                 int element_bits, int bits_per_cell);

    // ------------------------------------------------------------------
    // Session API (the supported path).
    // ------------------------------------------------------------------

    /** Open a new client session. */
    Session createSession() EXCLUDES(mu_);

    /** The shared submission scheduler. */
    Scheduler &scheduler() { return scheduler_; }
    const Scheduler &scheduler() const { return scheduler_; }

    /**
     * Allocate HCTs and program a matrix; the registry id is wrapped
     * by Session::setMatrix into an RAII MatrixHandle.
     */
    int placeMatrix(const MatrixI &m, int element_bits,
                    int bits_per_cell, u64 session = 0)
        EXCLUDES(mu_);

    /**
     * Release a placed matrix: drains its in-flight MVMs and returns
     * its HCTs to the free pool so later placements can reuse them.
     */
    void freeMatrix(int handle) EXCLUDES(mu_);

    /** HCTs not currently owned by any placement. */
    std::size_t freeHcts() const EXCLUDES(mu_);

    // ------------------------------------------------------------------
    // Handle-level operations (valid for any session's handles).
    // disableAnalogMode is a barrier: in-flight MVMs against the
    // handle are drained first.
    // ------------------------------------------------------------------

    /** Disable the ACEs backing this matrix (copy to digital). */
    Cycle disableAnalogMode(int handle, Cycle start) EXCLUDES(mu_);

    /** Placement introspection. */
    const MatrixPlan &plan(int handle) const EXCLUDES(mu_);

    /** Stored matrix introspection. */
    const MatrixI &matrix(int handle) const EXCLUDES(mu_);

    Chip &chip() { return chip_; }

  private:
    friend class Session;
    friend class MatrixHandle;

    /**
     * Registry lookup. The returned reference outlives the registry
     * guard: PlacedMatrix objects are heap-stable (unique_ptr slots)
     * and mutated only behind drain barriers, so escaping the lock is
     * part of the contract — the Scheduler holds these pointers
     * across drains.
     */
    const PlacedMatrix &placedRef(int handle) const EXCLUDES(mu_);
    PlacedMatrix &placedRef(int handle) EXCLUDES(mu_);

    /** placedRef() body, for callers already holding the guard. */
    const PlacedMatrix &placedRefLocked(int handle) const
        REQUIRES(mu_);
    PlacedMatrix &placedRefLocked(int handle) REQUIRES(mu_);

    /** freeHcts() body, for callers already holding the guard. */
    std::size_t freeHctsLocked() const REQUIRES(mu_);

    /** Guards the placement registry and the id/uid counters (see
     *  common/ThreadAnnotations.h). */
    mutable SeqMutex mu_;

    Chip &chip_;
    /** Self-locking (its own mu_); not guarded here. */
    Scheduler scheduler_;
    std::vector<std::unique_ptr<PlacedMatrix>> placed_
        GUARDED_BY(mu_);
    std::vector<int> freeIds_ GUARDED_BY(mu_);
    std::vector<bool> occupied_ GUARDED_BY(mu_);
    std::size_t nextHct_ GUARDED_BY(mu_) = 0;
    u64 nextSession_ GUARDED_BY(mu_) = 1;
    u64 nextUid_ GUARDED_BY(mu_) = 1;
};

} // namespace runtime
} // namespace darth

#endif // DARTH_RUNTIME_RUNTIME_H
