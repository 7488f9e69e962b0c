/**
 * @file
 * Asynchronous MVM submission queue and cross-HCT scheduler.
 *
 * Sessions do not execute MVMs
 * directly: they enqueue MvmRequests and receive MvmFuture tokens.
 * The scheduler packs queued requests onto the tiles that hold their
 * matrices, tracking a busy-until cycle per HCT, so requests whose
 * placements occupy disjoint tiles overlap in simulated time while
 * requests contending for the same tiles serialize. Back-to-back
 * MVMs against the same placement pipeline at the KernelModel
 * amortized rate (the §5.1 streaming discipline the mappers assume):
 * the tile accepts the next same-matrix issue one amortized period
 * after the previous start, while other work waits for full
 * completion. Draining is lazy:
 * functional execution happens when a future is waited on (or at a
 * waitAll()/barrier), always in a deterministic greedy order —
 * earliest achievable start first, submission order as tiebreak — so
 * results and timings are reproducible regardless of wait order.
 * A serving front end can switch a scheduler to submission order
 * instead (setDrainOrder), so drains follow its admission order (see
 * src/serve/Admission.h).
 *
 * A submit may name `after` dependencies — futures of earlier
 * requests whose done cycles feed the request's `earliest` bound.
 * That is how InferenceGraph turns dataflow edges (producing layer ->
 * consuming layer) into scheduler constraints: a dependent request is
 * ineligible until its dependencies execute, then starts no earlier
 * than their completion. Dependencies are acyclic by construction
 * (futures exist only after their submit), so the deterministic
 * greedy drain always finds an eligible request.
 *
 * The queue holds runs, not single requests: a run is consecutive
 * submissions that share a placement, an `earliest` bound and an
 * `after` list, stored once, with the requests (id, input, input
 * bits, oracle cost) in a FIFO. Every member of a run has the same
 * readiness and the same achievable start, so the greedy drain's
 * lowest-id tiebreak only ever picks a run's front: a pick costs
 * O(runs), and a whole-layer stream (one run) issues in O(1).
 *
 * Functional results are bit-exact and independent of scheduling;
 * only the start/done cycle stamps depend on queue contention.
 */

#ifndef DARTH_RUNTIME_SCHEDULER_H
#define DARTH_RUNTIME_SCHEDULER_H

#include <cstddef>
#include <deque>
#include <map>
#include <vector>

#include "common/ThreadAnnotations.h"
#include "runtime/Chip.h"
#include "runtime/KernelModel.h"
#include "runtime/Placement.h"

namespace darth
{
namespace runtime
{

/** Monotonic identifier of one submitted MVM request. */
using RequestId = u64;

class Scheduler;

/** Token for one in-flight MVM; resolved by Scheduler::wait(). */
class MvmFuture
{
  public:
    MvmFuture() = default;

    /** False for default-constructed (never-submitted) futures. */
    bool valid() const { return id_ != 0; }

    RequestId id() const { return id_; }

  private:
    friend class Scheduler;
    MvmFuture(RequestId id, const Scheduler *owner)
        : id_(id), owner_(owner)
    {}

    RequestId id_ = 0;
    /** Issuing scheduler: `after` dependencies are rejected when
     *  offered to a different scheduler (ids are per-scheduler). */
    const Scheduler *owner_ = nullptr;
};

/** Lifetime counters of one scheduler (serving telemetry). */
struct SchedulerCounters
{
    /** Requests executed. */
    u64 issued = 0;
    /** Executed requests that pipelined into a still-running
     *  same-matrix stream on at least one tile. */
    u64 pipelineHits = 0;
    /** Executed requests whose start cycle was raised by an `after`
     *  dependency beyond both their submit-time `earliest` and the
     *  tile-ready bound. */
    u64 dependencyStalls = 0;
    /**
     * Compiled-kernel cache audit (digital/KernelCache.h): hits and
     * misses of the PROCESS-WIDE gate-program cache, snapshotted at
     * counters() time. Unlike the per-scheduler fields above these
     * aggregate over every chip (and every pool) in the process —
     * serving telemetry for the translation-cache hit rate, not
     * per-chip state, so they are never journaled or diffed.
     */
    u64 kernelCacheHits = 0;
    u64 kernelCacheMisses = 0;
};

/** The order in which a scheduler drains its queue. */
enum class DrainOrder
{
    /** Greedy: earliest achievable start first among
     *  dependency-ready requests, submission order as tiebreak. */
    EarliestStart,
    /** Strictly by submission (RequestId). The oldest queued request
     *  is always dependency-ready, since its dependencies are older
     *  and already out of the queue. */
    Submission,
};

/** Result of one MVM request. */
struct MvmResult
{
    std::vector<i64> values;
    /** Cycle the first part started executing. */
    Cycle start = 0;
    /** Cycle the gathered (and, for row splits, reduced) output is
     *  complete. */
    Cycle done = 0;
};

/**
 * Packs queued MVM requests onto free HCTs.
 *
 * Thread-safety contract (checked by clang -Wthread-safety): every
 * queue, timing table, and counter is GUARDED_BY(mu_); public entry
 * points take the lock, private helpers REQUIRE it. See
 * common/ThreadAnnotations.h.
 */
class Scheduler
{
  public:
    explicit Scheduler(Chip &chip);

    /**
     * Enqueue one MVM against a placed matrix. Validates the input
     * length against the placement plan, and that no part's exact
     * result outgrows its tile's accumulator (hct::
     * checkAccumulatorFits), with std::invalid_argument, but executes
     * nothing yet.
     *
     * @param earliest  Lower bound on the start cycle (e.g. the
     *                  producing kernel's completion).
     */
    MvmFuture submit(const PlacedMatrix &pm, std::vector<i64> x,
                     int input_bits, Cycle earliest = 0)
        EXCLUDES(mu_);

    /**
     * Enqueue one MVM that must start after other requests complete.
     * Each `after` future's done cycle feeds the `earliest` bound
     * once known; until every dependency has executed the request is
     * ineligible for dequeue. Dependencies are always older requests
     * (futures exist only after their submit), so dependency chains
     * are acyclic and the drain order stays deterministic. Results
     * are bit-exact regardless of dependencies; only timing moves.
     * Throws std::invalid_argument on an invalid or unknown future.
     */
    MvmFuture submit(const PlacedMatrix &pm, std::vector<i64> x,
                     int input_bits, Cycle earliest,
                     const std::vector<MvmFuture> &after)
        EXCLUDES(mu_);

    /**
     * Session-checked resolve: drains the queue (in greedy order)
     * until the request has executed, then returns and releases its
     * result. Each future can be waited on exactly once, only on the
     * scheduler that issued it, and only by the session that
     * submitted it (std::invalid_argument otherwise).
     */
    MvmResult wait(const MvmFuture &future, u64 session)
        EXCLUDES(mu_);

    /** Drain every queued request; returns the resulting makespan. */
    Cycle waitAll() EXCLUDES(mu_);

    /** Drain queued requests belonging to one session. */
    void drainSession(u64 session) EXCLUDES(mu_);

    /**
     * Drop a session's uncollected results (called on session
     * teardown so drained-but-never-waited results cannot accumulate
     * forever).
     */
    void discardSession(u64 session) EXCLUDES(mu_);

    /**
     * Drain queued requests targeting one placed matrix (a barrier
     * before weight updates, mode switches, or release).
     */
    void drainMatrix(int handle) EXCLUDES(mu_);

    /** Queued-but-unexecuted request count. */
    std::size_t pendingCount() const EXCLUDES(mu_)
    {
        SeqLock lock(mu_);
        return pending_;
    }

    /**
     * Queue pressure in cycles, not counts: the summed KernelModel
     * oracle latency of every queued-but-unexecuted request. A queue
     * of three wide GF(2) banks and a queue of three whole-layer CNN
     * streams have the same pendingCount() but very different
     * backlogCycles(); the pool's load-aware CostAware placement
     * scores chips by this (see ChipPool::placementScore).
     */
    Cycle backlogCycles() const EXCLUDES(mu_)
    {
        SeqLock lock(mu_);
        return backlog_;
    }

    /** Queued-but-unexecuted requests belonging to one session. */
    std::size_t pendingRequests(u64 session) const EXCLUDES(mu_);

    /**
     * Select the drain order (DrainOrder::EarliestStart by default).
     * Timings still honour per-tile busy-until packing, so the order
     * reorders service, it does not bypass contention.
     */
    void setDrainOrder(DrainOrder order) EXCLUDES(mu_);

    /** Requests executed over the scheduler's lifetime. */
    u64 completedCount() const EXCLUDES(mu_)
    {
        SeqLock lock(mu_);
        return completed_;
    }

    /** Lifetime counters (issues, pipeline hits, dependency stalls),
     *  plus a snapshot of the process-wide compiled-kernel cache
     *  audit. Returned by value: a snapshot stays coherent once
     *  worker threads mutate the counters concurrently. */
    SchedulerCounters counters() const EXCLUDES(mu_);

    /**
     * KernelModel oracle latency of one MVM against a placement plan
     * (the worst part) — the per-request cost backlogCycles() sums
     * and the serving layer's nominal WFQ charge.
     * Cached per shape.
     */
    Cycle oracleCost(const MatrixPlan &plan, int input_bits)
        EXCLUDES(mu_);

    /** Executed results not yet collected by a wait(). */
    std::size_t uncollectedCount() const EXCLUDES(mu_)
    {
        SeqLock lock(mu_);
        return results_.size();
    }

    /** Cycle the given HCT is busy until. */
    Cycle busyUntil(std::size_t hct) const EXCLUDES(mu_);

    /** Max busy-until over all HCTs (current schedule makespan). */
    Cycle makespan() const EXCLUDES(mu_);

  private:
    /** End of a slot chain (run FIFO or free list). */
    static constexpr u32 kNoSlot = ~u32{0};

    /** One queued MVM: what may differ within a run. */
    struct Request
    {
        RequestId id = 0;
        std::vector<i64> x;
        int inputBits = 0;
        /** Slot of the next request in the run's FIFO (or of the
         *  next free slot); kNoSlot ends the chain. */
        u32 next = kNoSlot;
        /** Oracle latency stamped at submit (see oracleCost()). */
        Cycle oracleCost = 0;
    };

    /**
     * Consecutive queued submissions with one placement, `earliest`
     * bound and `after` list. Runs are in submission order: every id
     * in a run is below every id in the runs after it.
     */
    struct Run
    {
        /** Shared placement; its session owns every member. A
         *  queued request's placement is alive (release drains it
         *  first), and a placement's session never changes. */
        const PlacedMatrix *pm = nullptr;
        Cycle earliest = 0;
        /** Requests that must complete before any member starts. */
        std::vector<RequestId> deps;
        /** FIFO of members, chained through slots_[].next. */
        u32 head = kNoSlot;
        u32 tail = kNoSlot;
        std::size_t size = 0;
    };

    struct CompletedRequest
    {
        MvmResult result;
        u64 session = 0;
    };

    /** Cycle the tile could accept this request's part. */
    Cycle tileReady(std::size_t hct, const PlacedMatrix &pm) const
        REQUIRES(mu_);

    /** True once every dependency of the run has executed. */
    bool depsReady(const Run &run) const REQUIRES(mu_);

    /** Max done cycle over executed dependencies (0 when none). */
    Cycle depBound(const Run &run) const REQUIRES(mu_);

    /** Done cycle of an executed request (doneCycle_ decoded). */
    Cycle doneCycleOf(RequestId id) const REQUIRES(mu_);

    /** Earliest start the run's front could achieve right now. */
    Cycle achievableStart(const Run &run) const REQUIRES(mu_);

    /** Index of the run whose front runs next under drainOrder_:
     *  O(runs), never O(requests). */
    std::size_t pickNext() const REQUIRES(mu_);

    /** The run holding a queued request (binary search by front). */
    const Run &owningRun(RequestId id) const REQUIRES(mu_);

    /** Unlink runs_[index]'s front request, erasing the run once it
     *  empties; the slot goes back to the free list. */
    Request popFront(std::size_t index) REQUIRES(mu_);

    /** Execute runs_[index]'s front request and record its result. */
    void executeAt(std::size_t index) REQUIRES(mu_);

    /** oracleCost() body, for callers already holding the lock. */
    Cycle oracleCostLocked(const MatrixPlan &plan, int input_bits)
        REQUIRES(mu_);

    /** makespan() body, for callers already holding the lock. */
    Cycle makespanLocked() const REQUIRES(mu_);

    /** Guards every queue, timing table, and counter below. */
    mutable SeqMutex mu_;

    Chip &chip_;
    /** Mutable per-shape cost cache (oracleCost). */
    KernelModel kernels_ GUARDED_BY(mu_);
    DrainOrder drainOrder_ GUARDED_BY(mu_) = DrainOrder::EarliestStart;
    /** The queue: runs in submission order. */
    std::vector<Run> runs_ GUARDED_BY(mu_);
    /** Request pool the runs' FIFOs chain through. Freed slots are
     *  reused, so one-request runs (the serving layer's usual case)
     *  allocate nothing once the pool covers the deepest queue. */
    std::vector<Request> slots_ GUARDED_BY(mu_);
    u32 freeSlot_ GUARDED_BY(mu_) = kNoSlot;
    /** Queued-but-unexecuted requests over all runs. */
    std::size_t pending_ GUARDED_BY(mu_) = 0;
    std::map<RequestId, CompletedRequest> results_ GUARDED_BY(mu_);
    std::vector<Cycle> busyUntil_ GUARDED_BY(mu_);
    /** Next same-matrix issue slot per tile (pipelined streaming). */
    std::vector<Cycle> nextIssue_ GUARDED_BY(mu_);
    /** Placement uid of the last MVM each tile ran. */
    std::vector<u64> lastUid_ GUARDED_BY(mu_);
    /** Done cycle per executed request, indexed by RequestId - 1
     *  (kPendingDone until execution) — dependency resolution. Grows
     *  4 bytes per submitted request for the scheduler's lifetime:
     *  clients may hold futures (and submit dependents) arbitrarily
     *  late, so no entry is provably dead. A cycle too wide for 32
     *  bits is stored as kWideDone with its value in wideDone_. A
     *  deque grows without reallocating, so the peak stays ~4 MB per
     *  million requests. */
    std::deque<u32> doneCycle_ GUARDED_BY(mu_);
    std::map<RequestId, Cycle> wideDone_ GUARDED_BY(mu_);
    RequestId nextId_ GUARDED_BY(mu_) = 1;
    u64 completed_ GUARDED_BY(mu_) = 0;
    SchedulerCounters counters_ GUARDED_BY(mu_);
    /** Summed oracleCost of queued requests (backlogCycles()). */
    Cycle backlog_ GUARDED_BY(mu_) = 0;
};

} // namespace runtime
} // namespace darth

#endif // DARTH_RUNTIME_SCHEDULER_H
