#include "runtime/Scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/Logging.h"
#include "digital/KernelCache.h"

namespace darth
{
namespace runtime
{

namespace
{

/** doneCycle_ entry of a submitted-but-unexecuted request. */
constexpr u32 kPendingDone = ~u32{0};
/** doneCycle_ entry of a request whose done cycle is in wideDone_. */
constexpr u32 kWideDone = kPendingDone - 1;

} // namespace

Scheduler::Scheduler(Chip &chip)
    : chip_(chip), kernels_(chip.config().hct),
      busyUntil_(chip.numHcts(), 0), nextIssue_(chip.numHcts(), 0),
      lastUid_(chip.numHcts(), 0)
{
}

MvmFuture
Scheduler::submit(const PlacedMatrix &pm, std::vector<i64> x,
                  int input_bits, Cycle earliest)
{
    return submit(pm, std::move(x), input_bits, earliest, {});
}

MvmFuture
Scheduler::submit(const PlacedMatrix &pm, std::vector<i64> x,
                  int input_bits, Cycle earliest,
                  const std::vector<MvmFuture> &after)
{
    SeqLock lock(mu_);
    if (!pm.analogEnabled)
        darth_fatal("Scheduler::submit: analog mode is disabled for "
                    "matrix handle ", pm.id);
    if (x.size() != pm.plan.rows)
        throw std::invalid_argument(
            "Scheduler::submit: MVM input has " +
            std::to_string(x.size()) + " elements but matrix handle " +
            std::to_string(pm.id) + " is planned as " +
            std::to_string(pm.plan.rows) + " rows x " +
            std::to_string(pm.plan.cols) +
            " cols (inputs must have one element per row)");
    if (input_bits <= 0)
        throw std::invalid_argument(
            "Scheduler::submit: input_bits must be positive, got " +
            std::to_string(input_bits));
    for (const auto &part : pm.plan.parts)
        hct::checkAccumulatorFits(chip_.config().hct,
                                  pm.plan.elementBits, input_bits,
                                  part.numRows, "Scheduler::submit");

    // Validate dependencies before allocating the id: a throw here
    // must leave ids and the doneCycle_ index in lockstep.
    for (const MvmFuture &dep : after)
        if (!dep.valid() || dep.owner_ != this ||
            dep.id() >= nextId_)
            throw std::invalid_argument(
                "Scheduler::submit: `after` future is invalid, from "
                "another scheduler, or was never submitted");

    const Cycle cost = oracleCostLocked(pm.plan, input_bits);
    // A submission joins the back run when it shares the run's
    // placement, `earliest` and `after` list; otherwise it opens one.
    const auto same_deps = [&](const Run &run) {
        return std::equal(run.deps.begin(), run.deps.end(),
                          after.begin(), after.end(),
                          [](RequestId id, const MvmFuture &dep) {
                              return id == dep.id();
                          });
    };
    if (runs_.empty() || runs_.back().pm != &pm ||
        runs_.back().earliest != earliest || !same_deps(runs_.back())) {
        Run run;
        run.pm = &pm;
        run.earliest = earliest;
        run.deps.reserve(after.size());
        for (const MvmFuture &dep : after)
            run.deps.push_back(dep.id());
        runs_.push_back(std::move(run));
    }

    u32 slot = freeSlot_;
    if (slot == kNoSlot) {
        slot = static_cast<u32>(slots_.size());
        slots_.emplace_back();
    } else {
        freeSlot_ = slots_[slot].next;
    }
    Request &req = slots_[slot];
    req.id = nextId_++;
    req.x = std::move(x);
    req.inputBits = input_bits;
    req.next = kNoSlot;
    req.oracleCost = cost;

    Run &run = runs_.back();
    if (run.size == 0)
        run.head = slot;
    else
        slots_[run.tail].next = slot;
    run.tail = slot;
    ++run.size;
    ++pending_;
    doneCycle_.push_back(kPendingDone);
    backlog_ += cost;
    return MvmFuture(req.id, this);
}

Cycle
Scheduler::oracleCost(const MatrixPlan &plan, int input_bits)
{
    SeqLock lock(mu_);
    return oracleCostLocked(plan, input_bits);
}

Cycle
Scheduler::oracleCostLocked(const MatrixPlan &plan, int input_bits)
{
    Cycle worst = 0;
    for (const auto &part : plan.parts) {
        MvmShape shape;
        shape.rows = part.numRows;
        shape.cols = part.numCols;
        shape.elementBits = plan.elementBits;
        shape.bitsPerCell = plan.bitsPerCell;
        shape.inputBits = input_bits;
        worst = std::max(worst, kernels_.mvm(shape).latency);
    }
    return worst;
}

bool
Scheduler::depsReady(const Run &run) const
{
    for (RequestId dep : run.deps)
        if (doneCycle_[dep - 1] == kPendingDone)
            return false;
    return true;
}

Cycle
Scheduler::depBound(const Run &run) const
{
    Cycle bound = 0;
    for (RequestId dep : run.deps)
        bound = std::max(bound, doneCycleOf(dep));
    return bound;
}

Cycle
Scheduler::doneCycleOf(RequestId id) const
{
    const u32 done = doneCycle_[id - 1];
    return done == kWideDone ? wideDone_.at(id) : Cycle{done};
}

Cycle
Scheduler::tileReady(std::size_t hct, const PlacedMatrix &pm) const
{
    // A tile streaming MVMs of one placement accepts the next issue
    // one amortized period after the previous start; anything else
    // waits for the tile to finish outright.
    return lastUid_[hct] == pm.uid ? nextIssue_[hct]
                                   : busyUntil_[hct];
}

Cycle
Scheduler::achievableStart(const Run &run) const
{
    Cycle start = std::max(run.earliest, depBound(run));
    for (const auto &part : run.pm->plan.parts)
        start = std::max(start, tileReady(part.hctIndex, *run.pm));
    return start;
}

std::size_t
Scheduler::pickNext() const
{
    // Members of a run share readiness and achievable start, and runs
    // are in submission order, so the first run front with the
    // earliest start is the lowest-id request with it.
    if (drainOrder_ == DrainOrder::Submission)
        return 0;
    std::size_t best = runs_.size();
    Cycle best_start = 0;
    for (std::size_t i = 0; i < runs_.size(); ++i) {
        if (!depsReady(runs_[i]))
            continue;
        const Cycle start = achievableStart(runs_[i]);
        // Strictly-less keeps submission order as the tiebreak.
        if (best == runs_.size() || start < best_start) {
            best = i;
            best_start = start;
        }
    }
    if (best == runs_.size())
        darth_panic("Scheduler::pickNext: no dependency-ready request "
                    "in a non-empty queue (dependency cycle?)");
    return best;
}

const Scheduler::Run &
Scheduler::owningRun(RequestId id) const
{
    // A local alias: clang's -Wthread-safety does not carry the held
    // lock into lambda bodies.
    const std::vector<Request> &slots = slots_;
    const auto after = std::upper_bound(
        runs_.begin(), runs_.end(), id,
        [&slots](RequestId v, const Run &run) {
            return v < slots[run.head].id;
        });
    if (after == runs_.begin())
        darth_panic("Scheduler::owningRun: request ", id,
                    " is pending but precedes every queued run");
    return *(after - 1);
}

Scheduler::Request
Scheduler::popFront(std::size_t index)
{
    Run &run = runs_[index];
    const u32 slot = run.head;
    Request req = std::move(slots_[slot]);
    run.head = req.next;
    slots_[slot].next = freeSlot_;
    freeSlot_ = slot;
    if (--run.size == 0)
        runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(index));
    --pending_;
    backlog_ -= std::min(backlog_, req.oracleCost);
    return req;
}

void
Scheduler::setDrainOrder(DrainOrder order)
{
    SeqLock lock(mu_);
    drainOrder_ = order;
}

SchedulerCounters
Scheduler::counters() const
{
    SchedulerCounters snapshot;
    {
        SeqLock lock(mu_);
        snapshot = counters_;
    }
    // The compiled-kernel cache is process-wide (every chip's
    // pipelines share it), so the audit fields are read from the
    // cache singleton, outside this scheduler's lock.
    snapshot.kernelCacheHits = digital::KernelCache::instance().hits();
    snapshot.kernelCacheMisses =
        digital::KernelCache::instance().misses();
    return snapshot;
}

std::size_t
Scheduler::pendingRequests(u64 session) const
{
    SeqLock lock(mu_);
    std::size_t count = 0;
    for (const Run &run : runs_)
        if (run.pm->session == session)
            count += run.size;
    return count;
}

void
Scheduler::executeAt(std::size_t index)
{
    const Run &run = runs_[index];
    const PlacedMatrix &pm = *run.pm;
    const MatrixPlan &plan = pm.plan;

    // Dependencies completed (pickNext only offers ready runs); their
    // done cycles harden the earliest bound.
    const Cycle dep_bound = depBound(run);
    const Cycle earliest = std::max(run.earliest, dep_bound);
    // A dependency stall is a start pushed later than both the
    // submit-time earliest and what the tiles alone would allow.
    if (!run.deps.empty()) {
        Cycle tile_bound = run.earliest;
        for (const auto &part : plan.parts)
            tile_bound =
                std::max(tile_bound, tileReady(part.hctIndex, pm));
        if (dep_bound > tile_bound)
            ++counters_.dependencyStalls;
    }
    const Request req = popFront(index);

    MvmResult result;
    result.values.assign(plan.cols, 0);

    bool first = true;
    bool pipelined = false;
    Cycle done = earliest;
    std::vector<i64> sub_x;
    for (const auto &part : plan.parts) {
        // A part over every row takes the request's input as it is.
        const bool all_rows = part.numRows == req.x.size();
        if (!all_rows)
            sub_x.assign(
                req.x.begin() + static_cast<std::ptrdiff_t>(part.row0),
                req.x.begin() + static_cast<std::ptrdiff_t>(
                                    part.row0 + part.numRows));
        const Cycle prev_busy = busyUntil_[part.hctIndex];
        const Cycle start =
            std::max(earliest, tileReady(part.hctIndex, pm));
        auto part_result =
            chip_.hct(part.hctIndex)
                .execMvm(all_rows ? req.x : sub_x, req.inputBits, start);
        for (std::size_t c = 0; c < part.numCols; ++c)
            result.values[part.col0 + c] += part_result.values[c];

        MvmShape shape;
        shape.rows = part.numRows;
        shape.cols = part.numCols;
        shape.elementBits = plan.elementBits;
        shape.bitsPerCell = plan.bitsPerCell;
        shape.inputBits = req.inputBits;
        // Tile idle at issue time: the Hct's own (arbiter-accurate)
        // completion is exact. Pipelined issue into a still-running
        // stream: completions space at the KernelModel steady-state
        // amortized interval (the Hct simulates one MVM at a time
        // and cannot express the overlap itself) — but never earlier
        // than one full MVM after this request's own issue cycle,
        // which matters when `earliest` lands mid-stream.
        const KernelCost mvm_cost = kernels_.mvm(shape);
        pipelined = pipelined || start < prev_busy;
        const Cycle part_done =
            start >= prev_busy
                ? part_result.done
                : std::max(prev_busy + mvm_cost.amortized,
                           start + mvm_cost.latency);
        busyUntil_[part.hctIndex] = part_done;
        // Keep the functional tile's clock on the modeled timeline:
        // the Hct ran this issue serially, so for pipelined issues
        // its arbiter would otherwise drift ahead of the amortized
        // schedule and bill the phantom time to the next idle-tile
        // issue.
        chip_.hct(part.hctIndex).arbiter().rebase(part_done);
        nextIssue_[part.hctIndex] = start + mvm_cost.amortized;
        lastUid_[part.hctIndex] = pm.uid;

        done = std::max(done, part_done);
        result.start = first ? start : std::min(result.start, start);
        first = false;
    }

    if (plan.rowSplit) {
        // Cross-part reduction: partial sums are shuffled to the home
        // tile and added with pipelined DCE ADDs; charge one ADD per
        // extra part per column stripe plus the row I/O.
        std::size_t parts_per_col = 0;
        for (const auto &part : plan.parts)
            parts_per_col += part.col0 == plan.parts[0].col0;
        const std::size_t extra =
            parts_per_col > 0 ? parts_per_col - 1 : 0;
        if (extra > 0) {
            const auto add =
                kernels_.macro(digital::MacroKind::Add, 32);
            const auto io =
                kernels_.rowIo(std::min<std::size_t>(plan.cols, 64));
            const Cycle penalty = static_cast<Cycle>(extra) *
                                  (add.amortized + io.latency);
            done += penalty;
            const std::size_t home = plan.parts[0].hctIndex;
            busyUntil_[home] = std::max(busyUntil_[home], done);
            chip_.hct(home).arbiter().rebase(busyUntil_[home]);
            // The home tile's DCE is doing the cross-part adds, so
            // the next pipelined issue slips by the same amount.
            nextIssue_[home] += penalty;
        }
    }
    result.done = done;

    if (done < kWideDone) {
        doneCycle_[req.id - 1] = static_cast<u32>(done);
    } else {
        doneCycle_[req.id - 1] = kWideDone;
        wideDone_[req.id] = done;
    }
    ++counters_.issued;
    counters_.pipelineHits += pipelined;
    results_.emplace(req.id,
                     CompletedRequest{std::move(result), pm.session});
    ++completed_;
}

MvmResult
Scheduler::wait(const MvmFuture &future, u64 session)
{
    SeqLock lock(mu_);
    if (!future.valid())
        throw std::invalid_argument(
            "Scheduler::wait: invalid (default-constructed) future");
    const RequestId id = future.id();
    if (future.owner_ != this)
        throw std::invalid_argument(
            "Scheduler::wait: future " + std::to_string(id) +
            " was issued by another scheduler");
    const auto wrong_session = [&](u64 owner) {
        return std::invalid_argument(
            "Scheduler::wait: future " + std::to_string(id) +
            " belongs to session " + std::to_string(owner) +
            ", not to session " + std::to_string(session));
    };
    if (id < nextId_ && doneCycle_[id - 1] == kPendingDone) {
        // Not executed yet: check the owner once, then drain until
        // the request executes.
        const u64 owner = owningRun(id).pm->session;
        if (owner != session)
            throw wrong_session(owner);
        while (doneCycle_[id - 1] == kPendingDone)
            executeAt(pickNext());
    }
    const auto it = results_.find(id);
    if (it == results_.end())
        throw std::invalid_argument(
            "Scheduler::wait: future " + std::to_string(id) +
            " is unknown or was already collected");
    if (it->second.session != session)
        throw wrong_session(it->second.session);
    MvmResult result = std::move(it->second.result);
    results_.erase(it);
    return result;
}

Cycle
Scheduler::waitAll()
{
    SeqLock lock(mu_);
    while (!runs_.empty())
        executeAt(pickNext());
    return makespanLocked();
}

void
Scheduler::drainSession(u64 session)
{
    SeqLock lock(mu_);
    const auto of_session = [&](const Run &run) {
        return run.pm->session == session;
    };
    while (std::any_of(runs_.begin(), runs_.end(), of_session))
        executeAt(pickNext());
}

void
Scheduler::discardSession(u64 session)
{
    SeqLock lock(mu_);
    for (auto it = results_.begin(); it != results_.end();) {
        if (it->second.session == session)
            it = results_.erase(it);
        else
            ++it;
    }
}

void
Scheduler::drainMatrix(int handle)
{
    SeqLock lock(mu_);
    const auto of_matrix = [&](const Run &run) {
        return run.pm->id == handle;
    };
    while (std::any_of(runs_.begin(), runs_.end(), of_matrix))
        executeAt(pickNext());
}

Cycle
Scheduler::busyUntil(std::size_t hct) const
{
    SeqLock lock(mu_);
    if (hct >= busyUntil_.size())
        darth_panic("Scheduler::busyUntil: HCT ", hct,
                    " out of range ", busyUntil_.size());
    return busyUntil_[hct];
}

Cycle
Scheduler::makespan() const
{
    SeqLock lock(mu_);
    return makespanLocked();
}

Cycle
Scheduler::makespanLocked() const
{
    Cycle max = 0;
    for (Cycle t : busyUntil_)
        max = std::max(max, t);
    return max;
}

} // namespace runtime
} // namespace darth
