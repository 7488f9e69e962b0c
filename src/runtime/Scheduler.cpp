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

/** doneCycle_ sentinel for a submitted-but-unexecuted request. */
constexpr Cycle kPendingDone = ~Cycle{0};

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

    // Validate dependencies before allocating the id: a throw here
    // must leave ids and the doneCycle_ index in lockstep.
    for (const MvmFuture &dep : after)
        if (!dep.valid() || dep.owner_ != this ||
            dep.id() >= nextId_)
            throw std::invalid_argument(
                "Scheduler::submit: `after` future is invalid, from "
                "another scheduler, or was never submitted");

    Request req;
    req.id = nextId_++;
    req.pm = &pm;
    req.x = std::move(x);
    req.inputBits = input_bits;
    req.earliest = earliest;
    req.session = pm.session;
    req.oracleCost = oracleCostLocked(pm.plan, input_bits);
    req.deps.reserve(after.size());
    for (const MvmFuture &dep : after)
        req.deps.push_back(dep.id());
    doneCycle_.push_back(kPendingDone);
    backlog_ += req.oracleCost;
    queue_.push_back(std::move(req));
    return MvmFuture(queue_.back().id, this);
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
Scheduler::depsReady(const Request &req) const
{
    for (RequestId dep : req.deps)
        if (doneCycle_[dep - 1] == kPendingDone)
            return false;
    return true;
}

Cycle
Scheduler::depBound(const Request &req) const
{
    Cycle bound = 0;
    for (RequestId dep : req.deps)
        bound = std::max(bound, doneCycle_[dep - 1]);
    return bound;
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
Scheduler::achievableStart(const Request &req) const
{
    Cycle start = std::max(req.earliest, depBound(req));
    for (const auto &part : req.pm->plan.parts)
        start = std::max(start, tileReady(part.hctIndex, *req.pm));
    return start;
}

std::size_t
Scheduler::pickNext() const
{
    if (drainOrder_ == DrainOrder::Submission)
        return 0;
    std::size_t best = queue_.size();
    Cycle best_start = 0;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        if (!depsReady(queue_[i]))
            continue;
        const Cycle start = achievableStart(queue_[i]);
        // Strictly-less keeps submission order as the tiebreak.
        if (best == queue_.size() || start < best_start) {
            best = i;
            best_start = start;
        }
    }
    if (best == queue_.size())
        darth_panic("Scheduler::pickNext: no dependency-ready request "
                    "in a non-empty queue (dependency cycle?)");
    return best;
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
    for (const auto &req : queue_)
        count += req.session == session;
    return count;
}

void
Scheduler::executeAt(std::size_t index)
{
    Request req = std::move(queue_[index]);
    queue_.erase(queue_.begin() +
                 static_cast<std::ptrdiff_t>(index));
    backlog_ -= std::min(backlog_, req.oracleCost);

    const MatrixPlan &plan = req.pm->plan;
    MvmResult result;
    result.values.assign(plan.cols, 0);

    // Dependencies completed (pickNext only offers ready requests);
    // their done cycles harden the earliest bound.
    const Cycle dep_bound = depBound(req);
    const Cycle earliest = std::max(req.earliest, dep_bound);
    // A dependency stall is a start pushed later than both the
    // submit-time earliest and what the tiles alone would allow.
    if (!req.deps.empty()) {
        Cycle tile_bound = req.earliest;
        for (const auto &part : plan.parts)
            tile_bound = std::max(
                tile_bound, tileReady(part.hctIndex, *req.pm));
        if (dep_bound > tile_bound)
            ++counters_.dependencyStalls;
    }

    bool first = true;
    bool pipelined = false;
    Cycle done = earliest;
    for (const auto &part : plan.parts) {
        std::vector<i64> sub_x(
            req.x.begin() + static_cast<std::ptrdiff_t>(part.row0),
            req.x.begin() +
                static_cast<std::ptrdiff_t>(part.row0 + part.numRows));
        const Cycle prev_busy = busyUntil_[part.hctIndex];
        const Cycle start = std::max(
            earliest, tileReady(part.hctIndex, *req.pm));
        auto part_result = chip_.hct(part.hctIndex)
                               .execMvm(sub_x, req.inputBits, start);
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
        lastUid_[part.hctIndex] = req.pm->uid;

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

    doneCycle_[req.id - 1] = done;
    ++counters_.issued;
    counters_.pipelineHits += pipelined;
    results_.emplace(req.id,
                     CompletedRequest{std::move(result), req.session});
    ++completed_;
}

MvmResult
Scheduler::wait(const MvmFuture &future, u64 session)
{
    SeqLock lock(mu_);
    if (!future.valid())
        throw std::invalid_argument(
            "Scheduler::wait: invalid (default-constructed) future");
    auto it = results_.find(future.id());
    if (it == results_.end()) {
        // Not executed yet: validate once against the queue (ids
        // never re-enter it), then drain until the result appears.
        const auto qit = std::find_if(
            queue_.begin(), queue_.end(),
            [&](const Request &req) { return req.id == future.id(); });
        if (qit == queue_.end())
            throw std::invalid_argument(
                "Scheduler::wait: future " +
                std::to_string(future.id()) +
                " is unknown or was already collected");
        if (qit->session != session)
            throw std::invalid_argument(
                "Scheduler::wait: future " +
                std::to_string(future.id()) + " belongs to session " +
                std::to_string(qit->session) + ", not to session " +
                std::to_string(session));
        while ((it = results_.find(future.id())) == results_.end())
            executeAt(pickNext());
    }
    if (it->second.session != session)
        throw std::invalid_argument(
            "Scheduler::wait: future " + std::to_string(future.id()) +
            " belongs to session " +
            std::to_string(it->second.session) + ", not to session " +
            std::to_string(session));
    MvmResult result = std::move(it->second.result);
    results_.erase(it);
    return result;
}

Cycle
Scheduler::waitAll()
{
    SeqLock lock(mu_);
    while (!queue_.empty())
        executeAt(pickNext());
    return makespanLocked();
}

void
Scheduler::drainSession(u64 session)
{
    SeqLock lock(mu_);
    for (;;) {
        bool pending = false;
        for (const auto &req : queue_) {
            if (req.pm->session == session) {
                pending = true;
                break;
            }
        }
        if (!pending)
            return;
        executeAt(pickNext());
    }
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
    for (;;) {
        bool pending = false;
        for (const auto &req : queue_) {
            if (req.pm->id == handle) {
                pending = true;
                break;
            }
        }
        if (!pending)
            return;
        executeAt(pickNext());
    }
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
