#include "serve/Admission.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/Fnv.h"
#include "common/Logging.h"
#include "common/WorkerPool.h"
#include "journal/Journal.h"
#include "serve/FleetController.h"

namespace darth
{
namespace serve
{

const char *
qosPolicyName(QosPolicy policy)
{
    switch (policy) {
      case QosPolicy::Fifo:
        return "fifo";
      case QosPolicy::RoundRobin:
        return "round_robin";
      case QosPolicy::WeightedFair:
        return "weighted_fair";
    }
    darth_panic("qosPolicyName: unknown policy");
}

const char *
granularityName(Granularity granularity)
{
    switch (granularity) {
      case Granularity::Inference:
        return "inference";
      case Granularity::Stage:
        return "stage";
    }
    darth_panic("granularityName: unknown granularity");
}

ServedModel
tenantModel(const TrafficGen &gen, const TenantSpec &spec,
            std::size_t index)
{
    // A zero modelKey means a private model: give the weights a
    // unique identity (salted by the tenant index) but keep the
    // placement key 0 so no affinity sharing happens.
    const u64 weight_key = spec.modelKey != 0
                               ? spec.modelKey
                               : TrafficGen::privateModelKey(index);
    switch (spec.kind) {
      case WorkloadKind::CnnInfer:
        return gen.cnnInferNet(weight_key);
      case WorkloadKind::LlmInfer:
        return gen.llmInferNet(weight_key);
      default:
        return MatrixModel{gen.weights(spec.kind, weight_key),
                           TrafficGen::elementBits(spec.kind),
                           TrafficGen::bitsPerCell(spec.kind),
                           TrafficGen::inputBits(spec.kind)};
    }
}

std::vector<Tenant>
buildTenants(ChipPool &pool, const TrafficGen &gen,
             const std::vector<TenantSpec> &specs)
{
    std::vector<Tenant> tenants;
    tenants.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const TenantSpec &spec = specs[i];
        TrafficGen::validateSpec(spec);
        Tenant tenant;
        tenant.name = spec.name;
        tenant.weight = spec.weight;
        tenant.model =
            pool.place(spec.modelKey, tenantModel(gen, spec, i));
        tenant.inputBits = TrafficGen::inputBits(spec.kind);
        tenant.slo = spec.slo;
        tenants.push_back(std::move(tenant));
    }
    return tenants;
}

namespace
{

constexpr WallNs kNever = std::numeric_limits<WallNs>::max();

/** Requests per batch: the per-chip parallel path runs one batch per
 *  WorkerPool fork, and every run folds its request table and checks
 *  its bound (kMaxLive) at batch boundaries only, so both execution
 *  paths see the same table at the same moments. */
constexpr std::size_t kBatch = 4096;

/** Request-table size past which a batch boundary resolves admitted
 *  units at the table front early (ServeEngine::relieveLive). */
constexpr std::size_t kMaxLive = 65536;

/** Journal segment tag of the per-chip tail drains: after every
 *  request-tagged event. */
constexpr u64 kTailSegment = ~u64{0};

// ---- Journal emitter. ----

/**
 * Appends a run's events to the attached journal (if any): directly
 * in program order, or — while a batch's per-chip jobs run —
 * into per-chip buffers tagged with the request index ("segment")
 * whose step emitted them. During request i's step every event
 * belongs to request i's chip, so flushing each request's segment in
 * request order after the join reproduces the arrival-order emission
 * exactly, for any thread count.
 */
class JournalEmitter
{
  public:
    JournalEmitter(journal::Journal *jr, std::size_t chips)
        : jr_(jr), buffers_(chips), cursor_(chips, 0),
          segment_(chips, 0)
    {
    }

    void
    emit(std::size_t chip, journal::EventKind kind, WallNs at, u64 a,
         u64 b, u64 c, u64 d, std::vector<i64> values = {})
    {
        if (jr_ == nullptr)
            return;
        journal::JournalEvent e{kind, at, a, b, c, d, {}, std::move(values)};
        if (buffering_)
            buffers_[chip].push_back({segment_[chip], std::move(e)});
        else
            jr_->append(std::move(e));
    }

    /** Tag chip's buffered events with `segment` from here on. */
    void setSegment(std::size_t chip, u64 segment)
    {
        segment_[chip] = segment;
    }

    void setBuffering(bool on) { buffering_ = on; }

    /** Append chip's buffered events tagged `segment` (a buffer is
     *  in nondecreasing segment order, so they lead it). */
    void
    flush(std::size_t chip, u64 segment)
    {
        std::vector<Buffered> &buffer = buffers_[chip];
        std::size_t &cur = cursor_[chip];
        while (cur < buffer.size() && buffer[cur].segment == segment)
            jr_->append(std::move(buffer[cur++].event));
        if (cur == buffer.size()) {
            buffer.clear();
            cur = 0;
        }
    }

  private:
    struct Buffered
    {
        u64 segment;
        journal::JournalEvent event;
    };

    journal::Journal *jr_;
    bool buffering_ = false;
    std::vector<std::vector<Buffered>> buffers_;
    std::vector<std::size_t> cursor_;
    std::vector<u64> segment_;
};

// ---- Request table. ----

/** One pulled request, held from its pull until it resolves and
 *  folds out of the table front. */
struct LiveRequest
{
    ServeRequest req;
    /** The placement the request bound to at arrival, and its chip:
     *  a later migration moves only later requests, so begun work
     *  always finishes on the chip it began on. */
    ModelRef model = kNoModel;
    std::size_t chip = 0;
    /** Stage granularity: the in-flight run, and the chip admission
     *  sequence number of its last admitted stage (an intervening
     *  foreign admission marks interleaving). */
    std::unique_ptr<StagedInference> run;
    u64 lastAdmitSeq = 0;
    /** Completed or rejected: `values` (empty for a rejection) is
     *  final and the entry folds out once it reaches the front. */
    bool resolved = false;
    std::vector<i64> values;
};

/**
 * Every pulled request not yet folded, indexed by global request
 * index. Resolved requests fold out of the front in request order
 * into the rolling FNV-1a output checksum (the frozen word-wise
 * scheme of common/Fnv.h, stable across pool sizes, policies, and
 * fleet lifecycle), so the table holds the run's concurrency — in
 * flight, waiting, and the skew between chips — not its length.
 * std::deque keeps references to surviving entries valid across
 * pushes and pops, and distinct entries may be written by different
 * per-chip jobs.
 */
class RequestTable
{
  public:
    LiveRequest &operator[](std::size_t i) { return live_[i - base_]; }
    const LiveRequest &operator[](std::size_t i) const
    {
        return live_[i - base_];
    }
    const LiveRequest &front() const { return live_.front(); }
    std::size_t size() const { return live_.size(); }
    bool empty() const { return live_.empty(); }
    u64 checksum() const { return hash_; }

    void push(LiveRequest entry) { live_.push_back(std::move(entry)); }

    /** Fold resolved requests out of the front. */
    void
    fold()
    {
        while (!live_.empty() && live_.front().resolved) {
            hash_ = fnv1aWords(live_.front().values, hash_);
            live_.pop_front();
            ++base_;
        }
    }

  private:
    std::deque<LiveRequest> live_;
    std::size_t base_ = 0;
    u64 hash_ = kFnvOffsetBasis;
};

// ---- Per-chip window. ----

/** One admitted unit whose time stamps are not materialized yet. */
struct Pending
{
    std::size_t reqIdx;
    /** Single-MVM requests resolve this future... */
    runtime::MvmFuture future;
    /** ...whole-unit inference requests carry their already-run
     *  outcome (the graph executes at admission; time stamps honour
     *  the admission-time earliest bound either way)... */
    bool isInference = false;
    InferenceOutcome outcome;
    /** ...and stage-granular admissions name one stage of their
     *  request's in-flight run. */
    bool isStage = false;
    std::size_t stage = 0;
};

/** A chip's bounded submission window. */
struct ChipWindow
{
    std::size_t depth = 0;
    /** Admitted, time stamps not yet materialized (these sit in the
     *  chip scheduler's submission queue). */
    std::deque<Pending> notWaited;
    /** Materialized completion instants still occupying slots. */
    std::priority_queue<WallNs, std::vector<WallNs>,
                        std::greater<WallNs>>
        occupied;
    /** Admissions on this chip so far (stage-interleaving
     *  detection). */
    u64 admitSeq = 0;
};

// ---- Waiting room + QoS picker. ----

/** One not-yet-admitted unit: a fresh request, or (stage
 *  granularity) the next stage of a partially-run request, ready no
 *  earlier than its previous stage's completion. */
struct WaitingItem
{
    std::size_t reqIdx;
    WallNs ready = 0;
};

/**
 * Per-tenant waiting rooms and the QoS policy that hands a freed
 * slot on a chip to one waiting tenant. Rooms stay sorted by request
 * index — fresh arrivals append in arrival order and continuations
 * re-enter at their request's age — so the head of a room is always
 * its oldest request.
 *
 * Weighted-fair accounting is start-time fair queueing: each
 * admission of tenant t gets a start tag S = max(chip virtual time,
 * t's finish tag) and advances t's finish tag by its *nominal*
 * service — the KernelModel oracle latency of the request's model in
 * integer picoseconds of wall time (the packet length of WFQ,
 * comparable across clock domains) — divided by the weight. The
 * max() with the chip's virtual time means an idle tenant banks no
 * credit; charging the oracle cost rather than measured done-start
 * keeps tile contention and pipelining from skewing the shares.
 */
class WaitingRoom
{
  public:
    /** `rotation[c]`: chip c's round-robin order — the tenants
     *  placed on it (static runs), or every tenant (fleet runs, where
     *  placements move between chips mid-run). */
    WaitingRoom(QosPolicy qos, std::size_t tenants,
                std::vector<std::vector<std::size_t>> rotation,
                const RequestTable &table)
        : qos_(qos), table_(table), rooms_(tenants),
          finishTag_(tenants, 0.0), chips_(rotation.size())
    {
        for (std::size_t c = 0; c < chips_.size(); ++c)
            chips_[c].rotation = std::move(rotation[c]);
    }

    std::size_t waiting(std::size_t c) const { return chips_[c].waiting; }
    std::size_t tenantsOn(std::size_t c) const
    {
        return chips_[c].rotation.size();
    }

    /** Park fresh request i (arriving on chip c) in its room. */
    void
    enqueue(std::size_t c, std::size_t t, std::size_t i)
    {
        rooms_[t].push_back({i, WallNs{0}});
        chips_[c].waiting += 1;
    }

    /** Park request i's next stage, ready at `ready`, at its
     *  request's age. */
    void
    park(std::size_t c, std::size_t t, std::size_t i, WallNs ready)
    {
        auto &room = rooms_[t];
        auto it = room.begin();
        while (it != room.end() && it->reqIdx < i)
            ++it;
        room.insert(it, {i, ready});
        chips_[c].waiting += 1;
    }

    /** True while request i waits in tenant t's room. */
    bool
    holds(std::size_t t, std::size_t i) const
    {
        for (const WaitingItem &item : rooms_[t])
            if (item.reqIdx == i)
                return true;
        return false;
    }

    /** Take waiting request i back out (a Reject run dropping it). */
    void
    remove(std::size_t c, std::size_t t, std::size_t i)
    {
        auto &room = rooms_[t];
        for (auto it = room.begin(); it != room.end(); ++it)
            if (it->reqIdx == i) {
                room.erase(it);
                chips_[c].waiting -= 1;
                return;
            }
    }

    struct Pick
    {
        std::size_t tenant;
        WaitingItem item;
        double startTag;
    };

    /** Hand chip c's freed slot to the QoS winner: take its oldest
     *  item bound to c and advance c's virtual time to its start
     *  tag. */
    Pick
    take(std::size_t c)
    {
        ChipQueue &q = chips_[c];
        const std::size_t t = choose(c);
        if (t >= rooms_.size())
            darth_panic("AdmissionController: admit with no waiting "
                        "tenant on chip ", c);
        const auto sel = frontFor(t, c);
        const Pick pick{t, *sel, std::max(q.virtualTime, finishTag_[t])};
        rooms_[t].erase(sel);
        q.waiting -= 1;
        q.virtualTime = pick.startTag;
        return pick;
    }

    /** Advance tenant t's finish tag past an admission charged
     *  `charge_ps` nominal picoseconds. */
    void
    charge(std::size_t t, double start_tag, u64 charge_ps, double weight)
    {
        finishTag_[t] = start_tag + static_cast<double>(charge_ps) / weight;
    }

  private:
    struct ChipQueue
    {
        std::vector<std::size_t> rotation;
        std::size_t rrCursor = 0;
        /** Waiting-room items bound to this chip. */
        std::size_t waiting = 0;
        /** Start-time-fair-queueing virtual time (start tag of the
         *  most recently admitted unit, in picoseconds). */
        double virtualTime = 0.0;
    };

    /** Oldest waiting item of tenant t bound to chip c (the room's
     *  end when none). Static runs bind a tenant's requests to one
     *  chip, so this is the room's front; fleet runs can have one
     *  tenant's continuations on the old chip and fresh requests on
     *  the new one. */
    std::deque<WaitingItem>::const_iterator
    frontFor(std::size_t t, std::size_t c) const
    {
        auto it = rooms_[t].begin();
        while (it != rooms_[t].end() && table_[it->reqIdx].chip != c)
            ++it;
        return it;
    }

    /** The QoS policy: the waiting tenant chip c's freed slot goes
     *  to, or rooms_.size() when none waits there. */
    std::size_t
    choose(std::size_t c)
    {
        ChipQueue &q = chips_[c];
        const std::size_t none = rooms_.size();
        if (qos_ == QosPolicy::RoundRobin) {
            for (std::size_t k = 0; k < q.rotation.size(); ++k) {
                const std::size_t pos =
                    (q.rrCursor + k) % q.rotation.size();
                const std::size_t t = q.rotation[pos];
                if (frontFor(t, c) != rooms_[t].end()) {
                    q.rrCursor = (pos + 1) % q.rotation.size();
                    return t;
                }
            }
            return none;
        }
        // Fifo: oldest original request first — a continuation stage
        // keeps its request's age, so an in-flight inference's
        // stages outrank every younger request (run-to-completion
        // order). WeightedFair: smallest start tag first, ties to the
        // oldest waiting request.
        const bool fair = qos_ == QosPolicy::WeightedFair;
        std::size_t best = none;
        std::size_t best_req = 0;
        double best_start = 0.0;
        for (const std::size_t t : q.rotation) {
            const auto item = frontFor(t, c);
            if (item == rooms_[t].end())
                continue;
            const double start =
                fair ? std::max(q.virtualTime, finishTag_[t]) : 0.0;
            if (best == none || start < best_start ||
                (start == best_start && item->reqIdx < best_req)) {
                best = t;
                best_start = start;
                best_req = item->reqIdx;
            }
        }
        return best;
    }

    QosPolicy qos_;
    const RequestTable &table_;
    std::vector<std::deque<WaitingItem>> rooms_;
    std::vector<double> finishTag_;
    std::vector<ChipQueue> chips_;
};

// ---- Fleet timeline. ----

/**
 * The lifecycle of a fleet-mode run: the specs' arrive/depart
 * moments and the controller's ticks, merged into one timeline the
 * driver advances to each request's arrival before binding it — at
 * equal instants arrivals precede departures precede ticks, and all
 * lifecycle at an instant precedes the requests arriving at it. It
 * also owns the deferred release of replaced placements: a placement
 * that migration or departure retired is reclaimed only once every
 * request bound to it has finished, so begun work always completes
 * where it began.
 */
class FleetTimeline
{
  public:
    /** `settle` materializes every chip's admitted units, so a tick
     *  reads exact chip makespans. */
    FleetTimeline(FleetController &fleet, ChipPool &pool,
                  std::vector<Tenant> &tenants, ServeReport &report,
                  JournalEmitter &journal, std::function<void()> settle)
        : fleet_(fleet), pool_(pool), tenants_(tenants),
          report_(report), journal_(journal),
          settle_(std::move(settle)),
          nextTick_(fleet.config().checkIntervalNs),
          departed_(tenants.size(), false),
          draining_(pool.numChips(), false)
    {
        const std::vector<TenantSpec> &specs = fleet.specs();
        for (std::size_t t = 0; t < specs.size(); ++t) {
            if (specs[t].arriveNs > 0)
                moments_.push_back({specs[t].arriveNs, 0, t});
            if (specs[t].departNs > 0)
                moments_.push_back({specs[t].departNs, 1, t});
        }
        std::stable_sort(moments_.begin(), moments_.end(),
                         [](const Moment &a, const Moment &b) {
                             if (a.at != b.at)
                                 return a.at < b.at;
                             return a.rank < b.rank;
                         });
        for (std::size_t t = 0; t < tenants.size(); ++t)
            if (tenants[t].model != kNoModel)
                modelTenants_[tenants[t].model] += 1;
    }

    /** The last arrive/depart moment (0 when there is none). */
    WallNs
    lastMoment() const
    {
        return moments_.empty() ? 0 : moments_.back().at;
    }

    /** Run every lifecycle moment and controller tick up to `up_to`. */
    void
    advanceTo(WallNs up_to)
    {
        for (;;) {
            const WallNs moment_at = nextMoment_ < moments_.size()
                                         ? moments_[nextMoment_].at
                                         : kNever;
            if (moment_at > up_to && nextTick_ > up_to)
                return;
            if (moment_at <= nextTick_) {
                const Moment &m = moments_[nextMoment_++];
                if (m.rank == 0)
                    arrive(m.tenant, m.at);
                else
                    depart(m.tenant, m.at);
            } else {
                tick(nextTick_);
                nextTick_ += fleet_.config().checkIntervalNs;
            }
        }
    }

    /** A request bound to placement m. */
    void bind(ModelRef m) { refs_[m] += 1; }

    /** Drop one request's claim on m at `at`; the last claim on a
     *  retired placement triggers its deferred release. */
    void
    release(ModelRef m, WallNs at)
    {
        auto it = refs_.find(m);
        if (it == refs_.end() || it->second == 0)
            darth_panic("AdmissionController: ref underflow on model ",
                        m);
        it->second -= 1;
        if (it->second == 0 && dying_.count(m) != 0)
            finalize(m, at);
    }

    /** Count every live tenant on its final chip. */
    void
    countTenants()
    {
        for (std::size_t t = 0; t < tenants_.size(); ++t)
            if (!departed_[t] && tenants_[t].model != kNoModel)
                report_.chips[pool_.modelChip(tenants_[t].model)]
                    .tenants += 1;
    }

  private:
    struct Moment
    {
        WallNs at;
        int rank; // 0 arrive, 1 depart
        std::size_t tenant;
    };
    /** A retired placement awaiting its last bound request. */
    struct DyingModel
    {
        bool migration = false;
        std::size_t tenant = 0;
        ModelRef newModel = kNoModel;
        /** When the migration began / the tenant departed — the
         *  reclaim event is stamped no earlier than this. */
        WallNs sinceNs = 0;
    };

    void
    emit(journal::EventKind kind, WallNs at, u64 a, u64 b, u64 c, u64 d,
         std::vector<i64> values = {})
    {
        // Lifecycle events belong to no chip's segment; fleet runs
        // never buffer, so chip 0 is a placeholder.
        journal_.emit(0, kind, at, a, b, c, d, std::move(values));
    }

    u64
    refCount(ModelRef m) const
    {
        const auto it = refs_.find(m);
        return it == refs_.end() ? 0 : it->second;
    }

    /** Release a drained dying placement: free its tiles and emit the
     *  lifecycle event its reclaim completes. A draining chip that
     *  just lost its last placement counts as down. */
    void
    finalize(ModelRef m, WallNs at)
    {
        const auto it = dying_.find(m);
        if (it == dying_.end())
            darth_panic("AdmissionController: finalizing model ", m,
                        " that is not dying");
        const DyingModel info = it->second;
        dying_.erase(it);
        const std::size_t chip = pool_.modelChip(m);
        pool_.releaseModel(m);
        const WallNs stamp = std::max(at, info.sinceNs);
        if (info.migration) {
            report_.fleet.migrations += 1;
            emit(journal::EventKind::MigrationEnd, stamp, info.tenant, m,
                 chip, info.newModel);
        } else {
            report_.fleet.departures += 1;
            emit(journal::EventKind::TenantDepart, stamp, info.tenant, m,
                 chip, info.sinceNs);
        }
        if (draining_[chip] && pool_.liveModels(chip) == 0) {
            draining_[chip] = false;
            report_.fleet.chipDowns += 1;
            emit(journal::EventKind::ChipDown, stamp, chip, 0, 0, 0);
        }
    }

    /** Retire placement m; reclaim it now if nothing is bound. */
    void
    retire(ModelRef m, const DyingModel &info, WallNs at)
    {
        dying_[m] = info;
        if (refCount(m) == 0)
            finalize(m, at);
    }

    /** A tenant arrives: create its placement now (reactivating
     *  drained slots if the active pool cannot fit it). */
    void
    arrive(std::size_t t, WallNs at)
    {
        if (tenants_[t].model != kNoModel)
            return;
        FleetController::Placement placed = fleet_.placeTenant(t);
        for (const std::size_t c : placed.activated) {
            draining_[c] = false;
            report_.fleet.chipUps += 1;
            emit(journal::EventKind::ChipUp, at, c, /*emergency=*/1, 0, 0);
        }
        tenants_[t].model = placed.model;
        modelTenants_[placed.model] += 1;
        report_.fleet.arrivals += 1;
        emit(journal::EventKind::TenantArrive, at, t, placed.model,
             pool_.modelChip(placed.model), 0);
    }

    /** A tenant departs: it stops owning its placement, which is
     *  reclaimed once no live tenant shares it and its begun work has
     *  drained (the TenantDepart event stamps the reclaim). */
    void
    depart(std::size_t t, WallNs at)
    {
        if (departed_[t])
            return;
        departed_[t] = true;
        const ModelRef m = tenants_[t].model;
        if (m == kNoModel)
            darth_panic("AdmissionController: tenant ", t,
                        " departs without ever arriving");
        auto &owners = modelTenants_[m];
        if (owners == 0)
            darth_panic("AdmissionController: departure underflow on "
                        "model ", m);
        owners -= 1;
        if (owners == 0 && dying_.count(m) == 0) {
            DyingModel info;
            info.tenant = t;
            info.sinceNs = at;
            retire(m, info, at);
        } else {
            // Placement shared with tenants still active: the tenant
            // leaves, the placement stays.
            report_.fleet.departures += 1;
            emit(journal::EventKind::TenantDepart, at, t, m,
                 pool_.modelChip(m), at);
        }
    }

    /** Migrate one placement off chip `src`: fresh placement of the
     *  same weights elsewhere, rebind every sharing tenant, release
     *  the old tiles once begun work drains. Checksum-invariant by
     *  construction — the weights regenerate bit-identically and
     *  requests never change inputs, only chips. */
    void
    migrateOneFrom(std::size_t src, WallNs at)
    {
        ModelRef victim = kNoModel;
        for (const auto &entry : modelTenants_)
            if (entry.second > 0 && dying_.count(entry.first) == 0 &&
                pool_.modelChip(entry.first) == src) {
                victim = entry.first;
                break;
            }
        if (victim == kNoModel)
            return;
        std::size_t first_tenant = tenants_.size();
        for (std::size_t t = 0; t < tenants_.size(); ++t)
            if (!departed_[t] && tenants_[t].model == victim) {
                first_tenant = t;
                break;
            }
        if (first_tenant == tenants_.size())
            darth_panic("AdmissionController: model ", victim,
                        " has owners but no live tenant");
        const ModelRef fresh = fleet_.tryReplace(first_tenant, src);
        if (fresh == kNoModel) {
            // Nowhere else to go: the old placement keeps serving.
            report_.fleet.migrationsAborted += 1;
            return;
        }
        emit(journal::EventKind::MigrationBegin, at, first_tenant, victim,
             pool_.modelChip(fresh), fresh, {static_cast<i64>(src)});
        std::size_t moved = 0;
        for (std::size_t t = 0; t < tenants_.size(); ++t)
            if (!departed_[t] && tenants_[t].model == victim) {
                tenants_[t].model = fresh;
                moved += 1;
            }
        modelTenants_[fresh] += moved;
        modelTenants_[victim] = 0;
        DyingModel info;
        info.migration = true;
        info.tenant = first_tenant;
        info.newModel = fresh;
        info.sinceNs = at;
        retire(victim, info, at);
    }

    /** One controller tick: refresh the wall-clock load signal and
     *  execute the fleet's plan for this instant. */
    void
    tick(WallNs at)
    {
        settle_();
        // Backlog = how far the chip's schedule runs ahead of now.
        std::vector<WallNs> loads(pool_.numChips(), 0);
        for (std::size_t c = 0; c < loads.size(); ++c) {
            const WallNs mk = pool_.wallNs(
                c, pool_.runtime(c).scheduler().makespan());
            loads[c] = mk > at ? mk - at : 0;
        }
        const FleetController::TickPlan plan =
            fleet_.planTick(at, loads, draining_);
        if (plan.scaleUp != kNoChip) {
            pool_.setChipActive(plan.scaleUp, true);
            draining_[plan.scaleUp] = false;
            report_.fleet.chipUps += 1;
            emit(journal::EventKind::ChipUp, at, plan.scaleUp, 0, 0, 0);
        }
        if (plan.scaleDown != kNoChip) {
            pool_.setChipActive(plan.scaleDown, false);
            if (pool_.liveModels(plan.scaleDown) == 0) {
                report_.fleet.chipDowns += 1;
                emit(journal::EventKind::ChipDown, at, plan.scaleDown, 0,
                     0, 0);
            } else {
                // Stops accepting placements now; counts as down once
                // migration empties it.
                draining_[plan.scaleDown] = true;
            }
        }
        if (plan.migrateFrom != kNoChip)
            migrateOneFrom(plan.migrateFrom, at);
    }

    FleetController &fleet_;
    ChipPool &pool_;
    std::vector<Tenant> &tenants_;
    ServeReport &report_;
    JournalEmitter &journal_;
    std::function<void()> settle_;
    std::vector<Moment> moments_;
    std::size_t nextMoment_ = 0;
    WallNs nextTick_;
    /** Active (non-departed) tenants bound to each placement. */
    std::map<ModelRef, std::size_t> modelTenants_;
    /** Requests bound to each placement and not yet finished or
     *  rejected: the drain gate for deferred release. */
    std::map<ModelRef, u64> refs_;
    std::map<ModelRef, DyingModel> dying_;
    std::vector<bool> departed_;
    std::vector<bool> draining_;
};

// ---- Driver. ----

/**
 * One serve run, behind both run() and runStream(): one pull loop
 * over one request table. Each pulled request runs in arrival order
 * with direct journal appends (fleet runs, whose lifecycle state
 * spans chips, or threads <= 1), or — static pools with threads > 1
 * — in kBatch-request batches executed as one WorkerPool job per
 * chip with the emitter's buffered merge. Both paths fold the table
 * and bound it only at batch boundaries, so the report and the
 * journal depend on neither the thread count nor the source.
 */
class ServeEngine
{
  public:
    // The fleet timeline's settle callback holds `this`.
    ServeEngine(const ServeEngine &) = delete;
    ServeEngine &operator=(const ServeEngine &) = delete;

    ServeEngine(ChipPool &pool, std::vector<Tenant> &tenants,
                const AdmissionConfig &cfg, journal::Journal *jr,
                FleetController *fleet)
        : pool_(pool), tenants_(tenants), cfg_(cfg),
          staged_(cfg.granularity == Granularity::Stage),
          batched_(fleet == nullptr && cfg.threads > 1),
          journal_(jr, pool.numChips()), windows_(pool.numChips()),
          room_(cfg.qos, tenants.size(),
                rotations(pool, tenants, fleet != nullptr), table_),
          counters0_(pool.numChips())
    {
        report_.tenants.resize(tenants.size());
        for (std::size_t t = 0; t < tenants.size(); ++t) {
            report_.tenants[t].name = tenants[t].name;
            report_.tenants[t].weight = tenants[t].weight;
            report_.tenants[t].slo.spec = tenants[t].slo;
        }
        report_.chips.resize(pool.numChips());
        for (std::size_t c = 0; c < pool.numChips(); ++c) {
            windows_[c].depth = cfg.chipQueueDepth.empty()
                                    ? cfg.queueDepth
                                    : cfg.chipQueueDepth[c];
            ChipStats &cs = report_.chips[c];
            cs.name = pool.spec(c).name;
            cs.hcts = pool.chip(c).numHcts();
            cs.clockGHz = pool.spec(c).clockGHz;
            cs.windowDepth = windows_[c].depth;
            if (fleet == nullptr)
                cs.tenants = room_.tenantsOn(c);
            counters0_[c] = pool.runtime(c).scheduler().counters();
        }
        if (fleet != nullptr)
            timeline_ = std::make_unique<FleetTimeline>(
                *fleet, pool, tenants, report_, journal_, [this] {
                    for (std::size_t c = 0; c < windows_.size(); ++c)
                        materializeAll(c);
                });
    }

    ServeReport
    run(RequestSource &source)
    {
        for (bool more = true; more;) {
            const std::size_t begin = pulled_;
            while (pulled_ - begin < kBatch) {
                if (!pull(source)) {
                    more = false;
                    break;
                }
                if (!batched_)
                    stepRequest(pulled_ - 1);
            }
            if (batched_)
                runBatch(begin, pulled_);
            table_.fold();
            relieveLive();
        }
        // Remaining lifecycle (late departures, wind-down ticks), then
        // drain every chip; draining finishes begun work, which releases
        // the last retired placements.
        if (timeline_)
            timeline_->advanceTo(
                std::max(lastArrival_, timeline_->lastMoment()));
        drainTails();
        finish();
        return std::move(report_);
    }

  private:
    static std::vector<std::vector<std::size_t>>
    rotations(const ChipPool &pool, const std::vector<Tenant> &tenants,
              bool fleet)
    {
        std::vector<std::vector<std::size_t>> rot(pool.numChips());
        for (std::size_t t = 0; t < tenants.size(); ++t) {
            if (!fleet) {
                rot[pool.modelChip(tenants[t].model)].push_back(t);
                continue;
            }
            for (std::vector<std::size_t> &chip : rot)
                chip.push_back(t);
        }
        return rot;
    }

    bool
    pull(RequestSource &source)
    {
        LiveRequest entry;
        if (!source.next(entry.req))
            return false;
        const std::size_t i = pulled_;
        const ServeRequest &req = entry.req;
        const auto invalid = [i](const std::string &why) {
            throw std::invalid_argument("AdmissionController: request " +
                                        std::to_string(i) + " " + why);
        };
        if (req.tenant >= tenants_.size())
            invalid("names tenant " + std::to_string(req.tenant) +
                    " but only " + std::to_string(tenants_.size()) +
                    " tenants exist");
        if (req.arrival < lastArrival_)
            invalid("arrives at " + std::to_string(req.arrival) +
                    " ns, before its predecessor at " +
                    std::to_string(lastArrival_) +
                    " ns: requests must be sorted by arrival");
        lastArrival_ = req.arrival;
        // A request binds to its tenant's placement exactly once, after
        // every lifecycle moment up to its arrival.
        if (timeline_)
            timeline_->advanceTo(req.arrival);
        const ModelRef m = tenants_[req.tenant].model;
        if (m == kNoModel)
            invalid("arrives at " + std::to_string(req.arrival) +
                    " ns but tenant '" + tenants_[req.tenant].name +
                    "' has not arrived yet");
        entry.model = m;
        entry.chip = pool_.modelChip(m);
        if (timeline_)
            timeline_->bind(m);
        table_.push(std::move(entry));
        ++pulled_;
        return true;
    }

    void
    runBatch(std::size_t begin, std::size_t end)
    {
        // A static pool's requests partition perfectly by chip: step i
        // touches only request i's chip — its window, its tenants' rooms
        // and fair tags, its runtime — so each chip steps its own
        // subsequence of the batch on a worker job and the result is the
        // arrival-order result.
        std::vector<std::vector<std::size_t>> per_chip(windows_.size());
        for (std::size_t i = begin; i < end; ++i)
            per_chip[table_[i].chip].push_back(i);
        journal_.setBuffering(true);
        WorkerPool::runJobs(windows_.size(), cfg_.threads,
                            [&](std::size_t c) {
                                for (const std::size_t i : per_chip[c])
                                    stepRequest(i);
                            });
        journal_.setBuffering(false);
        for (std::size_t i = begin; i < end; ++i)
            journal_.flush(table_[i].chip, i);
    }

    void
    relieveLive()
    {
        // A chip whose tenants go quiet can leave admitted units
        // unresolved until its next arrival (or the run's tail), pinning
        // the table front while other chips stream past. Resolving a
        // *non-staged* front unit early is behavior-neutral —
        // materialization resolves already-determined time stamps and
        // never admits — but reorders its journal records, so the bound
        // sits far above any test's concurrency. A staged front is never
        // forced: materializing it parks a continuation that would race
        // later admissions.
        while (table_.size() > kMaxLive) {
            const std::size_t c = table_.front().chip;
            const ChipWindow &w = windows_[c];
            if (w.notWaited.empty() || w.notWaited.front().isStage)
                return;
            materializeFront(c);
            table_.fold();
        }
    }

    void
    drainTails()
    {
        // Arrivals exhausted: admit every blocked unit as slots free,
        // then resolve the tail of each submission queue. Materializing
        // a stage can park its request's next stage, so loop until the
        // rooms stay empty. Tail events carry kTailSegment, so a batched
        // run merges them after every request's, in chip order.
        journal_.setBuffering(batched_);
        WorkerPool::runJobs(windows_.size(), batched_ ? cfg_.threads : 1,
                            [this](std::size_t c) {
                                journal_.setSegment(c, kTailSegment);
                                do {
                                    drainWaiting(c, kNever);
                                    materializeAll(c);
                                } while (room_.waiting(c) > 0);
                            });
        journal_.setBuffering(false);
        for (std::size_t c = 0; c < windows_.size(); ++c)
            journal_.flush(c, kTailSegment);
    }

    void
    finish()
    {
        table_.fold();
        if (!table_.empty())
            darth_panic("AdmissionController: ", table_.size(),
                        " requests left unresolved after the tail drain");
        if (timeline_)
            timeline_->countTenants();
        for (const ChipStats &cs : report_.chips) {
            report_.completed += cs.completed;
            report_.makespanNs = std::max(report_.makespanNs, cs.makespanNs);
        }
        for (const TenantStats &ts : report_.tenants)
            report_.rejected += ts.rejected;
        for (std::size_t c = 0; c < windows_.size(); ++c) {
            const runtime::SchedulerCounters &now =
                pool_.runtime(c).scheduler().counters();
            ChipStats &cs = report_.chips[c];
            cs.issued = now.issued - counters0_[c].issued;
            cs.pipelineHits = now.pipelineHits - counters0_[c].pipelineHits;
            cs.dependencyStalls =
                now.dependencyStalls - counters0_[c].dependencyStalls;
            journal_.emit(c, journal::EventKind::ChipSummary, cs.makespanNs,
                          c, cs.issued, cs.pipelineHits, cs.dependencyStalls,
                          {static_cast<i64>(cs.completed),
                           static_cast<i64>(cs.mvms),
                           static_cast<i64>(cs.interleavedStages)});
        }
        report_.outputChecksum = table_.checksum();
        journal_.emit(0, journal::EventKind::RunEnd, report_.makespanNs,
                      report_.completed, report_.rejected,
                      report_.outputChecksum, 0);
    }

    void
    stepRequest(std::size_t i)
    {
        const ServeRequest &req = table_[i].req;
        const std::size_t c = table_[i].chip;
        journal_.setSegment(c, i);
        journal_.emit(c, journal::EventKind::Arrival, req.arrival, i,
                      req.tenant, c, fnv1aWords(req.input), req.input);
        // Catch up: older blocked requests claim any slot that freed
        // before this arrival.
        drainWaiting(c, req.arrival);

        if (cfg_.overflow == OverflowPolicy::Block) {
            room_.enqueue(c, req.tenant, i);
            drainWaiting(c, req.arrival);
            if (room_.holds(req.tenant, i))
                journal_.emit(c, journal::EventKind::Backpressure,
                              req.arrival, i, req.tenant, c, /*blocked=*/0);
            return;
        }
        // Reject drops *fresh arrivals* only: a request that has begun is
        // finished — its continuation stages get first claim on freed
        // slots (the catch-up drain above, plus the re-claim loop below
        // for continuations parked by this very slot hunt's
        // materialization).
        const auto slot = acquireSlot(c, req.arrival);
        if (!slot) {
            reject(i);
            return;
        }
        room_.enqueue(c, req.tenant, i);
        admit(c, *slot);
        while (room_.holds(req.tenant, i)) {
            const auto next = acquireSlot(c, req.arrival);
            if (!next)
                break;
            admit(c, *next);
        }
        if (room_.holds(req.tenant, i)) {
            room_.remove(c, req.tenant, i);
            reject(i);
        }
    }

    void
    reject(std::size_t i)
    {
        LiveRequest &entry = table_[i];
        const ServeRequest &req = entry.req;
        TenantStats &stats = report_.tenants[req.tenant];
        stats.rejected += 1;
        stats.slo.recordRejected();
        journal_.emit(entry.chip, journal::EventKind::Backpressure,
                      req.arrival, i, req.tenant, entry.chip,
                      /*rejected=*/1);
        release(entry.model, req.arrival);
        entry.resolved = true;
    }

    void
    drainWaiting(std::size_t c, WallNs up_to)
    {
        while (room_.waiting(c) > 0) {
            const auto slot = acquireSlot(c, up_to);
            if (!slot)
                return;
            admit(c, *slot);
        }
    }

    std::optional<WallNs>
    acquireSlot(std::size_t c, WallNs up_to)
    {
        // Claim a slot usable by `up_to`; returns the instant it became
        // free (0 when the window is not full).
        ChipWindow &w = windows_[c];
        if (w.notWaited.size() + w.occupied.size() < w.depth)
            return WallNs{0};
        // Window full: the earliest completion frees the next slot.
        // Materialize the whole submission queue so the earliest
        // completion is exact, not just the earliest known.
        materializeAll(c);
        const WallNs freed = w.occupied.top();
        if (freed > up_to)
            return std::nullopt;
        w.occupied.pop();
        return freed;
    }

    void
    admit(std::size_t c, WallNs slot_ns)
    {
        ChipWindow &w = windows_[c];
        const WaitingRoom::Pick pick = room_.take(c);
        const std::size_t t = pick.tenant;
        const std::size_t i = pick.item.reqIdx;
        LiveRequest &entry = table_[i];
        const ServeRequest &req = entry.req;
        // A continuation stage starts no earlier than its previous
        // stage's completion (item.ready). The admission instant is
        // wall-clock; the chip works in its own cycles, so the earliest
        // bound converts exactly at this boundary.
        const WallNs at =
            std::max(std::max(slot_ns, req.arrival), pick.item.ready);
        const Cycle at_cycle = pool_.cyclesAt(c, at);
        const u64 nominal_ps =
            pool_.nominalServicePs(entry.model, tenants_[t].inputBits);
        u64 charge = nominal_ps;
        // Whole units (single MVMs, whole inferences) admit as one unit
        // and record kNoStage.
        u64 journal_stage = journal::kNoStage;
        Pending pending;
        pending.reqIdx = i;
        if (pool_.isInference(entry.model)) {
            if (staged_) {
                // One window slot and one WFQ charge per *stage*: the
                // forward advances one admission-sized step and re-queues
                // for the next, so stages of different requests
                // interleave on this chip.
                if (!entry.run)
                    entry.run = pool_.beginInference(entry.model, req.input,
                                                     at_cycle);
                StagedInference &run = *entry.run;
                pending.isStage = true;
                pending.stage = pool_.advanceInference(run, at_cycle);
                charge = run.stageCharges[pending.stage];
                journal_stage = pending.stage;
                journal_.emit(c, journal::EventKind::StageSubmit, at, i,
                              pending.stage, c, run.stageCount());
                w.admitSeq += 1;
                if (pending.stage > 0 && w.admitSeq != entry.lastAdmitSeq + 1)
                    report_.chips[c].interleavedStages += 1;
                entry.lastAdmitSeq = w.admitSeq;
            } else {
                // One window slot per inference: the whole forward is one
                // admitted unit, charged its whole-graph cost.
                pending.isInference = true;
                std::unique_ptr<StagedInference> run =
                    pool_.beginInference(entry.model, req.input, at_cycle);
                pending.outcome = pool_.runToCompletion(*run, at_cycle);
            }
        } else {
            if (staged_)
                w.admitSeq += 1;
            pending.future = pool_.submit(entry.model, req.input,
                                          tenants_[t].inputBits, at_cycle);
        }
        room_.charge(t, pick.startTag, charge, tenants_[t].weight);
        journal_.emit(c, journal::EventKind::Admit, at, i, t, c,
                      journal_stage,
                      {static_cast<i64>(charge),
                       static_cast<i64>(nominal_ps)});
        w.notWaited.push_back(std::move(pending));
    }

    void
    materializeFront(std::size_t c)
    {
        // Resolve the oldest admitted unit: record telemetry and turn its
        // submission-queue slot into a wall-stamped occupied slot. A
        // non-final stage frees its slot at its own completion and parks
        // the request's next stage; request statistics are recorded when
        // the final stage materializes.
        ChipWindow &w = windows_[c];
        Pending pending = std::move(w.notWaited.front());
        w.notWaited.pop_front();
        LiveRequest &entry = table_[pending.reqIdx];
        const ServeRequest &req = entry.req;

        std::vector<i64> values;
        WallNs start = 0, done = 0;
        u64 mvms = 1;
        if (pending.isStage) {
            StagedInference &run = *entry.run;
            const WallNs stage_done = pool_.stageDoneNs(run, pending.stage);
            w.occupied.push(stage_done);
            journal_.emit(c, journal::EventKind::StageComplete, stage_done,
                          pending.reqIdx, pending.stage, c, 0);
            if (pending.stage + 1 < run.stageCount()) {
                // The freed slot and the parked next stage race through
                // the ordinary admission machinery, so other requests'
                // stages can slip in between.
                room_.park(c, req.tenant, pending.reqIdx, stage_done);
                return;
            }
            InferenceOutcome outcome = pool_.finishInference(run);
            entry.run.reset();
            values = std::move(outcome.values);
            start = pool_.wallNs(c, outcome.start);
            done = pool_.wallNs(c, outcome.done);
            mvms = outcome.mvms;
        } else if (pending.isInference) {
            values = std::move(pending.outcome.values);
            start = pool_.wallNs(c, pending.outcome.start);
            done = pool_.wallNs(c, pending.outcome.done);
            mvms = pending.outcome.mvms;
        } else {
            runtime::MvmResult r = pool_.wait(entry.model, pending.future);
            values = std::move(r.values);
            start = pool_.wallNs(c, r.start);
            done = pool_.wallNs(c, r.done);
        }

        journal_.emit(c, journal::EventKind::Complete, done, pending.reqIdx,
                      req.tenant, c, fnv1aWords(values),
                      {static_cast<i64>(start), static_cast<i64>(mvms)});
        recordCompletion(c, req, start, done, mvms);
        // Staged units freed their slot at their own stage completion
        // above; whole units hold it to request done.
        if (!pending.isStage)
            w.occupied.push(done);
        entry.values = std::move(values);
        entry.resolved = true;
        release(entry.model, done);
    }

    void
    materializeAll(std::size_t c)
    {
        while (!windows_[c].notWaited.empty())
            materializeFront(c);
    }

    void
    recordCompletion(std::size_t c, const ServeRequest &req,
                     WallNs start, WallNs done, u64 mvms)
    {
        // Only chip c's and its tenant's stats are written: run-level
        // aggregates are derived in finish(), so per-chip jobs never
        // write shared scalars.
        TenantStats &stats = report_.tenants[req.tenant];
        stats.completed += 1;
        stats.mvms += mvms;
        const double latency_ns = static_cast<double>(done - req.arrival);
        const double queueing_ns = static_cast<double>(start - req.arrival);
        const double service_ns = static_cast<double>(done - start);
        stats.latencyHist.push(latency_ns);
        stats.queueingHist.push(queueing_ns);
        stats.serviceHist.push(service_ns);
        stats.serviceNs += service_ns;
        stats.slo.recordLatency(done - req.arrival);

        ChipStats &chip_stats = report_.chips[c];
        chip_stats.completed += 1;
        chip_stats.mvms += mvms;
        chip_stats.serviceNs += service_ns;
        chip_stats.makespanNs = std::max(chip_stats.makespanNs, done);
    }

    void
    release(ModelRef m, WallNs at)
    {
        if (timeline_)
            timeline_->release(m, at);
    }

    ChipPool &pool_;
    std::vector<Tenant> &tenants_;
    const AdmissionConfig &cfg_;
    const bool staged_;
    const bool batched_;
    ServeReport report_;
    JournalEmitter journal_;
    RequestTable table_;
    std::vector<ChipWindow> windows_;
    WaitingRoom room_;
    std::unique_ptr<FleetTimeline> timeline_;
    /** Scheduler counters are lifetime values; the report carries
     *  this run's deltas even on a reused pool. */
    std::vector<runtime::SchedulerCounters> counters0_;
    std::size_t pulled_ = 0;
    WallNs lastArrival_ = 0;
};

} // namespace

AdmissionController::AdmissionController(ChipPool &pool,
                                         std::vector<Tenant> tenants,
                                         const AdmissionConfig &cfg)
    : pool_(pool), tenants_(std::move(tenants)), cfg_(cfg)
{
    if (cfg.queueDepth == 0)
        throw std::invalid_argument(
            "AdmissionController: queueDepth must be at least 1");
    if (!cfg.chipQueueDepth.empty()) {
        if (cfg.chipQueueDepth.size() != pool.numChips())
            throw std::invalid_argument(
                "AdmissionController: chipQueueDepth has " +
                std::to_string(cfg.chipQueueDepth.size()) +
                " entries but the pool has " +
                std::to_string(pool.numChips()) + " chips");
        for (std::size_t c = 0; c < cfg.chipQueueDepth.size(); ++c)
            if (cfg.chipQueueDepth[c] == 0)
                throw std::invalid_argument(
                    "AdmissionController: chipQueueDepth[" +
                    std::to_string(c) + "] must be at least 1");
    }
    // Mixed-clock pools are legal: every aggregate statistic is
    // wall-clock, converted per chip through the pool's exact
    // integer-picosecond periods. (The pool constructor already
    // rejected clocks that are not frequency bins.)
    for (const Tenant &t : tenants_) {
        if (t.weight <= 0.0)
            throw std::invalid_argument(
                "AdmissionController: tenant '" + t.name +
                "' has non-positive weight");
        // Resolves the model (panics on an unknown ref). Fleet
        // tenants that have not arrived yet carry kNoModel and are
        // placed lazily at their arrival moment.
        if (t.model != kNoModel)
            (void)pool_.modelChip(t.model);
    }
    // Serving drains are strictly admission-ordered: QoS is decided
    // here, not re-decided by the packer's greedy order.
    for (std::size_t c = 0; c < pool_.numChips(); ++c)
        pool_.runtime(c).scheduler().setDrainOrder(
            runtime::DrainOrder::Submission);
}

AdmissionController::AdmissionController(ChipPool &pool,
                                         FleetController &fleet,
                                         const AdmissionConfig &cfg)
    : AdmissionController(pool, fleet.buildInitialTenants(), cfg)
{
    if (&fleet.pool() != &pool)
        throw std::invalid_argument(
            "AdmissionController: the FleetController drives a "
            "different ChipPool than the admission layer");
    fleet_ = &fleet;
}

void
AdmissionController::setJournal(journal::Journal *journal)
{
    SeqLock lock(mu_);
    journal_ = journal;
}

ServeReport
AdmissionController::run(const std::vector<ServeRequest> &trace)
{
    VectorSource source(trace);
    return runStream(source);
}

ServeReport
AdmissionController::runStream(RequestSource &source)
{
    SeqLock lock(mu_);
    return ServeEngine(pool_, tenants_, cfg_, journal_, fleet_)
        .run(source);
}

} // namespace serve
} // namespace darth
