/**
 * @file
 * Multi-chip serving pool: owns N simulated chips (each with its own
 * Runtime and Scheduler clock) and shards model placements across
 * them by a pluggable policy.
 *
 * The pool plays the role of a serving daemon: it holds one runtime
 * session per chip and places tenant models through those sessions,
 * so the serving layer above (Admission) deals only in ModelRefs. A
 * model is either one weight matrix (single-MVM requests) or a whole
 * inference network — a TinyCnn or a small encoder layer — whose
 * requests run as incremental InferenceRun forwards: beginInference
 * plans the run and its per-stage admission charges, and the caller
 * drives the returned InferenceRun itself (submitNext, stepDone,
 * finish). The admission layer chooses whether to run a forward to
 * completion at admission (inference granularity) or to interleave
 * stages of different requests on one chip (stage granularity).
 * Policies:
 *
 *  - RoundRobin     — rotate over chips with enough free tiles.
 *  - LeastLoaded    — most free tiles, then smallest scheduler
 *                     makespan, then lowest index.
 *  - MatrixAffinity — placements that share a non-zero model key
 *                     share one placement: repeated MVMs against the
 *                     same weights stay on the chip that already
 *                     holds them (and keep the same-matrix pipelined
 *                     issue rate), instead of re-programming tiles.
 *                     New keys fall back to least-loaded.
 *  - CostAware      — heterogeneity- and load-aware: score every
 *                     chip that can fit the placement by
 *                       oracleCost / clockGHz
 *                           * (1 + backlogCycles / backlogWindow)
 *                     — the KernelModel oracle cost of one request
 *                     *on that chip's configuration* (single-MVM:
 *                     the owning scheduler's per-chip oracle;
 *                     inference: the per-chip mapper's network
 *                     cost) over the chip clock, inflated by the
 *                     chip's scheduler backlog in cycles
 *                     (Scheduler::backlogCycles over
 *                     PoolConfig::backlogWindowCycles) — and place
 *                     on the cheapest; ties fall back to
 *                     least-loaded. A slower-but-idle chip beats a
 *                     faster-but-backlogged one once the backlog
 *                     outweighs the silicon gap, and because
 *                     placement itself enqueues nothing, scores are
 *                     static while a batch of tenants is placed:
 *                     whenever scores are strict (distinct silicon
 *                     or distinct backlogs), assigning tenants in
 *                     any arrival order yields the same per-tenant
 *                     chips, capacity permitting. (Exact ties still
 *                     fall back to the mutable least-loaded order.)
 *                     Affinity sharing by non-zero key is honored
 *                     exactly as under MatrixAffinity.
 *
 * Pools may be heterogeneous: PoolConfig::chips gives each slot its
 * own ChipSpec (ADC kind, tile count, geometry, clock — see
 * serve/ChipConfig.h for the iso-area SAR/ramp factory). Placement
 * planning, oracle costs, and the inference mappers are all
 * per-chip.
 *
 * Chips are independent simulated-time domains; functional MVM
 * results never depend on which chip serves a request (the ideal
 * noise configuration is bit-exact), which is what makes an N-chip
 * pool bit-identical to a 1-chip run of the same trace whenever the
 * same requests complete (always true under Block admission; Reject
 * runs drop configuration-dependent subsets). Cross-chip time is
 * wall-clock nanoseconds: each slot's clock must be a frequency bin
 * (integer-picosecond period, serve/ChipConfig.h clockPeriodPs), and
 * wallNs()/cyclesAt() convert exactly between a chip's cycle domain
 * and the pool-wide wall clock.
 *
 * Fleet lifecycle hooks (a fleet-mode AdmissionController drives these):
 * slots can be deactivated (setChipActive) so draining chips accept
 * no new placements, placements can be released mid-run
 * (releaseModel frees the tiles; the caller must first drain the
 * model's in-flight work), and tryPlace reports placement failure
 * with kNoModel instead of aborting — the building blocks of live
 * migration (re-place the same weights on another chip, re-binding
 * the affinity key; release the old placement once begun work
 * finishes) and autoscaling.
 */

#ifndef DARTH_SERVE_CHIPPOOL_H
#define DARTH_SERVE_CHIPPOOL_H

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "apps/cnn/CnnMapper.h"
#include "apps/llm/LlmMapper.h"
#include "common/ThreadAnnotations.h"
#include "runtime/Runtime.h"
#include "runtime/Session.h"
#include "serve/ChipConfig.h"

namespace darth
{
namespace journal
{
class Journal;
} // namespace journal

namespace serve
{

/** How the pool shards new placements across chips. */
enum class PlacementPolicy
{
    RoundRobin,
    LeastLoaded,
    MatrixAffinity,
    CostAware,
};

/** Short lowercase name (for bench JSON and logs). */
const char *placementPolicyName(PlacementPolicy policy);

/** Pool-level configuration. */
struct PoolConfig
{
    /** Uniform per-chip configuration, replicated numChips times.
     *  Ignored when `chips` is non-empty. */
    runtime::ChipConfig chip;
    std::size_t numChips = 1;
    /** Heterogeneous pool: one ChipSpec per slot (wins over
     *  chip/numChips when non-empty). */
    std::vector<ChipSpec> chips;
    PlacementPolicy placement = PlacementPolicy::LeastLoaded;
    /** Base seed; chip i seeds its noise models with seed + i. */
    u64 seed = 1;
    /**
     * Backlog normalization horizon of the CostAware score: a chip
     * whose scheduler backlog equals this many wall-clock
     * nanoseconds has its effective cost doubled. Must be positive.
     */
    WallNs backlogWindowNs = 50000;
};

/** Handle to one model placed somewhere in the pool. */
using ModelRef = std::size_t;

/** tryPlace result when no active chip can take the placement. */
constexpr ModelRef kNoModel = ~std::size_t{0};

/** tryPlace `avoid_chip` value meaning "no chip excluded". */
constexpr std::size_t kNoChip = ~std::size_t{0};

/** A single-MVM model: one weight matrix and its precision. */
struct MatrixModel
{
    MatrixI weights;
    /** Weight element bits and analog bits per cell the matrix is
     *  programmed at. */
    int elementBits = 8;
    int bitsPerCell = 2;
    /** Request precision CostAware scores the shape at. */
    int inputBits = 8;
};

/**
 * What one placement serves: a weight matrix for single-MVM
 * requests, or a whole TinyCnn / small-encoder network whose
 * requests are inferences (programmed at the chip's mapper
 * precision).
 */
using ServedModel = std::variant<MatrixModel, cnn::TinyCnn, llm::Encoder>;

/**
 * One inference in flight (from ChipPool::beginInference). Owns the
 * model runner's InferenceRun, which the caller drives, and the
 * per-stage admission charges; the pool that issued it (and the
 * placed model) must outlive it.
 */
struct StagedInference
{
    ModelRef model = 0;
    /**
     * Per-stage weighted-fair admission charges in integer
     * *picoseconds* of the owning chip's time: the run's per-step
     * nominal oracle costs, normalized so they sum *exactly* to
     * nominalServicePs(model) — admitting every stage of a request
     * charges precisely what admitting the whole inference would
     * have, and charges are comparable across chips of different
     * clocks without rounding.
     */
    std::vector<u64> stageCharges;
    std::unique_ptr<runtime::InferenceRun> run;

    std::size_t stageCount() const { return stageCharges.size(); }
};

/**
 * A pool of chips behind one placement front end.
 *
 * The placement tables (models_, affinity_, the round-robin cursor)
 * are GUARDED_BY(mu_). The threading contract has two phases:
 * placement calls (place, tryPlace) serialize on mu_ and are
 * issued before serving starts; the run-time entry points (submit,
 * wait, beginInference, the model metadata lookups) take mu_ only
 * long enough to resolve the ModelRef, then drive the owning chip's
 * session *outside* the lock — safe because exactly one admission
 * worker drives each chip (common/WorkerPool.h) and the model table
 * is stable once serving begins. Chips, runtimes, sessions, and the
 * per-chip mappers are constructed once and the containers never
 * change afterwards; the objects behind them guard themselves.
 */
class ChipPool
{
  public:
    explicit ChipPool(const PoolConfig &cfg);

    const PoolConfig &config() const { return cfg_; }
    std::size_t numChips() const { return chips_.size(); }

    /** Per-slot silicon (uniform pools replicate PoolConfig::chip). */
    const ChipSpec &spec(std::size_t i) const;

    /** Clock period of one slot in integer picoseconds. */
    u64 periodPs(std::size_t i) const;

    /**
     * Exact cycle -> wall conversion for one chip: floor(cycles *
     * periodPs / 1000) nanoseconds. Deterministic integer
     * arithmetic; at the default 1 GHz bin one cycle is one
     * nanosecond, so uniform default-clock pools report the same
     * numbers they did when the serving layer counted cycles.
     */
    WallNs wallNs(std::size_t chip, Cycle cycles) const;

    /**
     * Exact wall -> cycle conversion for one chip:
     * ceil(ns * 1000 / periodPs) — the first cycle of that chip at
     * or after the wall instant, so admission bounds never start
     * work early.
     */
    Cycle cyclesAt(std::size_t chip, WallNs ns) const;

    runtime::Chip &chip(std::size_t i);
    runtime::Runtime &runtime(std::size_t i);

    /**
     * Activate or drain one slot: inactive chips are excluded from
     * every placement decision (existing placements keep running —
     * draining finishes begun work). The autoscaler's lever.
     */
    void setChipActive(std::size_t chip, bool active) EXCLUDES(mu_);

    /** True when the slot accepts new placements (default). */
    bool chipActive(std::size_t chip) const EXCLUDES(mu_);

    /** Live (un-released) placements currently on one chip. */
    std::size_t liveModels(std::size_t chip) const EXCLUDES(mu_);

    /**
     * Place a model (every weight matrix on one chip) by the
     * placement policy. Under MatrixAffinity and CostAware a
     * non-zero `key` already placed returns the existing ModelRef
     * (shared placement) — fatal unless the offered model is the
     * same kind with every weight matrix equal; otherwise every call
     * creates a fresh placement. Fatal when no chip has enough free
     * tiles.
     */
    ModelRef place(u64 key, ServedModel model) EXCLUDES(mu_);

    /**
     * place() that returns kNoModel on exhaustion instead of
     * aborting. Naming `avoid_chip` makes it the migration move: a
     * fresh placement on any chip but that one, past the affinity
     * table, that re-binds the key (the old placement keeps its
     * tiles until releaseModel). A fleet run migrates and lazily
     * places through this, so a full pool degrades to "migration
     * aborted", never to a crash.
     */
    ModelRef tryPlace(u64 key, ServedModel model,
                      std::size_t avoid_chip = kNoChip) EXCLUDES(mu_);

    /**
     * CostAware's score for a model on one chip: the KernelModel
     * oracle latency of one request on that chip's configuration
     * (single MVM: the chip's scheduler oracle; inference: the
     * chip's mapper network cost), in nanoseconds (cycles over the
     * chip clock), inflated by the chip's current scheduler backlog:
     * (1 + backlogNs / backlogWindowNs). Fatal when the model cannot
     * be planned on that chip at all.
     */
    double placementScore(std::size_t chip, const ServedModel &model);

    /**
     * Release one placement: frees its tiles (draining any queued
     * work for them) and drops it from the affinity table if it is
     * still the key's placement. The ModelRef becomes invalid —
     * every later lookup is fatal. The caller must have finished or
     * abandoned the model's in-flight requests first; the serving
     * layer defers this call until a migrated-away or departed
     * tenant's begun work has drained, which is how "no begun
     * inference is ever lost" holds by construction.
     */
    void releaseModel(ModelRef model) EXCLUDES(mu_);

    /** True when the model serves whole inferences, not single MVMs. */
    bool isInference(ModelRef model) const EXCLUDES(mu_);

    /**
     * Begin one inference request (fatal for single-MVM models):
     * plans the model's InferenceRun on the owning chip's session
     * with the root source at `ready`, computes the per-stage
     * admission charges, and submits *nothing*. The caller drives
     * the run — submitNext once per stage for stage-granular
     * admission, or runToCompletion — and converts its cycle stamps
     * with wallNs() on modelChip(model). Successive inferences
     * against one model pipeline at the per-layer amortized rate
     * because the placements persist.
     */
    std::unique_ptr<StagedInference>
    beginInference(ModelRef model, const std::vector<i64> &input,
                   Cycle ready = 0) EXCLUDES(mu_);

    /** Chip that holds a placed model. */
    std::size_t modelChip(ModelRef model) const EXCLUDES(mu_);

    /**
     * KernelModel oracle cost of one request: for single-MVM models
     * the oracle latency of one MVM (worst part, via the owning
     * scheduler's cached oracle); for inference models the
     * whole-inference serialized latency from the mapper cost model.
     * In the owning chip's cycles.
     */
    Cycle nominalServiceCycles(ModelRef model, int input_bits)
        EXCLUDES(mu_);

    /**
     * The same nominal service in integer picoseconds of wall time
     * (nominalServiceCycles times the owning chip's period) — the
     * clock-independent quantity weighted-fair charging and load
     * calibration use, exact by construction.
     */
    u64 nominalServicePs(ModelRef model, int input_bits)
        EXCLUDES(mu_);

    /** Submit one MVM against a single-MVM model through the pool's
     *  session on the owning chip (fatal for inference models). */
    runtime::MvmFuture submit(ModelRef model, std::vector<i64> x,
                              int input_bits, Cycle earliest = 0)
        EXCLUDES(mu_);

    /** Resolve a future submitted against a model. */
    runtime::MvmResult wait(ModelRef model,
                            const runtime::MvmFuture &future)
        EXCLUDES(mu_);

    /** Scheduler backlog of one chip in cycles (see
     *  Scheduler::backlogCycles). */
    Cycle backlogCycles(std::size_t chip) const;

    /** Scheduler backlog of one chip in wall-clock nanoseconds (the
     *  CostAware load term). */
    WallNs backlogNs(std::size_t chip) const;

    /**
     * Attach (or detach, with nullptr) an event journal: every
     * placement decision — fresh placements with the winning
     * CostAware score, and affinity-shared reuses — emits a
     * Placement record. The journal must outlive the attachment;
     * the pool never owns it.
     */
    void setJournal(journal::Journal *journal) EXCLUDES(mu_);

  private:
    /** One placed inference network (owns the net, the forward
     *  runner, and through it the placements). Heap-allocated so the
     *  forward's references stay stable as models_ grows. */
    struct InferenceModel
    {
        /** The network: a TinyCnn or an Encoder, never a matrix. */
        ServedModel net;
        std::unique_ptr<cnn::TinyCnnForward> cnnFwd;
        std::unique_ptr<llm::EncoderForward> llmFwd;
        /** Flat input length of one request. */
        std::size_t inputRows = 0;
        /** Whole-inference serialized oracle latency. */
        Cycle oracleCost = 0;
    };

    struct Model
    {
        u64 key = 0;
        std::size_t chip = 0;
        runtime::MatrixHandle handle;
        std::unique_ptr<InferenceModel> inference;
        /** False once releaseModel reclaimed the placement. */
        bool live = true;
    };

    static constexpr std::size_t kUnplaceable = ~std::size_t{0};

    /**
     * What a fresh placement would need/cost per chip. `parts[c]` is
     * the tile count on chip c (kUnplaceable when the model cannot
     * map to that chip's silicon at all — `why[c]` keeps the
     * reason); `score[c]` is the CostAware nanosecond cost (0 under
     * the other policies, which do not score).
     */
    struct PlacementQuote
    {
        std::vector<std::size_t> parts;
        std::vector<double> score;
        std::vector<std::string> why;

        explicit PlacementQuote(std::size_t chips)
            : parts(chips, kUnplaceable), score(chips, 0.0),
              why(chips)
        {}
    };

    /**
     * Quote every chip for a fresh placement of `model`: the tiles
     * its weight matrices need on that chip's silicon and, under
     * CostAware, its score. A chip the model cannot map to is
     * excluded with the reason recorded. Uniform pools quote slot 0
     * once and replicate — identical silicon, deterministic
     * measurement.
     */
    PlacementQuote quoteChips(const ServedModel &model);

    /** Chip for a fresh placement, by the configured policy
     *  (touches the round-robin cursor); kNoChip when no active,
     *  non-avoided chip fits and `fatal` is false, fatal with the
     *  per-chip diagnosis otherwise. */
    std::size_t pickChip(const PlacementQuote &quote,
                         const char *what, std::size_t avoid_chip,
                         bool fatal) REQUIRES(mu_);

    /** True when chip a beats chip b on the least-loaded order
     *  (most free tiles, then soonest makespan, then index). */
    bool lessLoaded(std::size_t a, std::size_t b) const;

    /** Element bits and bits per cell `model` is programmed at on
     *  one chip (a matrix's own; the chip's mapper's for networks). */
    std::pair<int, int> precision(std::size_t chip,
                                  const ServedModel &model) const;

    /** KernelModel oracle latency of one request of `model` on one
     *  chip's configuration, in that chip's cycles. */
    Cycle oracleCycles(std::size_t chip, const ServedModel &model);

    /** Affinity sameness: the offered model is the held one's kind
     *  and every weight matrix is equal. */
    static bool sameModel(const Model &held, const ServedModel &offered);

    /** The CostAware backlog inflation of one chip:
     *  1 + backlogNs / backlogWindowNs. */
    double loadFactor(std::size_t chip) const;

    /** The one body of place / tryPlace: `fatal` picks the
     *  exhaustion behavior. */
    ModelRef placeImpl(u64 key, ServedModel model,
                       std::size_t avoid_chip, bool fatal)
        EXCLUDES(mu_);

    const Model &modelRef(ModelRef model, const char *what) const
        REQUIRES(mu_);

    /**
     * Resolve a placed model holding mu_ only for the table lookup,
     * so per-chip workers resolving models on different chips do not
     * serialize on the pool lock. The returned reference stays valid
     * because placement (the only thing that grows models_ and can
     * reallocate it) completes before run-time lookups begin; each
     * entry is immutable after its placement call returns. Whatever
     * the caller then does on the owning chip is guarded by the
     * one-worker-per-chip discipline, not by mu_.
     */
    const Model &lookupModel(ModelRef model, const char *what) const
        EXCLUDES(mu_);

    PoolConfig cfg_;
    /** One resolved spec per slot. */
    std::vector<ChipSpec> specs_;
    /** Integer-picosecond clock period per slot (frequency bin). */
    std::vector<u64> periodPs_;
    /** True when the slots were replicated from PoolConfig::chip
     *  (identical silicon by construction: quotes plan once). */
    bool uniform_ = false;
    std::vector<std::unique_ptr<runtime::Chip>> chips_;
    std::vector<std::unique_ptr<runtime::Runtime>> runtimes_;
    /** One serving session per chip; all models live in these. */
    std::vector<runtime::Session> sessions_;
    /** Per-chip inference mappers (chips may differ in silicon);
     *  built eagerly at construction, immutable slots after. */
    std::vector<std::unique_ptr<cnn::CnnMapper>> cnnMappers_;
    std::vector<std::unique_ptr<llm::LlmMapper>> llmMappers_;

    /** Guards the mutable placement tables below
     *  (common/ThreadAnnotations.h). */
    mutable SeqMutex mu_;

    std::vector<Model> models_ GUARDED_BY(mu_);
    /** Per-slot activation mask (see setChipActive). */
    std::vector<bool> active_ GUARDED_BY(mu_);
    /** key -> ModelRef, consulted under MatrixAffinity/CostAware. */
    std::map<u64, ModelRef> affinity_ GUARDED_BY(mu_);
    std::size_t rrCursor_ GUARDED_BY(mu_) = 0;
    /** Placement-event sink (see setJournal); not owned. */
    journal::Journal *journal_ GUARDED_BY(mu_) = nullptr;
};

} // namespace serve
} // namespace darth

#endif // DARTH_SERVE_CHIPPOOL_H
