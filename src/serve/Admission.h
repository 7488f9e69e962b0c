/**
 * @file
 * QoS-aware admission control with per-chip backpressure.
 *
 * The AdmissionController is the serving front end above a ChipPool.
 * Each chip has a bounded submission window of units in flight
 * (admitted but not yet complete) — the model of a front end with
 * finite ingest bandwidth. The window is per-chip: `queueDepth`
 * uniformly, or `chipQueueDepth[c]` per slot for heterogeneous
 * pools. The admitted *unit* is set by AdmissionConfig::granularity:
 * a whole request (single MVM or whole inference), or — at Stage
 * granularity — one InferenceRun stage at a time, each freeing its
 * slot at its own completion and re-queueing the request's next
 * stage, so stages of different requests interleave on one chip
 * while outputs stay bit-identical to whole-unit admission. When a
 * unit arrives and its chip's window is full, the overflow policy
 * decides:
 *
 *  - Block  — the client stalls in a per-tenant waiting room and is
 *             admitted the instant a slot frees (never dropped);
 *  - Reject — a *fresh* request is dropped and counted against its
 *             tenant; continuation stages of an already-begun
 *             inference always block instead (a begun forward is
 *             never stranded).
 *
 * Which waiting tenant is admitted into a freed slot is the QoS
 * policy:
 *
 *  - Fifo         — global arrival order;
 *  - RoundRobin   — cycle over tenants with waiting requests
 *                   (starvation-free by construction);
 *  - WeightedFair — start-time fair queueing: each admission gets a
 *                   start tag max(chip virtual time, tenant finish
 *                   tag), the finish tag advances by the KernelModel
 *                   oracle latency of the request's model in wall
 *                   picoseconds (the packet length of classic WFQ,
 *                   clock-independent) over the weight, and the
 *                   smallest start tag wins. Shares converge to the
 *                   weights under saturation, and a tenant
 *                   returning from idle re-enters at the current
 *                   virtual time — idle periods bank no credit.
 *
 * Admission order, not scheduler drain order, is what carries QoS:
 * an admitted request's `earliest` bound is its admission instant,
 * so holding a request back delays it in simulated time. The
 * controller additionally sets every chip's scheduler to
 * DrainOrder::Submission, so drains service strictly in admission
 * order instead of the greedy earliest-start order.
 *
 * Time here is wall-clock nanoseconds (common/Types.h WallNs):
 * chips are independent cycle domains, and every per-chip cycle
 * stamp converts exactly at the admission boundary through the
 * chip's integer-picosecond period (ChipPool::wallNs/cyclesAt), so
 * mixed-clock pools aggregate legally — arrivals, latencies,
 * SLO targets, journal timestamps, and WFQ charges (integer
 * picoseconds) all live in one comparable domain. At the default
 * 1 GHz bin one cycle is one nanosecond, so uniform-clock runs
 * report the same numbers the cycle-domain controller did.
 *
 * With a FleetController attached (the fleet-mode constructor) the
 * run additionally models fleet lifecycle: tenants arrive and
 * depart mid-trace, placements migrate between chips, and slots
 * scale up and down — every action journaled as its own EventKind.
 * Each request binds to its tenant's placement *at arrival*, and a
 * replaced placement is released only when its bound requests have
 * drained, so begun work always finishes where it began and no
 * accepted inference is ever lost. Fleet runs step the merged
 * request/lifecycle timeline in arrival order (AdmissionConfig::threads
 * is inert there); static runs keep the parallel per-chip batches.
 *
 * Everything is deterministic: one trace, one config, one report —
 * and under Block (where every request completes) the functional
 * outputs are bit-identical across pool sizes, policies, and fleet
 * lifecycle decisions; only the time stamps move. Reject runs
 * complete different subsets per configuration, so their checksums
 * are comparable only between identical configs.
 */

#ifndef DARTH_SERVE_ADMISSION_H
#define DARTH_SERVE_ADMISSION_H

#include <cstddef>
#include <string>
#include <vector>

#include "common/ThreadAnnotations.h"
#include "serve/ChipPool.h"
#include "serve/ServeStats.h"
#include "serve/Slo.h"
#include "serve/TrafficGen.h"

namespace darth
{
namespace journal
{
class Journal;
} // namespace journal

namespace serve
{

class FleetController;

/** How a freed submission slot picks the next waiting tenant. */
enum class QosPolicy
{
    Fifo,
    RoundRobin,
    WeightedFair,
};

const char *qosPolicyName(QosPolicy policy);

/** What happens to an arrival when its chip's window is full. */
enum class OverflowPolicy
{
    Block,
    Reject,
};

/**
 * The unit of admission for whole-inference tenants.
 *
 *  - Inference — one admitted unit per request: the whole forward
 *                runs at admission, occupies one window slot until
 *                its graph completes, and is WFQ-charged its whole
 *                nominal cost (PR 3 semantics).
 *  - Stage     — one admitted unit per InferenceRun stage: each
 *                stage occupies a window slot only until *it*
 *                completes, re-enters the waiting room for its next
 *                stage, and is WFQ-charged its per-stage share of
 *                the nominal cost. Stages of different requests
 *                interleave on one chip; functional outputs stay
 *                bit-identical to Inference granularity (the FNV
 *                checksum invariant) — only cycle stamps move.
 *
 * Single-MVM tenants are one-stage requests: both granularities
 * treat them identically.
 */
enum class Granularity
{
    Inference,
    Stage,
};

const char *granularityName(Granularity granularity);

/** Admission-layer configuration. */
struct AdmissionConfig
{
    /** Uniform per-chip submission window (in-flight requests);
     *  >= 1. Overridden per chip by `chipQueueDepth` when set. */
    std::size_t queueDepth = 8;
    /**
     * Heterogeneous windows: chipQueueDepth[c] is chip c's
     * submission window (a bigger front end ingests more). Must be
     * empty (uniform `queueDepth` everywhere) or have one positive
     * entry per pool chip.
     */
    std::vector<std::size_t> chipQueueDepth;
    QosPolicy qos = QosPolicy::Fifo;
    OverflowPolicy overflow = OverflowPolicy::Block;
    /** Admission unit for inference tenants (see Granularity). */
    Granularity granularity = Granularity::Inference;
    /**
     * Host worker threads for static pools (<= 1 runs every request
     * inline in arrival order). Chips are isolated Runtime instances
     * and a static pool's requests partition perfectly by chip (each
     * tenant is placed on exactly one chip), so with threads > 1
     * run() and runStream() pull fixed-size batches of requests and
     * run each batch as one WorkerPool job per chip, merging journal
     * events at the join in request order: the report and the
     * journal are bit-identical for every thread count. Fleet runs
     * (lifecycle state spans chips) always run in arrival order and
     * ignore it. Host-only knob — it is deliberately NOT recorded in
     * the journal's AdmissionSetup record, so replays of a parallel
     * run stay bit-identical.
     */
    std::size_t threads = 1;
};

/** One admitted tenant of the serving cluster. */
struct Tenant
{
    std::string name;
    double weight = 1.0;
    /** The tenant's current placement. kNoModel for a fleet tenant
     *  that has not arrived yet (placed lazily at arriveNs);
     *  rebound by live migration. */
    ModelRef model = 0;
    int inputBits = 8;
    /** Latency/availability SLO (from TenantSpec::slo); run()
     *  tracks burn rate against it in TenantStats::slo. */
    SloSpec slo;
};

/**
 * The model tenant `index` of a spec list serves, its weights
 * regenerated from the traffic generator: a non-zero modelKey names
 * shared weights, a zero key a private model salted by the tenant
 * index (TrafficGen::privateModelKey). Same arguments, bit-identical
 * model — which is what lets a migration re-place it elsewhere.
 */
ServedModel tenantModel(const TrafficGen &gen, const TenantSpec &spec,
                        std::size_t index);

/**
 * Place every spec's model in the pool (tenantModel) and build the
 * admission-layer tenant list. Specs with a non-zero modelKey share
 * weights — and, under MatrixAffinity placement, the placement
 * itself.
 */
std::vector<Tenant> buildTenants(ChipPool &pool, const TrafficGen &gen,
                                 const std::vector<TenantSpec> &specs);

/**
 * Serving front end: admission, backpressure, and QoS.
 *
 * The tenant table and config are GUARDED_BY(mu_); a run holds the
 * guard for its whole source (its windows, waiting rooms, and fair
 * tags are run-local, so the admission front end is one critical
 * section per run). With AdmissionConfig::threads > 1 on a static
 * pool the per-chip work — admission decisions *and* drains, which
 * partition perfectly by chip — runs on WorkerPool jobs under that
 * critical section; journal events buffer per chip and merge in
 * request order at the join, so every thread count produces one
 * bit-identical report and journal.
 */
class AdmissionController
{
  public:
    /** Throws std::invalid_argument on a zero window depth, a
     *  chipQueueDepth whose length is neither 0 nor the pool's chip
     *  count, or a tenant with a non-positive weight; a tenant
     *  naming a model that does not exist in the pool is a panic
     *  (programming error). */
    AdmissionController(ChipPool &pool, std::vector<Tenant> tenants,
                        const AdmissionConfig &cfg);

    /**
     * Fleet-mode controller: tenants come from the fleet's specs
     * (FleetController::buildInitialTenants — arrived tenants
     * placed eagerly, future ones lazily), and run() interleaves
     * the fleet's lifecycle timeline (arrivals, departures,
     * controller ticks) with the trace. The fleet must drive the
     * same pool and must outlive the controller. Fleet runs are
     * sequential: AdmissionConfig::threads is accepted but inert,
     * and the report is bit-identical for every value.
     */
    AdmissionController(ChipPool &pool, FleetController &fleet,
                        const AdmissionConfig &cfg);

    const AdmissionConfig &config() const EXCLUDES(mu_)
    {
        SeqLock lock(mu_);
        return cfg_;
    }
    const std::vector<Tenant> &tenants() const EXCLUDES(mu_)
    {
        SeqLock lock(mu_);
        return tenants_;
    }

    /**
     * Run one open-loop trace to completion and report: exactly
     * runStream() over a VectorSource of `trace` (which is not
     * copied), so both entry points produce the same report and
     * journal for the same requests.
     */
    ServeReport run(const std::vector<ServeRequest> &trace)
        EXCLUDES(mu_);

    /**
     * Run a pull-based request stream to completion. Requests are
     * pulled from `source` in arrival order into a request table,
     * held only while in flight, and folded out of the table front in
     * request order into ServeReport::outputChecksum; per-request
     * facts live only in the attached journal (setJournal). Memory
     * is the run's concurrency, not its length: when the table
     * outgrows an internal bound, admitted units at its front are
     * resolved early, which can only reorder journal records —
     * identically for every source and thread count — on runs with
     * more than 65536 concurrently-live requests.
     *
     * Every request is checked as it is pulled: one naming an unknown
     * tenant, arriving before its predecessor, or (fleet runs)
     * belonging to a tenant whose arrival moment has not come yet
     * throws std::invalid_argument naming the request index. The
     * throw abandons the run midway — chip schedulers, placements,
     * and the attached journal hold partial state — so the pool and
     * this controller must not be reused afterwards.
     */
    ServeReport runStream(RequestSource &source) EXCLUDES(mu_);

    /**
     * Attach (or detach, with nullptr) an event journal: run()
     * emits one record per arrival, admission (with the WFQ
     * charge), stage submission/completion, backpressure action,
     * and completion, plus per-chip summaries and a run trailer —
     * the stream journal/Replayer.h replays bit-identically. The
     * journal must outlive the attachment; never owned.
     */
    void setJournal(journal::Journal *journal) EXCLUDES(mu_);

  private:
    /** Guards the tenant table and config
     *  (common/ThreadAnnotations.h; a real mutex since the per-chip
     *  worker threads landed). */
    mutable SeqMutex mu_;

    ChipPool &pool_;
    /** Lifecycle driver for fleet-mode runs; nullptr for static
     *  fleets. Not owned. */
    FleetController *fleet_ = nullptr;
    std::vector<Tenant> tenants_ GUARDED_BY(mu_);
    AdmissionConfig cfg_ GUARDED_BY(mu_);
    /** Event sink for run() (see setJournal); not owned. */
    journal::Journal *journal_ GUARDED_BY(mu_) = nullptr;
};

} // namespace serve
} // namespace darth

#endif // DARTH_SERVE_ADMISSION_H
