/**
 * @file
 * Serving-cluster telemetry: per-tenant and per-chip aggregates and
 * latency distributions, the report an AdmissionController run
 * produces. Per-request facts are not kept here: the run journal
 * (AdmissionController::setJournal) records each request's arrival,
 * start, completion, and output checksum.
 *
 * Latencies are recorded in wall-clock nanoseconds relative to each
 * request's open-loop arrival: queueing = start - arrival (admission
 * wait plus scheduler wait), latency = done - arrival (queueing plus
 * service). Per-chip cycle stamps are converted through the owning
 * chip's clock at the admission boundary, so every number here is
 * comparable across a mixed-clock pool. Percentiles come from
 * common/Stats's StreamingHistogram, nearest-rank within one bucket
 * width.
 */

#ifndef DARTH_SERVE_SERVESTATS_H
#define DARTH_SERVE_SERVESTATS_H

#include <cstddef>
#include <string>
#include <vector>

#include "common/Stats.h"
#include "common/Types.h"
#include "serve/Slo.h"

namespace darth
{
namespace serve
{

/** Telemetry of one tenant (QoS class) over a trace. */
struct TenantStats
{
    std::string name;
    double weight = 1.0;

    u64 completed = 0;
    /** Requests dropped by the Reject overflow policy. */
    u64 rejected = 0;
    /**
     * MVMs executed for this tenant: equals `completed` for
     * single-MVM kinds; for inference tenants each completed request
     * contributes its whole forward's stream count, so
     * mvms / completed is the per-inference MVM footprint and the
     * latency distributions below are *per-inference* latencies.
     */
    u64 mvms = 0;

    /**
     * O(1)-memory streaming distributions in wall ns, pushed in
     * completion order: exact count/sum/min/max plus percentiles
     * accurate to one bucket width. latency = done - arrival,
     * queueing = start - arrival (admission blocking plus tile
     * contention), service = done - start.
     */
    StreamingHistogram latencyHist;
    StreamingHistogram queueingHist;
    StreamingHistogram serviceHist;

    /** Total wall-ns of service delivered to this tenant. */
    double serviceNs = 0.0;

    /** Error-budget burn against the tenant's SLO (inert when the
     *  tenant's spec left the SLO disabled; see serve/Slo.h). */
    SloStats slo;
};

/** Telemetry of one pool chip over a trace (heterogeneity view). */
struct ChipStats
{
    /** ChipSpec name ("sar", "ramp", or "chip" for uniform pools). */
    std::string name;
    /** Functionally instantiated tiles on this chip. */
    std::size_t hcts = 0;
    /** Chip clock, GHz (ChipSpec::clockGHz). */
    double clockGHz = 1.0;
    /** Submission-window depth admission enforced for this chip. */
    std::size_t windowDepth = 0;
    /** Tenants whose model lives on this chip. */
    std::size_t tenants = 0;

    u64 completed = 0;
    u64 mvms = 0;
    /** Total wall-ns of service delivered by this chip. */
    double serviceNs = 0.0;
    /** Max completion on this chip, converted from its local clock
     *  to wall ns. */
    WallNs makespanNs = 0;

    /**
     * This chip's scheduler counters over the run (deltas, so a
     * reused pool reports only this trace's work): requests
     * executed, executed requests that pipelined into a still-warm
     * same-matrix stream, and executed requests stalled by an
     * `after` dependency. Together with interleavedStages these
     * make stage-level interleaving observable from the report.
     */
    u64 issued = 0;
    u64 pipelineHits = 0;
    u64 dependencyStalls = 0;
    /**
     * Stage-granularity interleaving proof: continuation stages
     * admitted on this chip after some *other* request's admission
     * intervened since their own request's previous stage (counted
     * from the per-chip admission sequence). Zero under Inference
     * granularity, where a request is one admitted unit.
     */
    u64 interleavedStages = 0;

    /** Completed requests per microsecond (1000 ns) of this chip's
     *  makespan. */
    double
    throughputPerKns() const
    {
        if (makespanNs == 0)
            return 0.0;
        return static_cast<double>(completed) * 1000.0 /
               static_cast<double>(makespanNs);
    }

    /**
     * Delivered service ns per makespan ns. Exceeds 1.0 when
     * requests overlap on disjoint tiles (it is a concurrency
     * measure, not a single-resource busy fraction).
     */
    double
    utilization() const
    {
        if (makespanNs == 0)
            return 0.0;
        return serviceNs / static_cast<double>(makespanNs);
    }
};

/**
 * Fleet-lifecycle counters over one run (all zero for a static
 * fleet): what the FleetController actually did, mirrored by the
 * journal's lifecycle events. serve_bench's fleet experiment uses
 * these to prove its churn scenario is non-vacuous (migrations and
 * scale-downs really happened) before asserting invariance.
 */
struct FleetStats
{
    /** Tenants whose placement was created lazily mid-run. */
    u64 arrivals = 0;
    /** Tenants whose placement was reclaimed after departure. */
    u64 departures = 0;
    /** Completed live migrations (placement moved chips). */
    u64 migrations = 0;
    /** Migrations abandoned because no other chip could take the
     *  placement (the old placement keeps serving). */
    u64 migrationsAborted = 0;
    /** Chip slots reactivated by the autoscaler. */
    u64 chipUps = 0;
    /** Chip slots drained and deactivated by the autoscaler. */
    u64 chipDowns = 0;
};

/** Result of running one trace through an AdmissionController. */
struct ServeReport
{
    std::vector<TenantStats> tenants;
    /** Per-chip breakdown (index = chip slot). */
    std::vector<ChipStats> chips;

    /** Max completion wall time over all requests, ns (0 if none
     *  ran). */
    WallNs makespanNs = 0;

    u64 completed = 0;
    u64 rejected = 0;

    /** What the fleet lifecycle did during the run (all zero
     *  without a FleetController). */
    FleetStats fleet;

    /** FNV-1a over every completed request's output values, in trace
     *  order — a cheap cross-configuration identity check. */
    u64 outputChecksum = 0;

    /** Aggregate completed requests per microsecond of makespan. */
    double throughputPerKns() const
    {
        if (makespanNs == 0)
            return 0.0;
        return static_cast<double>(completed) * 1000.0 /
               static_cast<double>(makespanNs);
    }

    /** Fraction of delivered service time earned by one tenant. */
    double serviceShare(std::size_t tenant) const
    {
        double total = 0.0;
        for (const auto &t : tenants)
            total += t.serviceNs;
        if (total <= 0.0)
            return 0.0;
        return tenants[tenant].serviceNs / total;
    }
};

} // namespace serve
} // namespace darth

#endif // DARTH_SERVE_SERVESTATS_H
