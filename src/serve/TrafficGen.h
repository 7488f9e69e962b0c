/**
 * @file
 * Deterministic open-loop traffic generation for the serving cluster.
 *
 * A TenantSpec names a workload kind (request shapes drawn from the
 * paper's three applications — the AES GF(2) MixColumns matrix, a
 * CNN im2col layer, an LLM projection — plus a tiny Micro shape for
 * fast unit tests), a QoS weight, and a mean open-loop arrival rate.
 * Two *inference-level* kinds lift requests from single MVMs to whole
 * forwards: CnnInfer (a TinyCnn conv-conv-fc network) and LlmInfer
 * (a small encoder layer), each executed as one InferenceGraph per
 * request with the flat input vector carrying the network input.
 * TrafficGen expands specs into weight matrices / networks and a
 * merged arrival trace: per-tenant Poisson arrivals (exponential
 * inter-arrival times) and uniformly random inputs, all drawn from
 * seeded common/Random streams so a scenario replays bit-identically
 * regardless of pool size or policy.
 *
 * All traffic timing is wall-clock nanoseconds (common/Types.h
 * WallNs): arrival stamps, burst phases, rates, and the trace
 * horizon live in the cross-chip time domain, not any one chip's
 * cycles. Tenants may also be transient: arriveNs/departNs bound a
 * tenant's active window, so a fleet's tenant population churns
 * mid-trace — each tenant's arrival stream is drawn exactly as if
 * it were permanent and then gated to the window, so toggling churn
 * (or changing another tenant's window) never perturbs the arrivals
 * a tenant does make.
 */

#ifndef DARTH_SERVE_TRAFFICGEN_H
#define DARTH_SERVE_TRAFFICGEN_H

#include <string>
#include <vector>

#include "apps/cnn/TinyCnn.h"
#include "apps/llm/Encoder.h"
#include "common/Matrix.h"
#include "common/Random.h"
#include "common/Types.h"
#include "serve/Slo.h"

namespace darth
{
namespace serve
{

/** Request shape family a tenant draws from. */
enum class WorkloadKind
{
    /** 32x32 GF(2) MixColumns, 1-bit weights and inputs. */
    Aes,
    /** 72x16 im2col conv layer (3x3x8 -> 16), 8-bit. */
    Cnn,
    /** 64x64 projection, 8-bit. */
    Llm,
    /** 8x8 1-bit toy shape for fast unit tests. */
    Micro,
    /** Whole TinyCnn inference (conv-conv-fc) per request. */
    CnnInfer,
    /** Whole small-encoder-layer forward per request. */
    LlmInfer,
    /**
     * 32x256 GF(2) substitution bank, 1-bit weights/inputs: many
     * independent low-precision output columns per MVM (batched
     * AES-style bit-matrix work). The wide/low-precision regime
     * where a ramp ADC's single all-column sweep with §5.3 early
     * termination beats multiplexed SAR converters — the
     * ramp-favoring class of the heterogeneous-pool sweep.
     */
    GfWide,
};

/** True for kinds whose requests are whole inferences. */
bool isInferenceKind(WorkloadKind kind);

const char *workloadKindName(WorkloadKind kind);

/**
 * On/off burst modulation of one tenant's open-loop arrivals:
 * `onNs` wall-clock nanoseconds of Poisson arrivals at the tenant's
 * rate, then `offNs` of silence, repeating. Both zero (the default)
 * disables bursting; anything else requires both positive
 * (validateSpec throws std::invalid_argument otherwise). Bursty
 * traffic is where stage-granular admission matters most: a burst
 * fills the window with whole inferences under Inference
 * granularity, while Stage granularity recycles slots at stage
 * completions. Long on/off periods are the diurnal traffic shape
 * the fleet autoscaler breathes against (serve/FleetController.h).
 */
struct BurstSpec
{
    WallNs onNs = 0;
    WallNs offNs = 0;

    bool enabled() const { return onNs > 0 || offNs > 0; }
};

/** One serving tenant, as the traffic generator sees it. */
struct TenantSpec
{
    std::string name;
    WorkloadKind kind = WorkloadKind::Micro;
    /** Weighted-fair QoS share. */
    double weight = 1.0;
    /** Mean open-loop arrivals per 1000 wall-clock nanoseconds
     *  (during on-phases when `burst` is enabled). */
    double ratePerKns = 1.0;
    /**
     * Model identity: tenants sharing a non-zero key use the same
     * weight matrix, and under MatrixAffinity placement share the
     * placement itself. 0 = a private matrix per tenant.
     */
    u64 modelKey = 0;
    /** Optional on/off arrival bursts (disabled by default). */
    BurstSpec burst;
    /**
     * Optional latency/availability SLO (disabled by default; see
     * serve/Slo.h). AdmissionController tracks error-budget burn
     * against it in TenantStats::slo. Members only accrete at the
     * tail of the struct so positional aggregate initializers
     * predating them keep their meaning.
     */
    SloSpec slo;
    /**
     * Fleet-lifecycle window: the tenant is active on [arriveNs,
     * departNs) in wall-clock nanoseconds. arriveNs = 0 means
     * present from the start; departNs = 0 means never departs.
     * A non-zero departNs must exceed arriveNs (validateSpec).
     * trace() emits only arrivals inside the window; under a
     * FleetController the placement is created lazily at arriveNs
     * and reclaimed once the departed tenant's begun work drains.
     */
    WallNs arriveNs = 0;
    WallNs departNs = 0;
};

/** One request of the open-loop trace. */
struct ServeRequest
{
    /** Wall-clock arrival stamp. */
    WallNs arrival = 0;
    /** Index into the tenant list the trace was generated from. */
    std::size_t tenant = 0;
    std::vector<i64> input;
};

/**
 * Pull-based request stream: the streaming counterpart of a
 * materialized trace vector. next() yields requests in nondecreasing
 * arrival order (the same total order a sorted trace vector has) and
 * returns false once the stream is exhausted. Consumers
 * (AdmissionController::runStream, streaming record/replay) never
 * hold more than a bounded window of pulled requests, which is what
 * keeps million-request runs at flat memory.
 */
class RequestSource
{
  public:
    virtual ~RequestSource() = default;
    /** Pull the next request; false at end of stream. */
    virtual bool next(ServeRequest &out) = 0;
};

/** RequestSource over an already-materialized (sorted) trace. The
 *  trace is not copied: it must outlive the source. */
class VectorSource : public RequestSource
{
  public:
    explicit VectorSource(const std::vector<ServeRequest> &trace)
        : trace_(trace)
    {
    }
    /** A temporary trace would dangle. */
    explicit VectorSource(std::vector<ServeRequest> &&) = delete;

    bool
    next(ServeRequest &out) override
    {
        if (pos_ >= trace_.size())
            return false;
        out = trace_[pos_++];
        return true;
    }

  private:
    const std::vector<ServeRequest> &trace_;
    std::size_t pos_ = 0;
};

/** Caps an underlying source at a fixed request count. */
class CappedSource : public RequestSource
{
  public:
    CappedSource(RequestSource &source, std::size_t maxRequests)
        : source_(source), remaining_(maxRequests)
    {
    }

    bool
    next(ServeRequest &out) override
    {
        if (remaining_ == 0 || !source_.next(out))
            return false;
        --remaining_;
        return true;
    }

  private:
    RequestSource &source_;
    std::size_t remaining_;
};

/**
 * Lazy, O(tenants)-memory generator of the exact trace
 * TrafficGen::trace() materializes: one independent seeded stream
 * per tenant (each holding a single pending request), k-way merged
 * by (arrival, tenant index). Per-tenant arrivals are strictly
 * increasing integers, so the merge reproduces the sorted vector
 * bit-identically — trace() is in fact implemented as a drain of
 * this stream.
 */
class TraceStream : public RequestSource
{
  public:
    /** Validates every spec (TrafficGen::validateSpec). */
    TraceStream(u64 seed, const std::vector<TenantSpec> &tenants,
                WallNs horizon);

    bool next(ServeRequest &out) override;

  private:
    struct TenantState
    {
        Rng rng;
        double at = 0.0;
        double ratePerNs = 0.0;
        bool bursty = false;
        double onNs = 0.0;
        double periodNs = 0.0;
        WallNs arriveNs = 0;
        WallNs departNs = 0;
        std::size_t inputRows = 0;
        i64 inputLo = 0;
        i64 inputHi = 0;
        ServeRequest pending;
        bool hasPending = false;
    };

    /** Draw tenant t's next in-window request (or exhaust it). */
    void advance(std::size_t t);

    std::vector<TenantState> streams_;
    WallNs horizon_ = 0;
};

/** Seeded generator of weights, inputs, and arrival traces. */
class TrafficGen
{
  public:
    explicit TrafficGen(u64 seed = 1) : seed_(seed) {}

    /**
     * Validate a tenant spec: a non-positive QoS `weight` or
     * open-loop `ratePerKns`, a one-sided BurstSpec (exactly one
     * of onNs/offNs zero), or a departNs at or before arriveNs,
     * throws std::invalid_argument. buildTenants() and trace()
     * both call this, so a bad spec fails at the serving front
     * door rather than deep in a sweep.
     */
    static void validateSpec(const TenantSpec &spec);

    /** Weight element precision of a kind. */
    static int elementBits(WorkloadKind kind);
    /** Analog operating point of a kind. */
    static int bitsPerCell(WorkloadKind kind);
    /** Input precision of a kind. */
    static int inputBits(WorkloadKind kind);
    /** Input vector length of a kind. */
    static std::size_t inputRows(WorkloadKind kind);

    /**
     * The weight-identity key of a tenant whose spec left modelKey at
     * 0 (a private matrix): unique per tenant index, never equal to a
     * user-chosen shared key by convention. buildTenants() uses this;
     * exposed so demos/tests can re-derive a tenant's weights.
     */
    static u64
    privateModelKey(std::size_t tenant_index)
    {
        return 0x5EED0000ULL + tenant_index;
    }

    /**
     * The weight matrix of one single-MVM tenant: AES is the fixed
     * GF(2) MixColumns matrix; the others are random but
     * deterministic in (seed, kind, key) — same key, same weights.
     * Fatal for inference kinds (use cnnInferNet / llmInferNet).
     */
    MatrixI weights(WorkloadKind kind, u64 key) const;

    /** The TinyCnn a CnnInfer tenant serves, deterministic in
     *  (seed, key) — same key, same network. */
    cnn::TinyCnn cnnInferNet(u64 key) const;

    /** The small encoder an LlmInfer tenant serves, deterministic in
     *  (seed, key). */
    llm::Encoder llmInferNet(u64 key) const;

    /** Geometry of the LlmInfer encoder (seqLen x dModel tokens). */
    static llm::EncoderConfig llmInferConfig();

    /**
     * Open-loop arrival trace over [0, horizon) wall-clock
     * nanoseconds: per-tenant Poisson arrivals at spec.ratePerKns,
     * gated to each tenant's [arriveNs, departNs) window, merged
     * and sorted by arrival (ties keep tenant order). Each request
     * carries a random input for its tenant's kind. Tenant streams
     * are independent: adding a tenant, or changing any window,
     * never perturbs another tenant's arrivals or inputs — and a
     * tenant's own surviving arrivals are unchanged by its window.
     */
    std::vector<ServeRequest>
    trace(const std::vector<TenantSpec> &tenants,
          WallNs horizon) const;

  private:
    u64 seed_;
};

} // namespace serve
} // namespace darth

#endif // DARTH_SERVE_TRAFFICGEN_H
