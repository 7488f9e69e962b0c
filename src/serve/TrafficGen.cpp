#include "serve/TrafficGen.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "apps/aes/MixColumnsGf2.h"
#include "common/Logging.h"

namespace darth
{
namespace serve
{

namespace
{

/** Mix a stream label into the generator seed (splittable streams). */
u64
mixSeed(u64 seed, u64 salt, u64 label)
{
    u64 z = seed ^ (salt * 0x9e3779b97f4a7c15ULL) ^
            (label * 0xbf58476d1ce4e5b9ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

struct Shape
{
    std::size_t rows;
    std::size_t cols;
    int elementBits;
    int bitsPerCell;
    int inputBits;
    i64 weightLo, weightHi;
    i64 inputLo, inputHi;
};

Shape
shapeOf(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Aes:
        return {32, 32, 1, 1, 1, 0, 1, 0, 1};
      case WorkloadKind::Cnn:
        return {72, 16, 8, 2, 4, -127, 127, -8, 7};
      case WorkloadKind::Llm:
        return {64, 64, 8, 2, 4, -127, 127, -8, 7};
      case WorkloadKind::Micro:
        return {8, 8, 1, 1, 1, 0, 1, 0, 1};
      case WorkloadKind::CnnInfer:
        // rows = flat 8x8 single-channel input; cols = logits.
        return {64, 4, 8, 2, 8, -8, 7, -8, 7};
      case WorkloadKind::LlmInfer:
        // rows = flat seqLen x dModel token block; cols = dModel.
        // 12-bit inputs: the encoder's add-norm activations exceed
        // int8 (see ChipPool::llmMapper).
        return {4 * 32, 32, 8, 2, 12, -8, 7, -8, 7};
      case WorkloadKind::GfWide:
        return {32, 256, 1, 1, 1, 0, 1, 0, 1};
    }
    darth_panic("TrafficGen: unknown workload kind");
}

} // namespace

bool
isInferenceKind(WorkloadKind kind)
{
    return kind == WorkloadKind::CnnInfer ||
           kind == WorkloadKind::LlmInfer;
}

const char *
workloadKindName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Aes:
        return "aes";
      case WorkloadKind::Cnn:
        return "cnn";
      case WorkloadKind::Llm:
        return "llm";
      case WorkloadKind::Micro:
        return "micro";
      case WorkloadKind::CnnInfer:
        return "cnn_infer";
      case WorkloadKind::LlmInfer:
        return "llm_infer";
      case WorkloadKind::GfWide:
        return "gf_wide";
    }
    darth_panic("workloadKindName: unknown workload kind");
}

void
TrafficGen::validateSpec(const TenantSpec &spec)
{
    // Written so that NaN fails every test: a journal carries these
    // as raw bits, so replay reaches here with whatever was recorded.
    if (!(spec.weight > 0.0 && std::isfinite(spec.weight)))
        throw std::invalid_argument(
            "TrafficGen: tenant '" + spec.name +
            "' has QoS weight " + std::to_string(spec.weight) +
            "; it must be positive and finite");
    if (!(spec.ratePerKns > 0.0 && std::isfinite(spec.ratePerKns)))
        throw std::invalid_argument(
            "TrafficGen: tenant '" + spec.name +
            "' has arrival rate " + std::to_string(spec.ratePerKns) +
            "; it must be positive and finite");
    if (spec.burst.enabled() &&
        (spec.burst.onNs == 0 || spec.burst.offNs == 0))
        throw std::invalid_argument(
            "TrafficGen: tenant '" + spec.name +
            "' has a one-sided BurstSpec (on=" +
            std::to_string(spec.burst.onNs) + ", off=" +
            std::to_string(spec.burst.offNs) +
            "); onNs and offNs must both be positive, or "
            "both zero to disable bursting");
    if (spec.departNs != 0 && spec.departNs <= spec.arriveNs)
        throw std::invalid_argument(
            "TrafficGen: tenant '" + spec.name +
            "' departs at " + std::to_string(spec.departNs) +
            " ns, at or before its arrival at " +
            std::to_string(spec.arriveNs) +
            " ns; departNs must exceed arriveNs (or be 0 to never "
            "depart)");
    if (spec.slo.enabled() && !(spec.slo.targetAvailability > 0.0 &&
                                spec.slo.targetAvailability < 1.0))
        throw std::invalid_argument(
            "TrafficGen: tenant '" + spec.name +
            "' has SLO availability target " +
            std::to_string(spec.slo.targetAvailability) +
            " outside (0, 1); the error budget (its complement) "
            "must be a positive fraction");
}

int
TrafficGen::elementBits(WorkloadKind kind)
{
    return shapeOf(kind).elementBits;
}

int
TrafficGen::bitsPerCell(WorkloadKind kind)
{
    return shapeOf(kind).bitsPerCell;
}

int
TrafficGen::inputBits(WorkloadKind kind)
{
    return shapeOf(kind).inputBits;
}

std::size_t
TrafficGen::inputRows(WorkloadKind kind)
{
    return shapeOf(kind).rows;
}

MatrixI
TrafficGen::weights(WorkloadKind kind, u64 key) const
{
    if (isInferenceKind(kind))
        darth_fatal("TrafficGen::weights: ", workloadKindName(kind),
                    " is an inference kind; use cnnInferNet / "
                    "llmInferNet");
    if (kind == WorkloadKind::Aes)
        return aes::mixColumnsGf2Matrix();
    const Shape shape = shapeOf(kind);
    Rng rng(mixSeed(seed_, /*salt=*/0xA11, static_cast<u64>(kind) ^
                                               (key << 8)));
    MatrixI m(shape.rows, shape.cols);
    for (std::size_t r = 0; r < shape.rows; ++r)
        for (std::size_t c = 0; c < shape.cols; ++c)
            m(r, c) = rng.uniformInt(shape.weightLo, shape.weightHi);
    return m;
}

cnn::TinyCnn
TrafficGen::cnnInferNet(u64 key) const
{
    return cnn::TinyCnn(
        mixSeed(seed_, /*salt=*/0xC221,
                static_cast<u64>(WorkloadKind::CnnInfer) ^ (key << 8)),
        /*in_hw=*/8);
}

llm::EncoderConfig
TrafficGen::llmInferConfig()
{
    llm::EncoderConfig cfg;
    cfg.seqLen = 4;
    cfg.dModel = 32;
    cfg.numHeads = 2;
    cfg.dFf = 64;
    return cfg;
}

llm::Encoder
TrafficGen::llmInferNet(u64 key) const
{
    return llm::Encoder(
        llmInferConfig(),
        mixSeed(seed_, /*salt=*/0x11F3,
                static_cast<u64>(WorkloadKind::LlmInfer) ^ (key << 8)));
}

TraceStream::TraceStream(u64 seed,
                         const std::vector<TenantSpec> &tenants,
                         WallNs horizon)
    : horizon_(horizon)
{
    streams_.reserve(tenants.size());
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        const TenantSpec &spec = tenants[t];
        TrafficGen::validateSpec(spec);
        const Shape shape = shapeOf(spec.kind);
        TenantState s;
        // One stream per tenant, salted by the tenant index: adding
        // or reordering other tenants cannot perturb this stream.
        s.rng.reseed(mixSeed(seed, /*salt=*/0x7247, t));
        s.ratePerNs = spec.ratePerKns / 1000.0;
        s.bursty = spec.burst.enabled();
        s.onNs = static_cast<double>(spec.burst.onNs);
        s.periodNs = s.onNs + static_cast<double>(spec.burst.offNs);
        // The tenant's active window. The stream is drawn exactly as
        // if the tenant were permanent and then *gated*: arrivals
        // outside [arriveNs, departNs) are dropped, the draws (both
        // timing and input values) are unchanged, so the surviving
        // requests are bit-identical to the permanent tenant's and
        // no other tenant's stream can be perturbed by the window.
        s.arriveNs = spec.arriveNs;
        s.departNs = spec.departNs == 0 ? horizon : spec.departNs;
        s.inputRows = shape.rows;
        s.inputLo = shape.inputLo;
        s.inputHi = shape.inputHi;
        streams_.push_back(std::move(s));
    }
    for (std::size_t t = 0; t < streams_.size(); ++t)
        advance(t);
}

void
TraceStream::advance(std::size_t t)
{
    TenantState &s = streams_[t];
    s.hasPending = false;
    for (;;) {
        // Exponential inter-arrival; at least one nanosecond apart
        // so a tenant's own requests have distinct arrivals.
        double u = s.rng.uniform();
        if (u <= 1e-12)
            u = 1e-12;
        s.at += std::max(1.0, -std::log(u) / s.ratePerNs);
        double wall = s.at;
        // Bursty tenants draw arrivals on an *on-time* clock (the
        // Poisson process runs only while the tenant is on) and map
        // each arrival into wall time by inserting the off-phases:
        // on-time T lands in burst period floor(T/on) at offset
        // T mod on. Disabled bursts keep the wall clock directly,
        // bit-identical to the unmodulated generator.
        if (s.bursty) {
            double k = std::floor(s.at / s.onNs);
            double within = s.at - k * s.onNs;
            if (within >= s.onNs) {   // float edge of the division
                k += 1.0;
                within = 0.0;
            }
            wall = k * s.periodNs + within;
        }
        if (wall >= static_cast<double>(horizon_))
            return;
        ServeRequest req;
        req.arrival = static_cast<WallNs>(wall);
        req.tenant = t;
        req.input.resize(s.inputRows);
        for (auto &v : req.input)
            v = s.rng.uniformInt(s.inputLo, s.inputHi);
        if (req.arrival < s.arriveNs || req.arrival >= s.departNs)
            continue;
        s.pending = std::move(req);
        s.hasPending = true;
        return;
    }
}

bool
TraceStream::next(ServeRequest &out)
{
    // K-way merge by (arrival, tenant index). Per-tenant arrivals
    // are strictly increasing and the scan prefers the lowest tenant
    // index on ties, so the emitted order equals the materialized
    // trace's stable sort by arrival.
    std::size_t best = streams_.size();
    for (std::size_t t = 0; t < streams_.size(); ++t) {
        if (!streams_[t].hasPending)
            continue;
        if (best == streams_.size() ||
            streams_[t].pending.arrival <
                streams_[best].pending.arrival)
            best = t;
    }
    if (best == streams_.size())
        return false;
    out = std::move(streams_[best].pending);
    advance(best);
    return true;
}

std::vector<ServeRequest>
TrafficGen::trace(const std::vector<TenantSpec> &tenants,
                  WallNs horizon) const
{
    TraceStream stream(seed_, tenants, horizon);
    std::vector<ServeRequest> merged;
    ServeRequest req;
    while (stream.next(req))
        merged.push_back(std::move(req));
    return merged;
}

} // namespace serve
} // namespace darth
