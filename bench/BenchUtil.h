/**
 * @file
 * Shared helpers for paper_bench, the system benches and perfbench.
 *
 * DarthSystem derives chip-level throughput and energy for the three
 * workloads from the simulator itself: AES runs end-to-end through
 * AesPum (functional + timed), CNN/LLM use the KernelModel oracle
 * (each distinct MVM shape measured once on a real HCT). Chip scaling
 * multiplies per-tile rates by the iso-area tile count (Table 3),
 * which is exact for the independent work units evaluated.
 */

#ifndef DARTH_BENCH_BENCHUTIL_H
#define DARTH_BENCH_BENCHUTIL_H

#include <cstdio>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "apps/aes/AesPum.h"
#include "apps/cnn/CnnMapper.h"
#include "apps/cnn/Resnet20.h"
#include "apps/llm/Encoder.h"
#include "apps/llm/LlmMapper.h"
#include "baselines/Systems.h"
#include "model/Params.h"
#include "runtime/Runtime.h"

namespace darth
{
namespace bench
{

/** Clock in Hz (Table 2: 1 GHz). */
constexpr double kHz = 1e9;

/** Per-application throughput/energy of one system. */
struct AppNumbers
{
    double throughput = 0.0;     //!< work items per second
    double joulesPerItem = 0.0;
};

/** AES state bytes per pipeline batch: 64 elements / 16 B blocks. */
constexpr double kAesBlocksPerPipelineBatch = 4.0;

/** Active pipelines per 64-pipeline DCE cluster (§6: "two pipelines
 *  active per cluster to stay within thermal limits"). */
constexpr double kDigitalActivePipes = 2.0;

/** Medium chip used by the scheduler/MVM benches (32x32 shapes). */
inline runtime::ChipConfig
mediumMvmChip(std::size_t num_hcts)
{
    runtime::ChipConfig cfg;
    cfg.hct.dce.numPipelines = 2;
    cfg.hct.dce.pipeline.depth = 32;
    cfg.hct.dce.pipeline.width = 32;
    cfg.hct.dce.pipeline.numRegs = 8;
    cfg.hct.ace.numArrays = 16;
    cfg.hct.ace.arrayRows = 64;
    cfg.hct.ace.arrayCols = 32;
    cfg.numHcts = num_hcts;
    return cfg;
}

/** Full HCT configuration for an ADC kind, with AES early-exit. */
inline hct::HctConfig
paperHct(analog::AdcKind adc, bool aes_ramp_early = false)
{
    hct::HctConfig cfg = hct::HctConfig::paperDefault(adc);
    if (adc == analog::AdcKind::Ramp && aes_ramp_early)
        cfg.ace.rampStates = 4;
    return cfg;
}

/** Iso-area tile count for an ADC kind (Table 3 derivation). */
inline std::size_t
isoHcts(analog::AdcKind adc)
{
    model::ChipModel chip;
    chip.adc = adc;
    return chip.hctCount();
}

/** DARTH-PUM chip-level numbers, derived from the simulator. */
class DarthSystem
{
  public:
    explicit DarthSystem(analog::AdcKind adc = analog::AdcKind::Sar)
        : adc_(adc), hcts_(isoHcts(adc))
    {}

    analog::AdcKind adc() const { return adc_; }
    std::size_t hctCount() const { return hcts_; }

    /** AES: runs blocks through AesPum and scales by streams x HCTs. */
    AppNumbers
    aes(aes::AesKernelBreakdown *breakdown = nullptr) const
    {
        hct::HctConfig cfg = paperHct(adc_, /*aes_ramp_early=*/true);
        aes::AesPum engine(cfg);
        const std::vector<u8> key = {0x2b, 0x7e, 0x15, 0x16, 0x28,
                                     0xae, 0xd2, 0xa6, 0xab, 0xf7,
                                     0x15, 0x88, 0x09, 0xcf, 0x4f,
                                     0x3c};
        engine.initArrays(key);
        const PicoJoule init_energy = engine.tally().totalEnergy();
        engine.encrypt(aes::Block{});
        if (breakdown != nullptr)
            *breakdown = engine.breakdown();
        const Cycle latency = engine.lastLatency();
        const PicoJoule block_energy =
            engine.tally().totalEnergy() - init_energy;
        const Cycle adc_occ = engine.tally().get("ace.adc").cycles;

        // Streams per HCT share the table pipeline and the ADCs; the
        // per-HCT rate is the tighter of the pipeline-latency bound
        // (each stream turns a 4-block batch around per `latency`)
        // and the ADC-occupancy bound.
        // Thermal envelope: like the RACER chip (§6), only ~2 of the
        // 64 DCE pipelines can run flat-out, capping concurrent AES
        // streams per tile.
        const double streams = std::min(
            static_cast<double>(aes::AesPum::streamsPerHct(cfg)),
            kDigitalActivePipes);
        const double pipe_rate = streams * kAesBlocksPerPipelineBatch /
                                 static_cast<double>(latency);
        const double adc_rate =
            kAesBlocksPerPipelineBatch /
            static_cast<double>(adc_occ);
        const double per_hct = std::min(pipe_rate, adc_rate);

        AppNumbers out;
        out.throughput = per_hct * static_cast<double>(hcts_) * kHz;
        model::PowerModel power;
        out.joulesPerItem =
            (block_energy / kAesBlocksPerPipelineBatch +
             power.frontEndEnergyPJ(latency) /
                 kAesBlocksPerPipelineBatch) *
            1e-12;
        return out;
    }

    /** ResNet-20 via the CNN mapper. */
    AppNumbers
    cnn(const std::vector<darth::cnn::LayerStats> &layers) const
    {
        darth::cnn::CnnMapper mapper(paperHct(adc_));
        const auto cost = mapper.networkCost(layers);
        const double copies =
            std::max<double>(1.0, static_cast<double>(hcts_) /
                                      static_cast<double>(
                                          std::max<std::size_t>(
                                              cost.hctsUsed, 1)));
        // Per-layer distribution (§5.1): successive inferences
        // pipeline through the layers, so throughput is bound by the
        // slowest layer, not the serialized latency.
        AppNumbers out;
        out.throughput =
            copies /
            (static_cast<double>(cost.maxLayerLatency) / kHz);
        model::PowerModel power;
        out.joulesPerItem =
            (cost.energy + power.frontEndEnergyPJ(cost.latency)) *
            1e-12;
        return out;
    }

    /** LLM encoder (BERT-base geometry) via the LLM mapper. */
    AppNumbers
    llm(const darth::llm::EncoderStats &stats,
        double *non_mvm_fraction = nullptr) const
    {
        darth::llm::LlmMapper mapper(paperHct(adc_));
        const auto cost = mapper.hybridCost(stats);
        if (non_mvm_fraction != nullptr)
            *non_mvm_fraction = cost.nonMvmFraction;
        const double copies =
            std::max<double>(1.0, static_cast<double>(hcts_) /
                                      static_cast<double>(
                                          std::max<std::size_t>(
                                              cost.hctsUsed, 1)));
        AppNumbers out;
        out.throughput = copies /
                         (static_cast<double>(cost.latency) / kHz);
        model::PowerModel power;
        out.joulesPerItem =
            (cost.energy + power.frontEndEnergyPJ(cost.latency)) *
            1e-12;
        return out;
    }

  private:
    analog::AdcKind adc_;
    std::size_t hcts_;
};

/**
 * Peak resident set size of this process in MiB (getrusage
 * ru_maxrss; kilobytes on Linux). Host-side observability only —
 * like wall_ms it describes the machine, never the simulated
 * system, and bench_diff.py treats it as informational. Note the
 * counter is monotone over the process lifetime, so comparative
 * cells must run their smaller configuration first.
 */
inline double
peakRssMb()
{
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** One fatal self-check of a JSON bench. */
struct Check
{
    std::string name;
    double value = 0.0;
    bool ok = false;
};

/**
 * Print the closing `checks` list and `ok` field of a bench's JSON
 * document. Returns the process exit code: 0 when every check passed.
 */
inline int
printChecks(const std::vector<Check> &checks)
{
    std::printf("  \"checks\": [\n");
    bool all_ok = true;
    for (std::size_t i = 0; i < checks.size(); ++i) {
        all_ok = all_ok && checks[i].ok;
        std::printf("    {\"name\": \"%s\", \"value\": %.3f, "
                    "\"ok\": %s}%s\n",
                    checks[i].name.c_str(), checks[i].value,
                    checks[i].ok ? "true" : "false",
                    i + 1 == checks.size() ? "" : ",");
    }
    std::printf("  ],\n");
    std::printf("  \"ok\": %s\n}\n", all_ok ? "true" : "false");
    return all_ok ? 0 : 1;
}

} // namespace bench
} // namespace darth

#endif // DARTH_BENCH_BENCHUTIL_H
