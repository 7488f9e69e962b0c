/**
 * @file
 * The paper ledger: every number this reproduction reports for the
 * source paper's evaluation (Tables 2-3, Figs. 7, 11, 13-18, §7.5 and
 * the HCT ablation) as JSON cells {figure, row, system, measured,
 * paper?, note?}; docs/benchmarks.md gives the schema. Deterministic,
 * no arguments, checked in as BENCH_paper.json; exits non-zero when
 * the Fig. 13 scheduler cross-check fails.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "BenchUtil.h"
#include "analog/Compensation.h"
#include "analog/Crossbar.h"
#include "apps/aes/MixColumnsGf2.h"
#include "common/Logging.h"
#include "common/Random.h"
#include "common/Stats.h"
#include "digital/Synthesis.h"
#include "runtime/Runtime.h"

namespace
{

using namespace darth;
using namespace darth::bench;

/** "No paper value" marker of a cell. */
constexpr double kNone = std::numeric_limits<double>::quiet_NaN();

template <typename T>
std::string
format(const char *fmt, T value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, value);
    return buf;
}

/** The JSON ledger: cells keyed by figure/row/system, plus checks. */
class Ledger
{
  public:
    void
    add(const std::string &figure, const std::string &row,
        const std::string &system, double measured, double paper = kNone,
        const std::string &note = "")
    {
        // tools/bench_diff.py matches cells by this triple.
        if (!keys_.insert(figure + '\n' + row + '\n' + system).second)
            darth_panic("paper_bench: duplicate cell ", figure, " / ", row,
                        " / ", system);
        cells_ += (cells_.empty() ? "    " : ",\n    ") +
                  std::string("{\"figure\": \"") + figure +
                  "\", \"row\": \"" + row + "\", \"system\": \"" + system +
                  "\", \"measured\": " + format("%.10g", measured);
        if (!std::isnan(paper))
            cells_ += ", \"paper\": " + format("%.10g", paper);
        if (!note.empty())
            cells_ += ", \"note\": \"" + note + "\"";
        cells_ += "}";
    }

    /** Print the document; returns the process exit code. */
    int
    print() const
    {
        std::printf("{\n  \"bench\": \"paper_bench\",\n  \"cells\": [\n%s"
                    "\n  ],\n",
                    cells_.c_str());
        return printChecks(checks);
    }

    std::vector<Check> checks;

  private:
    std::string cells_;
    std::set<std::string> keys_;
};

/** The evaluated workloads and systems (§6). */
struct Workloads
{
    cnn::Resnet20 resnet{42};
    std::vector<cnn::LayerStats> layers = resnet.layerStats();
    llm::EncoderStats encoder =
        llm::Encoder(llm::EncoderConfig::bertBase(), 7).stats();
};

/** DigitalPUM's AES: per-pipeline cycles of one 4-block batch on the
 *  DCE kernels (SubBytes/ShiftRows loads, AddRoundKey XORs, and the
 *  Boolean MixColumns network of 9 rounds x 4 columns x 88 gate groups
 *  x 5 ops) at Table 3's 8 pJ per in-array Boolean op cycle. */
constexpr Cycle kDigitalAesMixColumnsCycles = 9 * 4 * 88 * 5;
constexpr Cycle kDigitalAesBatchCycles =
    10 * (192 + 240) + 11 * 55 + kDigitalAesMixColumnsCycles;
constexpr double kDigitalAesPjPerCycle = 8.0;

/** DigitalPUM: an iso-area RACER-style chip of DCE-like clusters (no
 *  ACE); thermal limits keep kDigitalActivePipes of each cluster's 64
 *  pipelines live, as the mappers' digital costs already assume. */
struct DigitalPumSystem
{
    std::size_t clusters = [] {
        const model::AreaModel area;
        return static_cast<std::size_t>(
            model::kIsoAreaBudget /
            (area.dceArea() + area.frontEnd / area.hctsPerFrontEnd));
    }();

    AppNumbers
    aes() const
    {
        return {static_cast<double>(clusters) * kDigitalActivePipes *
                    kAesBlocksPerPipelineBatch /
                    static_cast<double>(kDigitalAesBatchCycles) * kHz,
                static_cast<double>(kDigitalAesBatchCycles) *
                    kDigitalAesPjPerCycle / kAesBlocksPerPipelineBatch *
                    1e-12};
    }

    AppNumbers
    cnn(const std::vector<cnn::LayerStats> &layers) const
    {
        const auto cost = cnn::CnnMapper(paperHct(analog::AdcKind::Sar))
                              .digitalNetworkCost(layers);
        return {static_cast<double>(clusters) /
                    (static_cast<double>(cost.maxLayerLatency) / kHz),
                cost.energy * 1e-12};
    }

    AppNumbers
    llm(const llm::EncoderStats &stats) const
    {
        const auto cost = llm::LlmMapper(paperHct(analog::AdcKind::Sar))
                              .digitalCost(stats);
        return {static_cast<double>(clusters) /
                    (static_cast<double>(cost.latency) / kHz),
                cost.energy * 1e-12};
    }
};

struct Models
{
    baselines::BaselineSystem baseline{baselines::CpuParams::i7_13700(),
                                       baselines::AnalogAccelParams{},
                                       baselines::LinkParams{}};
    baselines::AppAccelModels appAccel{baselines::CpuParams::i7_13700(),
                                       baselines::AnalogAccelParams{}};
    baselines::GpuModel gpu{baselines::GpuParams{}};
    DigitalPumSystem digital;
    DarthSystem darth{analog::AdcKind::Sar};
    DarthSystem darthRamp{analog::AdcKind::Ramp};
};

enum App : std::size_t { kAes, kCnn, kLlm, kNumApps };
enum Sys : std::size_t {
    kBaseline, kAppAccel, kGpu, kDigitalPum, kDarth, kDarthRamp, kNumSys
};
constexpr const char *kSysNames[kNumSys] = {
    "Baseline",   "AppAccel",  "GPU",
    "DigitalPUM", "DARTH-PUM", "DARTH-PUM ramp"};

/** Each system's per-app throughput and joules per item. */
struct SystemTable
{
    AppNumbers at[kNumSys][kNumApps];
    aes::AesKernelBreakdown darthAes;   //!< DARTH-PUM's AES (Fig. 14)
};

SystemTable
measureSystems(const Models &m, const Workloads &w)
{
    SystemTable t;
    // The simulated systems share cnn()/llm(), the analytic models one
    // per-app interface.
    auto measure = [&](Sys s, const auto &sys, AppNumbers aes) {
        t.at[s][kAes] = aes;
        t.at[s][kCnn] = sys.cnn(w.layers);
        t.at[s][kLlm] = sys.llm(w.encoder);
    };
    auto analytic = [&](Sys s, const auto &sys) {
        t.at[s][kAes] = {sys.aesBlocksPerSec(), sys.aesJoulesPerBlock()};
        t.at[s][kCnn] = {sys.cnnInfersPerSec(w.layers),
                         sys.cnnJoulesPerInfer(w.layers)};
        t.at[s][kLlm] = {sys.llmEncodesPerSec(w.encoder),
                         sys.llmJoulesPerEncode(w.encoder)};
    };
    analytic(kBaseline, m.baseline);
    analytic(kAppAccel, m.appAccel);
    analytic(kGpu, m.gpu);
    measure(kDigitalPum, m.digital, m.digital.aes());
    measure(kDarth, m.darth, m.darth.aes(&t.darthAes));
    measure(kDarthRamp, m.darthRamp, m.darthRamp.aes());
    return t;
}

/** Per-app ratios of one system to a reference, then their geomean. */
using Ratios = std::array<double, kNumApps + 1>;
constexpr Ratios kNoPaper = {kNone, kNone, kNone, kNone};
enum Metric { kSpeedup, kSavings };

/** `sys` over `ref`: throughput (`sys` scaled by `scale`), or energy
 *  savings (`ref`'s joules per item over `sys`'s). */
Ratios
ratios(const SystemTable &t, Metric metric, Sys sys, Sys ref,
       double scale = 1.0)
{
    Ratios r;
    for (std::size_t a = 0; a < kNumApps; ++a)
        r[a] = metric == kSpeedup ? t.at[sys][a].throughput * scale /
                                        t.at[ref][a].throughput
                                  : t.at[ref][a].joulesPerItem /
                                        t.at[sys][a].joulesPerItem;
    r[kNumApps] = geoMean({r[kAes], r[kCnn], r[kLlm]});
    return r;
}

/** One column of a normalized figure; `rows` = kNumApps drops the
 *  GeoMean row, and `note` goes on the last row. */
void
addRatios(Ledger &out, const char *figure, Sys sys, const Ratios &r,
          const Ratios &paper = kNoPaper, std::size_t rows = kNumApps + 1,
          const std::string &note = "")
{
    const char *names[] = {"AES", "ResNet-20", "LLMEnc", "GeoMean"};
    for (std::size_t i = 0; i < rows; ++i)
        out.add(figure, names[i], kSysNames[sys], r[i], paper[i],
                i + 1 == rows ? note : "");
}

/** A Table 2/3 line: the SAR chip's value, and the ramp chip's where the
 *  ADC kind changes it. */
struct Line
{
    const char *row;
    double sar, ramp = kNone;
    double paperSar = kNone, paperRamp = kNone;
    const char *note = "";
};

void
addLines(Ledger &out, const char *figure, const std::vector<Line> &lines)
{
    for (const Line &l : lines) {
        out.add(figure, l.row, kSysNames[kDarth], l.sar, l.paperSar,
                l.note);
        if (!std::isnan(l.ramp))
            out.add(figure, l.row, kSysNames[kDarthRamp], l.ramp,
                    l.paperRamp);
    }
}

void
table2(Ledger &out)
{
    const hct::HctConfig sar = paperHct(analog::AdcKind::Sar);
    const hct::HctConfig ramp = paperHct(analog::AdcKind::Ramp);
    model::ChipModel chip_sar;
    model::ChipModel chip_ramp;
    chip_ramp.adc = analog::AdcKind::Ramp;
    auto d = [](std::size_t v) { return static_cast<double>(v); };
    addLines(
        out, "Table 2",
        {{"DCE pipelines", d(sar.dce.numPipelines)},
         {"DCE pipeline depth (arrays)", d(sar.dce.pipeline.depth)},
         {"DCE array width", d(sar.dce.pipeline.width)},
         {"DCE array registers", d(sar.dce.pipeline.numRegs)},
         {"ACE arrays", d(sar.ace.numArrays)},
         {"ACE array rows", d(sar.ace.arrayRows)},
         {"ACE array columns", d(sar.ace.arrayCols)},
         {"ADCs per ACE", d(sar.ace.numAdcs), d(ramp.ace.numAdcs), 2,
          kNone,
          "paper: SAR converters per ACE; 8 conversion lanes honor the "
          "8 B/cycle rate-matched network of Section 4"},
         {"ADC latency (cycles)",
          d(analog::Adc(sar.ace.adc).conversionLatency(1, 1)),
          d(analog::Adc(ramp.ace.adc).conversionLatency(64, 1))},
         {"iso-area budget (cm^2)", model::kIsoAreaBudget / 1e8},
         {"HCTs", d(chip_sar.hctCount()), d(chip_ramp.hctCount()), 1860,
          1660},
         {"capacity (GB)", chip_sar.capacityBytes() / 1e9,
          chip_ramp.capacityBytes() / 1e9, 4.1, 3.7}});
}

void
table3(Ledger &out)
{
    using analog::AdcKind;
    const model::AreaModel a;
    const model::PowerModel p;
    const std::size_t sar_adcs = model::HctGeometry{}.numAdcs(AdcKind::Sar);
    const std::size_t ramp_adcs =
        model::HctGeometry{}.numAdcs(AdcKind::Ramp);
    auto d = [](std::size_t v) { return static_cast<double>(v); };
    addLines(
        out, "Table 3",
        {{"DCE area: ReRAM array (um^2)", a.dceReramArray},
         {"DCE area: pipeline control (um^2)", a.pipelineControl},
         {"DCE area: IO control (um^2)", a.ioCtrl},
         {"DCE area: decode and drive (um^2)", a.decodeAndDrive},
         {"DCE area: pipeline select (um^2)", a.pipelineSelect},
         {"DCE area: total (um^2)", a.dceArea()},
         {"ACE area: ReRAM array (um^2)", a.aceReramArray},
         {"ACE area: input buffers (um^2)", a.inputBuffers},
         {"ACE area: row periphery (um^2)", a.rowPeriphery},
         {"ACE area: ADC (um^2)", a.sarAdc, a.rampAdc},
         {"ACE area: sample and hold (um^2)", a.sampleHold},
         {"ACE area: ADCs", d(sar_adcs), d(ramp_adcs)},
         {"ACE area: total (um^2)", a.aceArea(AdcKind::Sar, sar_adcs),
          a.aceArea(AdcKind::Ramp, ramp_adcs)},
         {"HCT area: shift unit (um^2)", a.shiftUnit},
         {"HCT area: A/D arbiter (um^2)", a.adArbiter},
         {"HCT area: transpose unit (um^2)", a.transposeUnit},
         {"HCT area: instruction injection unit (um^2)",
          a.instrInjectionUnit},
         {"HCT area: front end (um^2)", a.frontEnd},
         {"HCT area: HCTs per front end", d(a.hctsPerFrontEnd)},
         {"HCT area: total (um^2)", a.hctArea(AdcKind::Sar, sar_adcs),
          a.hctArea(AdcKind::Ramp, ramp_adcs)},
         {"power: array Boolean op (pJ/cycle)", p.arrayBoolOpPJ},
         {"power: pipeline control (pJ/cycle)", p.pipelineCtrlPJ},
         {"power: row periphery (pJ/cycle)", p.rowPeripheryPJ},
         {"power: ADC (pJ/cycle)", p.sarAdcPJ, p.rampAdcPerCyclePJ},
         {"power: sample and hold (pJ/cycle)", p.sampleHoldPJ},
         {"power: front end (mW)", p.frontEndMw}});
}

/**
 * Fig. 7: iso-area AES-128 throughput of digital PUM (D), nine naive
 * hybrids (H-1..H-9) and analog PUM + CPU (A), normalized to D with
 * OSCAR. A naive hybrid (no shift units / IIU / rate matching) with d
 * digital and a analog arrays is bound by its starved side.
 */
void
fig07(Ledger &out)
{
    const char *fig = "Fig. 7";
    const struct
    {
        const char *name;
        double digital, analog;
    } configs[] = {
        {"H-1: D-768, A-128", 768, 128}, {"H-2: D-700, A-162", 700, 162},
        {"H-3: D-640, A-192", 640, 192}, {"H-4: D-512, A-256", 512, 256},
        {"H-5: D-375, A-324", 375, 324}, {"H-6: D-256, A-384", 256, 384},
        {"H-7: D-128, A-448", 128, 448}, {"H-8: D-64, A-480", 64, 480},
        {"H-9: D-32, A-496", 32, 496},
    };
    // Per-block digital cycles per array group: 10 rounds of SubBytes
    // loads + ShiftRows gathers (3 cycles/element) per 4-block batch +
    // 11 8-bit AddRoundKey XORs; and MixColumns, 9 rounds x 4 columns
    // x ~88 gate groups of XORs + 2 copies, calibrated so the ideal
    // family yields the paper's ~2.1x pure-digital gain.
    struct BlockCosts
    {
        double nonMixColumns, mixColumns;
    };
    auto costs = [](digital::LogicFamilyKind family) {
        const double xor_ops = static_cast<double>(
            digital::synthesizeMacro(digital::MacroKind::Xor,
                                     digital::LogicFamily(family))
                .opCount());
        return BlockCosts{10.0 * (48.0 + 48.0) + 11.0 * xor_ops * 8.0 / 4.0,
                          9.0 * 4.0 * 88.0 * (2.0 + xor_ops)};
    };
    // One 8-array-deep pipeline per stream.
    auto digital_rate = [](double d_arrays, const BlockCosts &c) {
        return d_arrays / 8.0 / (c.nonMixColumns + c.mixColumns);
    };
    // Digital side: every partial product pays Fig. 10a's serialized
    // write -> shift -> add (~1680 cycles/block, from the ablation);
    // analog side: 36 conversions x 32 lanes per block, un-rate-matched.
    auto hybrid_rate = [](double d_arrays, double a_arrays,
                          const BlockCosts &c) {
        return std::min(d_arrays / 8.0 / (c.nonMixColumns + 1680.0),
                        a_arrays / 16500.0);
    };
    const BlockCosts oscar = costs(digital::LogicFamilyKind::Oscar);
    const BlockCosts ideal = costs(digital::LogicFamilyKind::Ideal);
    const double d_oscar = digital_rate(896, oscar);

    out.add(fig, "D: Digital PUM", "OSCAR", d_oscar / d_oscar);
    out.add(fig, "D: Digital PUM", "Ideal",
            digital_rate(896, ideal) / d_oscar, 2.1,
            "paper: the ideal family's gain for pure digital");
    double best_oscar = 0.0, best_ideal = 0.0;
    const char *best_name = "";
    for (const auto &c : configs) {
        const double r_oscar = hybrid_rate(c.digital, c.analog, oscar);
        const double r_ideal = hybrid_rate(c.digital, c.analog, ideal);
        out.add(fig, c.name, "OSCAR", r_oscar / d_oscar);
        out.add(fig, c.name, "Ideal", r_ideal / d_oscar);
        if (r_oscar > best_oscar) {
            best_oscar = r_oscar;
            best_name = c.name;
        }
        best_ideal = std::max(best_ideal, r_ideal);
    }
    // Analog+CPU: free MixColumns (§3); the 4 GHz 8-core Arm CPU
    // bottlenecks on the non-MVM steps.
    constexpr double kPaperAnalogCpu = 1.18;
    const double a_rate = kPaperAnalogCpu * d_oscar;
    for (const char *family : {"OSCAR", "Ideal"})
        out.add(fig, "A: Analog+CPU", family, a_rate / d_oscar,
                kPaperAnalogCpu, "calibrated to the paper, not measured");
    out.add(fig, "peak hybrid", "OSCAR", best_oscar / d_oscar, 3.54,
            std::string("at ") + best_name + "; paper: at H-5");
    out.add(fig, "ideal family gain, best hybrid (%)", "Ideal",
            (best_ideal / best_oscar - 1.0) * 100.0, 3.2);
}

/** Analog minus exact output (ADC LSB) of every column of `m`,
 *  programmed on a 64-row crossbar, for `trials` random 0/1 inputs. */
std::vector<double>
crossbarErrors(const MatrixI &m, std::size_t cols, int cell_bits,
               const reram::NoiseModel &noise, u64 seed, Rng &rng,
               int trials)
{
    analog::Crossbar xb(64, cols, cell_bits, noise, seed);
    xb.programSigned(m);
    std::vector<double> errors;
    for (int t = 0; t < trials; ++t) {
        std::vector<int> bits(m.rows());
        std::vector<i64> x(m.rows());
        for (std::size_t i = 0; i < m.rows(); ++i) {
            bits[i] = rng.bernoulli(0.5);
            x[i] = bits[i];
        }
        const auto out = xb.mvmBitInput(bits);
        const auto exact = xb.referenceMvm(x);
        for (std::size_t c = 0; c < cols; ++c)
            errors.push_back(out[c] - static_cast<double>(exact[c]));
    }
    return errors;
}

/** Fig. 11 / §4.3: parasitic compensation. */
void
fig11(Ledger &out)
{
    using analog::Compensation;
    const char *fig = "Fig. 11";
    // (a) The figure's 3x3 walkthrough.
    MatrixI m01(3, 3);
    m01.setRow(0, {1, 0, 1});
    m01.setRow(1, {0, 1, 1});
    const std::vector<i64> x = {1, 1, 0};
    const i64 factor = Compensation::compensationFactor(x);
    const MatrixI remapped = Compensation::remapBinary(m01);
    out.add(fig, "compensation factor P, x = (1,1,0)", "DARTH-PUM",
            static_cast<double>(factor), kNone,
            "paper: 2 x 0.5 in normalized units");
    for (std::size_t c = 0; c < 3; ++c) {
        i64 y = 0, raw = 0;
        for (std::size_t r = 0; r < 3; ++r) {
            y += m01(r, c) * x[r];
            raw += remapped(r, c) * x[r];
        }
        const std::string row = format("col %zu", c);
        out.add(fig, row, "exact y", static_cast<double>(y));
        out.add(fig, row, "raw 2y-P", static_cast<double>(raw));
        out.add(fig, row, "recovered",
                static_cast<double>(Compensation::recover(raw, factor)));
    }

    // (b) Max IR-drop error for the AES MixColumns matrix and a
    // sign-balanced dense one, stored 0/1 and +-1 remapped.
    const MatrixI mixcols = aes::mixColumnsGf2Matrix();
    MatrixI balanced(32, 32);
    for (std::size_t r = 0; r < 32; ++r)
        for (std::size_t c = 0; c < 32; ++c)
            balanced(r, c) = static_cast<i64>((r + c) % 2);
    const struct
    {
        const char *name;
        MatrixI m;
        u64 seed;
        const char *note;
    } stored[] = {
        {"MixColumns 0/1 (max LSB error)", mixcols, 11, ""},
        {"MixColumns +-1 (max LSB error)",
         Compensation::remapBinary(mixcols), 11,
         "in this first-order IR model the +-1 remap cancels wire "
         "current only when the stored signs are balanced; the sparse "
         "MixColumns matrix relies on the compensation factor and low "
         "wire resistance instead"},
        {"balanced 0/1 (max LSB error)", balanced, 12, ""},
        {"balanced +-1 (max LSB error)", Compensation::remapBinary(balanced),
         12, ""},
    };
    const double wires[] = {2e-5, 5e-5, 1e-4, 2e-4};
    for (double wr : wires) {
        reram::NoiseModel noise;
        noise.wireResistance = wr;
        for (const auto &s : stored) {
            Rng rng(s.seed + 1);
            double worst = 0.0;
            for (double e : crossbarErrors(s.m, s.m.cols(), 1, noise,
                                           s.seed, rng, 20))
                worst = std::max(worst, std::abs(e));
            out.add(fig, format("R_wire %.0e", wr), s.name, worst, kNone,
                    wr == wires[3] ? s.note : "");
        }
    }
}

/** §7.5: without trained CIFAR-10 weights, top-1 *agreement* of noisy
 *  analog with exact ResNet-20 inference stands in for accuracy (the
 *  paper: noise leaves the outputs unchanged). Each corner's per-MVM
 *  sigma is the crossbar model's measured error per sqrt(K) terms. */
void
sec75(Ledger &out, const Workloads &w)
{
    const char *fig = "Sec. 7.5";
    constexpr int kInputs = 12;
    std::vector<cnn::Tensor> inputs;
    std::vector<std::size_t> exact;
    for (int i = 0; i < kInputs; ++i) {
        inputs.push_back(cnn::syntheticInput(2000 + i));
        exact.push_back(cnn::Resnet20::argmax(w.resnet.infer(inputs[i])));
    }
    auto agreement = [&](double sigma, u64 seed) {
        Rng noise_rng(seed);
        cnn::MvmNoise noise;
        noise.sigmaPerSqrtK = sigma;
        noise.rng = &noise_rng;
        int agree = 0;
        for (int i = 0; i < kInputs; ++i)
            agree += exact[i] == cnn::Resnet20::argmax(
                                     w.resnet.infer(inputs[i], noise));
        return 100.0 * agree / kInputs;
    };

    const struct
    {
        const char *name;
        double programSigma, readSigma, wireR;
    } corners[] = {
        {"ideal", 0.0, 0.0, 0.0},       {"mild", 0.01, 0.003, 1e-5},
        {"moderate", 0.03, 0.01, 5e-5}, {"harsh", 0.10, 0.03, 2e-4},
        {"extreme", 0.30, 0.10, 1e-3},
    };
    for (const auto &corner : corners) {
        reram::NoiseModel noise;
        noise.programSigma = corner.programSigma;
        noise.readSigma = corner.readSigma;
        noise.wireResistance = corner.wireR;
        const bool ideal = noise.ideal();
        double sigma = 0.0;
        if (!ideal) {
            Rng rng(78);
            MatrixI m(32, 64);
            for (std::size_t r = 0; r < 32; ++r)
                for (std::size_t c = 0; c < 64; ++c)
                    m(r, c) = rng.uniformInt(i64{-3}, i64{3});
            const std::vector<double> errors =
                crossbarErrors(m, 64, 2, noise, 77, rng, 30);
            double sq = 0.0;
            for (double e : errors)
                sq += e * e;
            sigma = std::sqrt(sq / static_cast<double>(errors.size())) /
                    std::sqrt(32.0);
        }
        out.add(fig, corner.name, "sigma/sqrt(K)", sigma);
        out.add(fig, corner.name, "top-1 agreement (%)",
                agreement(sigma, 1234), ideal ? kNone : 100.0,
                ideal ? "paper: 75.4% top-1 with noise, equal to the "
                        "noiseless Baseline, i.e. full agreement at the "
                        "device corners"
                      : "");
    }
    // Amplify the noise past the device corners to find where the int8
    // network breaks.
    for (double sigma : {1.0, 3.0, 10.0, 30.0})
        out.add(fig, format("stress sigma/sqrt(K) = %.1f", sigma),
                "top-1 agreement (%)", agreement(sigma, 4321));
}

/** A 32x32 3-bit matrix with entries in [-7, 7] drawn from `rng`,
 *  placed alone on a fresh chip. */
struct PlacedMatrix
{
    PlacedMatrix(const runtime::ChipConfig &cfg, Rng &rng) : chip(cfg)
    {
        MatrixI m(32, 32);
        for (std::size_t r = 0; r < 32; ++r)
            for (std::size_t c = 0; c < 32; ++c)
                m(r, c) = rng.uniformInt(i64{-7}, i64{7});
        handle = session.setMatrixBits(m, 3, 1);
    }

    runtime::Chip chip;
    runtime::Runtime rt{chip};
    runtime::Session session = rt.createSession();
    runtime::MatrixHandle handle;
};

/** Fig. 13: throughput over Baseline, and the scheduler cross-check. */
void
fig13(Ledger &out, const SystemTable &t)
{
    const char *fig = "Fig. 13";
    addRatios(out, fig, kDigitalPum,
              ratios(t, kSpeedup, kDigitalPum, kBaseline));
    addRatios(out, fig, kDarth, ratios(t, kSpeedup, kDarth, kBaseline),
              {59.4, 14.8, 40.8, 31.4});
    addRatios(out, fig, kAppAccel, ratios(t, kSpeedup, kAppAccel, kBaseline));
    const char *absolute[] = {"AES (blocks/s)", "ResNet-20 (inferences/s)",
                              "LLMEnc (encodes/s)"};
    for (std::size_t a = 0; a < kNumApps; ++a)
        out.add(fig, absolute[a], kSysNames[kDarth],
                t.at[kDarth][a].throughput);

    // Back-to-back MVMs on one placement must stream at the
    // KernelModel amortized rate the mapper throughputs assume.
    const runtime::ChipConfig chip_cfg = mediumMvmChip(1);
    Rng rng(17);
    PlacedMatrix placed(chip_cfg, rng);
    const std::vector<i64> x(32, 3);
    constexpr std::size_t kBatch = 16;
    std::vector<runtime::MvmFuture> futures;
    for (std::size_t i = 0; i < kBatch; ++i)
        futures.push_back(placed.session.submit(placed.handle, x, 4));
    const Cycle first_done = placed.session.wait(futures.front()).done;
    Cycle last_done = first_done;
    for (std::size_t i = 1; i < kBatch; ++i)
        last_done = placed.session.wait(futures[i]).done;
    const double measured = static_cast<double>(last_done - first_done) /
                            static_cast<double>(kBatch - 1);
    const double oracle = static_cast<double>(
        runtime::KernelModel(chip_cfg.hct)
            .mvm(runtime::MvmShape{32, 32, 3, 1, 4})
            .amortized);
    const std::string row = "32x32 MVM stream of 16 (cycles/MVM)";
    out.add(fig, row, "scheduler", measured);
    out.add(fig, row, "KernelModel oracle", oracle);
    out.checks.push_back(
        {"fig13_scheduler_matches_oracle", measured, measured == oracle});
}

/** Fig. 14: per-kernel AES latency as % of Baseline's total. */
void
fig14(Ledger &out, const Models &m, const SystemTable &t)
{
    const char *fig = "Fig. 14";
    // Cycles at 1 GHz = ns, per block of the 4-block batch. DigitalPUM
    // runs DARTH's SubBytes/ShiftRows/ARK kernels and the Boolean
    // MixColumns network, and moves only plaintext/ciphertext.
    const baselines::AesBreakdownNs base = m.baseline.aesBreakdownNs();
    const aes::AesKernelBreakdown &d = t.darthAes;
    const double batch = kAesBlocksPerPipelineBatch;
    const double base_total = base.total();
    const double darth_total = d.total() / batch;
    const double digital_mc = kDigitalAesMixColumnsCycles / batch;
    const char *kernels[] = {"DataMov",    "SubBytes",    "ShiftRows",
                             "MixColumns", "AddRoundKey", "total"};
    auto column = [&](Sys sys, const std::array<double, 6> &ns) {
        for (std::size_t k = 0; k < ns.size(); ++k)
            out.add(fig, kernels[k], kSysNames[sys],
                    ns[k] / base_total * 100.0);
    };
    column(kBaseline, {base.dataMovement, base.subBytes, base.shiftRows,
                       base.mixColumns, base.addRoundKey, base_total});
    std::array<double, 6> digital = {32.0 / batch, d.subBytes / batch,
                                     d.shiftRows / batch, digital_mc,
                                     d.addRoundKey / batch};
    digital[5] = std::accumulate(digital.begin(), digital.end() - 1, 0.0);
    column(kDigitalPum, digital);
    column(kDarth, {d.dataMovement / batch, d.subBytes / batch,
                    d.shiftRows / batch, d.mixColumns / batch,
                    d.addRoundKey / batch, darth_total});
    out.add(fig, "latency vs Baseline (%)", kSysNames[kDarth],
            (darth_total - base_total) / base_total * 100.0, -53.7);
    out.add(fig, "MixColumns, DigitalPUM / DARTH-PUM", kSysNames[kDarth],
            digital_mc / (d.mixColumns / batch), 11.5);
}

/** Fig. 15: per-layer ResNet-20 speedup over Baseline. */
void
fig15(Ledger &out, const Models &m, const Workloads &w)
{
    // Baseline runs one layer at a time; DARTH replicates the layer
    // across the iso-area tiles, DigitalPUM across its clusters; AppAccel
    // runs MVMs on SFU-reduced arrays and aux work on the SFUs.
    cnn::CnnMapper mapper(paperHct(analog::AdcKind::Sar));
    const double accel_macs_per_s =
        baselines::AnalogAccelModel(baselines::AnalogAccelParams{})
            .macsPerSec(8) *
        (1.0 - baselines::AppAccelModels::kSfuAreaFraction);
    const Sys systems[] = {kDigitalPum, kDarth, kAppAccel};
    std::vector<double> ratios[3];
    for (const auto &layer : w.layers) {
        const double base_rate = 1.0 / m.baseline.cnnLayerSeconds(layer);
        const auto darth_cost = mapper.layerCost(layer);
        const double darth_copies = std::max<double>(
            1.0, static_cast<double>(m.darth.hctCount()) /
                     static_cast<double>(
                         std::max<std::size_t>(darth_cost.hctsUsed, 1)));
        const double rates[3] = {
            static_cast<double>(m.digital.clusters) /
                (static_cast<double>(
                     mapper.digitalLayerCost(layer).latency) /
                 kHz),
            darth_copies / (static_cast<double>(darth_cost.latency) / kHz),
            1.0 / (static_cast<double>(layer.macs) / accel_macs_per_s +
                   static_cast<double>(layer.elementOps) / 2.0e12)};
        for (std::size_t s = 0; s < 3; ++s) {
            ratios[s].push_back(rates[s] / base_rate);
            out.add("Fig. 15", layer.name, kSysNames[systems[s]],
                    rates[s] / base_rate);
        }
    }
    for (std::size_t s = 0; s < 3; ++s)
        out.add("Fig. 15", "GeoMean", kSysNames[systems[s]],
                geoMean(ratios[s]), kNone,
                systems[s] == kDarth
                    ? "paper: DARTH-PUM within 26.2% of AppAccel "
                      "throughput for ResNet-20; inference latency -40% "
                      "vs Baseline"
                    : "");
}

/** Figs. 16-18: energy savings over Baseline, SAR vs ramp ADCs, and
 *  the iso-area comparison with an RTX 4090-class GPU. */
void
figs16to18(Ledger &out, const Models &m, const SystemTable &t)
{
    const Ratios digital = ratios(t, kSavings, kDigitalPum, kBaseline);
    const Ratios darth = ratios(t, kSavings, kDarth, kBaseline);
    addRatios(out, "Fig. 16", kDigitalPum, digital);
    addRatios(out, "Fig. 16", kDarth, darth, {39.6, 51.2, 110.7, 66.8});
    addRatios(out, "Fig. 16", kAppAccel,
              ratios(t, kSavings, kAppAccel, kBaseline));
    out.add("Fig. 16", "energy vs DigitalPUM", kSysNames[kDarth],
            geoMean({darth[kAes] / digital[kAes], darth[kCnn] / digital[kCnn],
                     darth[kLlm] / digital[kLlm]}),
            2.0);

    const Ratios sar_t = ratios(t, kSpeedup, kDarth, kBaseline);
    const Ratios ramp_t = ratios(t, kSpeedup, kDarthRamp, kBaseline);
    const Ratios ramp_e = ratios(t, kSavings, kDarthRamp, kBaseline);
    addRatios(out, "Fig. 17a", kDarth, sar_t);
    addRatios(out, "Fig. 17a", kDarthRamp, ramp_t);
    addRatios(out, "Fig. 17b", kDarth, darth, kNoPaper, kNumApps);
    addRatios(out, "Fig. 17b", kDarthRamp, ramp_e, kNoPaper, kNumApps);
    out.add("Fig. 17", "SAR / ramp throughput", kSysNames[kDarth],
            sar_t[kNumApps] / ramp_t[kNumApps], 1.5);
    out.add("Fig. 17", "SAR energy savings as % of ramp's",
            kSysNames[kDarth], darth[kNumApps] / ramp_e[kNumApps] * 100.0,
            99);

    // Iso-area: scale the DARTH / DigitalPUM chips to the GPU die.
    const double area_scale =
        m.gpu.params().dieAreaMm2 * 1e6 / model::kIsoAreaBudget;
    addRatios(out, "Fig. 18a", kDigitalPum,
              ratios(t, kSpeedup, kDigitalPum, kGpu, area_scale));
    addRatios(out, "Fig. 18a", kDarth,
              ratios(t, kSpeedup, kDarth, kGpu, area_scale),
              {kNone, kNone, kNone, 11.8}, kNumApps + 1,
              "paper: DARTH-PUM's average over the GPU, AES benefiting "
              "least");
    addRatios(out, "Fig. 18b", kDigitalPum,
              ratios(t, kSavings, kDigitalPum, kGpu));
    addRatios(out, "Fig. 18b", kDarth,
              ratios(t, kSavings, kDarth, kGpu),
              {kNone, kNone, kNone, 7.5});
}

/** HCT ablation: the coordination hardware (shift units, Fig. 10;
 *  instruction injection; transpose) and the logic family, on a
 *  32x32 8-slice hybrid MVM. */
void
ablation(Ledger &out)
{
    using Edit = void (*)(hct::HctConfig &);
    const struct
    {
        const char *name;
        Edit edit;
    } variants[] = {
        {"full DARTH-PUM HCT", [](hct::HctConfig &) {}},
        {"- shift units (Fig. 10a)",
         [](hct::HctConfig &c) { c.shiftUnits = false; }},
        {"- instruction injection",
         [](hct::HctConfig &c) { c.iiu.enabled = false; }},
        {"- transpose unit",
         [](hct::HctConfig &c) { c.transpose.enabled = false; }},
        {"- all three",
         [](hct::HctConfig &c) {
             c.shiftUnits = c.iiu.enabled = c.transpose.enabled = false;
         }},
        {"+ ideal logic family",
         [](hct::HctConfig &c) {
             c.dce.pipeline.family = digital::LogicFamilyKind::Ideal;
         }},
    };
    double full = 0.0;
    for (const auto &v : variants) {
        runtime::ChipConfig chip_cfg;
        chip_cfg.numHcts = 1;
        chip_cfg.hct.dce.numPipelines = 8;
        chip_cfg.hct.dce.pipeline.depth = 32;
        chip_cfg.hct.dce.pipeline.width = 32;
        chip_cfg.hct.dce.pipeline.numRegs = 16;
        chip_cfg.hct.ace.numArrays = 32;
        chip_cfg.hct.ace.arrayRows = 64;
        chip_cfg.hct.ace.arrayCols = 32;
        v.edit(chip_cfg.hct);
        Rng rng(31);
        PlacedMatrix placed(chip_cfg, rng);
        std::vector<i64> x(32);
        for (auto &e : x)
            e = rng.uniformInt(i64{0}, i64{15});
        const double cycles = static_cast<double>(
            placed.session.execMVM(placed.handle, x, 4).done);
        if (full == 0.0)
            full = cycles;
        out.add("HCT ablation", v.name, "cycles", cycles);
        out.add("HCT ablation", v.name, "vs full", cycles / full);
    }
}

} // namespace

int
main()
{
    const Workloads workloads;
    const Models models;
    const SystemTable systems = measureSystems(models, workloads);

    Ledger ledger;
    table2(ledger);
    table3(ledger);
    fig07(ledger);
    fig11(ledger);
    fig13(ledger, systems);
    fig14(ledger, models, systems);
    fig15(ledger, models, workloads);
    figs16to18(ledger, models, systems);
    sec75(ledger, workloads);
    ablation(ledger);
    return ledger.print();
}
