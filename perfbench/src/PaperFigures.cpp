/**
 * @file
 * paper_figures: no load, deterministic. Computes the DARTH-PUM /
 * Baseline throughput ratios of Fig. 13 and energy-saving ratios of
 * Fig. 16 for AES, ResNet-20 and LLMEnc by calling the repository's
 * own bench::DarthSystem and baselines::BaselineSystem (the systems
 * the fig13_throughput / fig16_energy mains print), and scores each
 * figure by its gap to the paper: the geometric mean over the three
 * apps of max(measured / paper, paper / measured), 1.0 = the paper.
 *
 * Fig. 17's SAR/ramp throughput ratio is a held-out per-layer metric
 * (model.fig17.sar_over_ramp): it is reported, never folded into the
 * gaps.
 */

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "BenchUtil.h"
#include "Harness.h"
#include "common/Stats.h"

namespace perfbench
{
namespace
{

using namespace darth;

/** Paper values (DARTH-PUM over Baseline): AES, ResNet-20, LLMEnc. */
constexpr double kPaperFig13[3] = {59.4, 14.8, 40.8};
constexpr double kPaperFig16[3] = {39.6, 51.2, 110.7};
constexpr const char *kApps[3] = {"aes", "resnet20", "llmenc"};
/** Set-ups per run (setup_s is their median). */
constexpr std::size_t kSetups = 5;

/** The figures' workload definitions (the fig mains' inputs). */
struct Workloads
{
    std::vector<cnn::LayerStats> layers;
    llm::EncoderStats encoder;
};

Workloads
buildWorkloads()
{
    Workloads w;
    w.layers = cnn::Resnet20(42).layerStats();
    w.encoder = llm::Encoder(llm::EncoderConfig::bertBase(), 7).stats();
    return w;
}

/** Baseline throughput and joules per item: AES, ResNet-20, LLMEnc. */
struct BaselineNumbers
{
    double throughput[3];
    double joules[3];
};

BaselineNumbers
baselineNumbers(const Workloads &w)
{
    const baselines::BaselineSystem base(baselines::CpuParams::i7_13700(),
                                         baselines::AnalogAccelParams{},
                                         baselines::LinkParams{});
    return {{base.aesBlocksPerSec(), base.cnnInfersPerSec(w.layers),
             base.llmEncodesPerSec(w.encoder)},
            {base.aesJoulesPerBlock(), base.cnnJoulesPerInfer(w.layers),
             base.llmJoulesPerEncode(w.encoder)}};
}

/** DARTH-PUM numbers of one ADC kind, one span per app. */
struct DarthNumbers
{
    bench::AppNumbers app[3];
};

DarthNumbers
darthNumbers(const Workloads &w, analog::AdcKind adc, Tracer &tracer,
             u64 unit)
{
    const bench::DarthSystem darth(adc);
    DarthNumbers out;
    {
        Span span(tracer, "model.darth.aes", unit);
        out.app[0] = darth.aes();
    }
    {
        Span span(tracer, "model.darth.cnn", unit);
        out.app[1] = darth.cnn(w.layers);
    }
    {
        Span span(tracer, "model.darth.llm", unit);
        out.app[2] = darth.llm(w.encoder);
    }
    return out;
}

/** measured / paper ratios of both figures, and their gaps. */
struct Figures
{
    double fig13[3] = {0.0, 0.0, 0.0};
    double fig16[3] = {0.0, 0.0, 0.0};
    double fig13Gap = 0.0;
    double fig16Gap = 0.0;
};

double
gap(const double ratio[3])
{
    std::vector<double> off;
    for (int i = 0; i < 3; ++i)
        off.push_back(std::max(ratio[i], 1.0 / ratio[i]));
    return geoMean(off);
}

Figures
computeFigures(const Workloads &w, Tracer &tracer, u64 unit)
{
    Span span(tracer, "model.figures", unit);
    const BaselineNumbers base = baselineNumbers(w);
    const DarthNumbers d =
        darthNumbers(w, analog::AdcKind::Sar, tracer, unit);
    Figures f;
    for (int i = 0; i < 3; ++i) {
        f.fig13[i] =
            d.app[i].throughput / base.throughput[i] / kPaperFig13[i];
        f.fig16[i] =
            base.joules[i] / d.app[i].joulesPerItem / kPaperFig16[i];
    }
    f.fig13Gap = gap(f.fig13);
    f.fig16Gap = gap(f.fig16);
    return f;
}

bool
sane(double v)
{
    return std::isfinite(v) && v > 0.0;
}

void
checkFigures(Result &res, const Figures &f)
{
    for (int i = 0; i < 3; ++i) {
        res.check(sane(f.fig13[i]), std::string("fig13 ratio of ") +
                                        kApps[i] + " finite, positive");
        res.check(sane(f.fig16[i]), std::string("fig16 ratio of ") +
                                        kApps[i] + " finite, positive");
    }
}

void
addToFingerprint(Fingerprint &fp, const Figures &f)
{
    for (int i = 0; i < 3; ++i) {
        fp.add(f.fig13[i]);
        fp.add(f.fig16[i]);
    }
}

/** Fig. 17 (a): SAR over ramp geomean throughput vs Baseline. */
double
sarOverRamp(const Workloads &w, Tracer &tracer)
{
    const BaselineNumbers base = baselineNumbers(w);
    const DarthNumbers sar =
        darthNumbers(w, analog::AdcKind::Sar, tracer, 0);
    const DarthNumbers ramp =
        darthNumbers(w, analog::AdcKind::Ramp, tracer, 0);
    std::vector<double> s, r;
    for (int i = 0; i < 3; ++i) {
        s.push_back(sar.app[i].throughput / base.throughput[i]);
        r.push_back(ramp.app[i].throughput / base.throughput[i]);
    }
    return geoMean(s) / geoMean(r);
}

} // namespace

void
reportFigureGaps(Result &result)
{
    Tracer off(false);
    const Figures f = computeFigures(buildWorkloads(), off, 0);
    checkFigures(result, f);
    result.e2e("fig13_gap", f.fig13Gap, "x");
    result.e2e("fig16_gap", f.fig16Gap, "x");
}

Result
runPaperFigures(const Options &opt, Tracer &tracer)
{
    Result res;
    std::vector<double> setup_s;
    Workloads w;
    for (std::size_t s = 0; s < kSetups; ++s) {
        const Clock::time_point t0 = Clock::now();
        Span span(tracer, "apps.workload_stats", s);
        w = buildWorkloads();
        setup_s.push_back(secondsSince(t0));
    }

    // Measured phase: evaluate both figures back to back; every
    // evaluation must reproduce the first bit for bit. Traced runs
    // alternate traced and untraced evaluations.
    Tracer off(false);
    std::vector<double> traced_s, plain_s;
    Figures first;
    u64 first_fp = 0;
    const Clock::time_point start = Clock::now();
    for (u64 j = 0; j == 0 || secondsSince(start) < opt.seconds; ++j) {
        const bool traced = tracer.enabled() && j % 2 == 0;
        const Clock::time_point t0 = Clock::now();
        const Figures f = computeFigures(w, traced ? tracer : off, j);
        (traced ? traced_s : plain_s).push_back(secondsSince(t0));
        checkFigures(res, f);
        Fingerprint fp;
        addToFingerprint(fp, f);
        if (j == 0) {
            first = f;
            first_fp = fp.value();
        }
        res.check(fp.value() == first_fp,
                  "figure evaluation " + std::to_string(j) +
                      " identical to the first");
    }
    res.fingerprint = first_fp;

    res.e2e("setup_s", median(setup_s), "s");
    res.e2e("peak_rss_mb", peakRssMb(), "MiB");
    res.e2e("fig13_gap", first.fig13Gap, "x");
    res.e2e("fig16_gap", first.fig16Gap, "x");

    if (tracer.enabled()) {
        for (int i = 0; i < 3; ++i) {
            res.layer(std::string("model.fig13.") + kApps[i] + ".ratio",
                      first.fig13[i], "x");
            res.layer(std::string("model.fig16.") + kApps[i] + ".ratio",
                      first.fig16[i], "x");
        }
        for (const char *app : {"aes", "cnn", "llm"}) {
            const std::string name = std::string("model.darth.") + app;
            res.layer(name + "_s", median(tracer.durations(name)), "s");
        }
        res.layer("model.figures_s", median(traced_s), "s");
        res.layer("trace.overhead_s",
                  plain_s.empty() ? 0.0
                                  : median(traced_s) - median(plain_s),
                  "s");
        res.layer("model.fig17.sar_over_ramp", sarOverRamp(w, off), "x");
    }
    return res;
}

} // namespace perfbench
