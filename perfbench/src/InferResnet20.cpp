/**
 * @file
 * infer_resnet20: a closed loop with one client. A 22-tile chip (the
 * infer_bench ResNet geometry) places ResNet-20 once, runs one
 * warm-up forward on the idle chip, then back-to-back forwards of
 * 9,409 MVMs each until the time budget is spent. Every forward is
 * checked bit-exact against Resnet20::infer outside its timed span.
 *
 * Timed forwards cycle through kInputs seeded inputs, and the
 * simulated metrics come from the first kInputs of them, so they do
 * not depend on how many forwards the host managed to run. The
 * traced run alternates forwards driven step by step
 * (InferenceRun::submitNext / stepDone, one span per step) with plain
 * ResnetForward::infer calls; both feed one fingerprint, which shows
 * the step-driven hook only observes.
 */

#include <memory>
#include <string>
#include <vector>

#include "Harness.h"
#include "apps/cnn/CnnMapper.h"
#include "apps/cnn/Resnet20.h"
#include "digital/KernelCache.h"
#include "runtime/Runtime.h"

namespace perfbench
{
namespace
{

using namespace darth;

/** Distinct inputs the timed forwards cycle through. */
constexpr std::size_t kInputs = 4;
/** Set-ups per run (setup_s is their median). */
constexpr std::size_t kSetups = 5;
/** ResNet-20's planned steps: stem, 9 residual blocks, gap+fc. */
constexpr std::size_t kSteps = 11;

/** One tile per ResNet layer: 64 arrays of 128x64 (infer_bench). */
runtime::ChipConfig
resnetChip()
{
    runtime::ChipConfig cfg;
    cfg.hct.dce.numPipelines = 2;
    cfg.hct.dce.pipeline.depth = 64;
    cfg.hct.dce.pipeline.width = 64;
    cfg.hct.dce.pipeline.numRegs = 8;
    cfg.hct.ace.numArrays = 64;
    cfg.hct.ace.arrayRows = 128;
    cfg.hct.ace.arrayCols = 64;
    cfg.numHcts = 22;
    return cfg;
}

/** Chip, runtime, session and placed network of one set-up. */
struct Rig
{
    explicit Rig(const runtime::ChipConfig &cfg)
        : chip(cfg), rt(chip), session(rt.createSession()),
          mapper(cfg.hct)
    {
    }

    runtime::Chip chip;
    runtime::Runtime rt;
    runtime::Session session;
    cnn::CnnMapper mapper;
    std::unique_ptr<cnn::ResnetForward> fwd;
};

/** Simulated outcome of one forward. */
struct Forward
{
    cnn::ForwardResult result;
    /** Chip tally delta over the forward. */
    CostTally tally;
    runtime::SchedulerCounters sched;
    u64 kernelHits = 0;
    u64 kernelMisses = 0;
    /** Step completion cycles and host seconds (step-driven
     *  forwards only). */
    std::vector<Cycle> stepDone;
    std::vector<double> stepHost;
    double hostSeconds = 0.0;
};

CostTally
tallyDelta(const CostTally &after, const CostTally &before)
{
    CostTally delta;
    for (const auto &[name, e] : after.entries()) {
        const CostEntry b = before.get(name);
        delta.add(name, e.cycles - b.cycles, e.energy - b.energy,
                  e.events - b.events);
    }
    return delta;
}

/**
 * Run one forward. Step-driven forwards submit each planned step at
 * admission cycle 0 and wait its completion inside a span, which is
 * the eager infer() schedule split at step boundaries.
 */
Forward
runForward(Rig &rig, const cnn::Tensor &input, bool step_driven,
           Tracer &tracer, u64 unit)
{
    Forward out;
    const CostTally before = rig.chip.tally();
    const runtime::SchedulerCounters sched0 =
        rig.rt.scheduler().counters();
    const auto &cache = digital::KernelCache::instance();
    const u64 hits0 = cache.hits();
    const u64 misses0 = cache.misses();

    const Clock::time_point t0 = Clock::now();
    {
        Span span(tracer, "runtime.forward", unit);
        if (step_driven) {
            std::unique_ptr<runtime::InferenceRun> run =
                rig.fwd->begin(input, 0);
            for (std::size_t k = 0; !run->finished(); ++k) {
                const Clock::time_point s0 = Clock::now();
                Span step(tracer, "runtime.step." + std::to_string(k),
                          unit);
                run->submitNext(0);
                out.stepDone.push_back(run->stepDone(k));
                out.stepHost.push_back(secondsSince(s0));
            }
            const runtime::GraphStats stats = run->finish();
            out.result.logits = run->output();
            out.result.start = stats.start;
            out.result.done = stats.done;
            out.result.mvmCount = stats.mvmCount;
        } else {
            out.result = rig.fwd->infer(input);
        }
    }
    out.hostSeconds = secondsSince(t0);

    out.tally = tallyDelta(rig.chip.tally(), before);
    const runtime::SchedulerCounters sched1 =
        rig.rt.scheduler().counters();
    out.sched.issued = sched1.issued - sched0.issued;
    out.sched.pipelineHits = sched1.pipelineHits - sched0.pipelineHits;
    out.sched.dependencyStalls =
        sched1.dependencyStalls - sched0.dependencyStalls;
    out.kernelHits = cache.hits() - hits0;
    out.kernelMisses = cache.misses() - misses0;
    return out;
}

void
addToFingerprint(Fingerprint &fp, const Forward &f)
{
    fp.add(static_cast<u64>(f.result.start));
    fp.add(static_cast<u64>(f.result.done));
    fp.add(static_cast<u64>(f.result.mvmCount));
    for (i64 v : f.result.logits)
        fp.add(static_cast<u64>(v));
    for (const auto &[name, e] : f.tally.entries()) {
        fp.add(e.events);
        fp.add(static_cast<u64>(e.cycles));
        fp.add(e.energy);
    }
    fp.add(f.sched.issued);
    fp.add(f.sched.pipelineHits);
    fp.add(f.sched.dependencyStalls);
}

/** Seeded input `i` of a run (seed 0 reproduces infer_bench's). */
cnn::Tensor
inputFor(u64 seed, std::size_t i)
{
    return cnn::syntheticInput(100 + 1000 * seed + i);
}

} // namespace

Result
runInferResnet20(const Options &opt, Tracer &tracer)
{
    Result res;
    const runtime::ChipConfig cfg = resnetChip();
    const cnn::Resnet20 net(42);
    std::vector<cnn::Tensor> inputs;
    std::vector<std::vector<i64>> reference;
    for (std::size_t i = 0; i <= kInputs; ++i) {
        inputs.push_back(inputFor(opt.seed, i));
        reference.push_back(net.infer(inputs.back()));
    }

    // Set-up: chip build + placements + warm-up forward, kSetups times;
    // the last rig serves the measured phase.
    std::unique_ptr<Rig> rig;
    std::vector<double> setup_s, place_s, warmup_s;
    CostTally program_tally;
    Forward warm;
    u64 warm_fp = 0;
    for (std::size_t s = 0; s < kSetups; ++s) {
        rig.reset();
        const Clock::time_point t0 = Clock::now();
        rig = std::make_unique<Rig>(cfg);
        {
            Span span(tracer, "runtime.place", s);
            rig->fwd = std::make_unique<cnn::ResnetForward>(
                rig->session, net, rig->mapper);
        }
        place_s.push_back(secondsSince(t0));
        program_tally = rig->chip.tally();
        warm = runForward(*rig, inputs[0], tracer.enabled(), tracer, s);
        warmup_s.push_back(warm.hostSeconds);
        setup_s.push_back(secondsSince(t0));

        res.check(warm.result.logits == reference[0],
                  "warm-up forward bit-identical to Resnet20::infer");
        Fingerprint fp;
        addToFingerprint(fp, warm);
        if (s == 0)
            warm_fp = fp.value();
        res.check(fp.value() == warm_fp,
                  "every set-up's warm-up forward is identical");
    }

    // Measured phase. Traced runs alternate step-driven and plain
    // forwards; untraced runs use plain forwards only.
    std::vector<Forward> forwards;
    std::vector<double> host_s, traced_s, plain_s, reference_s;
    std::vector<std::vector<double>> step_host_s(kSteps);
    Tracer off(false);
    const Clock::time_point start = Clock::now();
    for (std::size_t j = 0;
         j < kInputs || secondsSince(start) < opt.seconds; ++j) {
        const std::size_t in = 1 + j % kInputs;
        const bool step_driven = tracer.enabled() && j % 2 == 0;
        Tracer &t = step_driven ? tracer : off;
        Forward f =
            runForward(*rig, inputs[in], step_driven, t, kSetups + j);
        host_s.push_back(f.hostSeconds);
        (step_driven ? traced_s : plain_s).push_back(f.hostSeconds);
        for (std::size_t k = 0; k < f.stepHost.size() && k < kSteps; ++k)
            step_host_s[k].push_back(f.stepHost[k]);

        const Clock::time_point r0 = Clock::now();
        bool exact = false;
        {
            Span span(tracer, "apps.reference", kSetups + j);
            exact = f.result.logits == net.infer(inputs[in]);
        }
        reference_s.push_back(secondsSince(r0));
        res.check(exact, "forward " + std::to_string(j) +
                             " bit-identical to Resnet20::infer");
        if (j < kInputs)
            forwards.push_back(std::move(f));
    }
    const double rss = peakRssMb();

    // Simulated metrics from the warm-up and the first kInputs timed
    // forwards (1 cycle = 1 ns at the 1 GHz clock of Table 2).
    Fingerprint fp;
    addToFingerprint(fp, warm);
    CostTally sum;
    u64 issued = 0, hits = 0, stalls = 0, k_hits = 0, k_misses = 0;
    for (const Forward &f : forwards) {
        addToFingerprint(fp, f);
        sum.merge(f.tally);
        issued += f.sched.issued;
        hits += f.sched.pipelineHits;
        stalls += f.sched.dependencyStalls;
        k_hits += f.kernelHits;
        k_misses += f.kernelMisses;
    }
    res.fingerprint = fp.value();
    const double n = static_cast<double>(forwards.size());
    const double spacing =
        static_cast<double>(forwards.back().result.done -
                            warm.result.done) /
        n;
    const double mvms = static_cast<double>(warm.result.mvmCount);

    res.e2e("setup_s", median(setup_s), "s");
    res.e2e("host_mvm_per_s", bestRate(mvms, host_s), "1/s");
    res.e2e("peak_rss_mb", rss, "MiB");
    res.e2e("sim_inferences_per_ms", 1e6 / spacing, "1/sim_ms");
    res.e2e("sim_infer_latency_ns",
            static_cast<double>(warm.result.done - warm.result.start),
            "sim_ns");
    res.e2e("sim_energy_uj_per_inference", sum.totalEnergy() / n * 1e-6,
            "uJ");

    if (tracer.enabled()) {
        res.layer("runtime.place_s", median(place_s), "s");
        res.layer("runtime.warmup_s", median(warmup_s), "s");
        for (std::size_t k = 0; k < kSteps; ++k) {
            const std::string step = "runtime.step." + std::to_string(k);
            res.layer(step + ".host_s", median(step_host_s[k]), "s");
            const Cycle prev =
                k == 0 ? warm.result.start : warm.stepDone.at(k - 1);
            res.layer(step + ".sim_cycles",
                      static_cast<double>(warm.stepDone.at(k) - prev),
                      "cycles");
        }
        res.layer("apps.reference_s", median(reference_s), "s");
        const auto per = [&](const char *category) {
            return sum.get(category);
        };
        res.layer("analog.adc.events", per("ace.adc").events / n, "count");
        res.layer("analog.adc.pj", per("ace.adc").energy / n, "pJ");
        res.layer("analog.dac.pj", per("ace.dac").energy / n, "pJ");
        res.layer("analog.array.events", per("ace.array").events / n,
                  "count");
        res.layer("digital.boolop.events", per("dce.boolop").events / n,
                  "count");
        res.layer("digital.boolop.pj", per("dce.boolop").energy / n, "pJ");
        res.layer("digital.io.pj", per("dce.io").energy / n, "pJ");
        res.layer("hct.network.cycles",
                  static_cast<double>(per("hct.network").cycles) / n,
                  "cycles");
        res.layer("hct.network.pj", per("hct.network").energy / n, "pJ");
        res.layer("analog.program.pj",
                  program_tally.get("ace.program").energy, "pJ");
        res.layer("runtime.sched.issued", static_cast<double>(issued) / n,
                  "count");
        res.layer("runtime.sched.pipeline_hit_ratio",
                  issued ? static_cast<double>(hits) /
                               static_cast<double>(issued)
                         : 0.0,
                  "ratio");
        res.layer("runtime.sched.dependency_stalls",
                  static_cast<double>(stalls) / n, "count");
        res.layer("digital.kernel_cache.hit_ratio",
                  k_hits + k_misses
                      ? static_cast<double>(k_hits) /
                            static_cast<double>(k_hits + k_misses)
                      : 1.0,
                  "ratio");
        res.layer("trace.overhead_s",
                  traced_s.empty() || plain_s.empty()
                      ? 0.0
                      : median(traced_s) - median(plain_s),
                  "s");
        res.notes.push_back(
            "host time of analog (Crossbar, Adc, Ace), digital "
            "(Pipeline, KernelCache) and hct cannot be split from "
            "outside the program; those layers report simulated "
            "counts, cycles and pJ");
    }
    reportFigureGaps(res);
    return res;
}

} // namespace perfbench
