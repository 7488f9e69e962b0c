#include "runtime/KernelModel.h"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "common/Logging.h"
#include "common/Random.h"

namespace darth
{
namespace runtime
{

namespace
{

/** Append one integer field as "name=value;". */
void
keyField(std::string &out, const char *name, u64 value)
{
    out += name;
    out += '=';
    out += std::to_string(value);
    out += ';';
}

/** Append one double field by exact bit pattern (collision-free). */
void
keyField(std::string &out, const char *name, double value)
{
    u64 bits = 0;
    static_assert(sizeof(bits) == sizeof(value), "double is 64-bit");
    std::memcpy(&bits, &value, sizeof(bits));
    keyField(out, name, bits);
}

/**
 * Process-wide measurement memo shared by every KernelModel. Guarded
 * by a plain mutex: measurements are deterministic functions of the
 * key, so whichever thread publishes first wins and every later
 * reader sees byte-identical costs.
 */
struct CostMemoStore
{
    std::mutex mu;
    std::map<std::string, KernelCost> entries;
};

CostMemoStore &
memoStore()
{
    // Process-wide by design: identical silicon shares one
    // measurement across chips and pools.
    static CostMemoStore store; // determinism-lint: allow(static-mutable-local) mutex-guarded memo, keyed collision-free by siliconKey

    return store;
}

bool
memoLookup(const std::string &key, KernelCost *out)
{
    CostMemoStore &store = memoStore();
    std::lock_guard<std::mutex> lock(store.mu);
    const auto it = store.entries.find(key);
    if (it == store.entries.end())
        return false;
    *out = it->second;
    return true;
}

void
memoPublish(const std::string &key, const KernelCost &cost)
{
    CostMemoStore &store = memoStore();
    std::lock_guard<std::mutex> lock(store.mu);
    store.entries.emplace(key, cost);
}

} // namespace

std::string
siliconKey(const hct::HctConfig &config, u64 seed)
{
    std::string key;
    key.reserve(640);
    keyField(key, "seed", seed);
    keyField(key, "dce.pipes", config.dce.numPipelines);
    const digital::PipelineConfig &pipe = config.dce.pipeline;
    keyField(key, "pipe.depth", pipe.depth);
    keyField(key, "pipe.width", pipe.width);
    keyField(key, "pipe.regs", pipe.numRegs);
    keyField(key, "pipe.family",
             static_cast<u64>(static_cast<int>(pipe.family)));
    keyField(key, "pipe.opE", pipe.opEnergyPJ);
    keyField(key, "pipe.ioE", pipe.ioEnergyPJ);
    const analog::AceConfig &ace = config.ace;
    keyField(key, "ace.arrays", ace.numArrays);
    keyField(key, "ace.rows", ace.arrayRows);
    keyField(key, "ace.cols", ace.arrayCols);
    keyField(key, "adc.kind",
             static_cast<u64>(static_cast<int>(ace.adc.kind)));
    keyField(key, "adc.bits", static_cast<u64>(ace.adc.bits));
    keyField(key, "adc.sarLat", ace.adc.sarLatency);
    keyField(key, "adc.rampLat", ace.adc.rampFullLatency);
    keyField(key, "adc.sarE", ace.adc.sarEnergyPJ);
    keyField(key, "adc.rampE", ace.adc.rampEnergyPerCyclePJ);
    keyField(key, "ace.adcs", ace.numAdcs);
    keyField(key, "ace.rampStates", ace.rampStates);
    keyField(key, "ace.rampAuto",
             static_cast<u64>(ace.rampAutoTerminate ? 1 : 0));
    keyField(key, "ace.dac", ace.dacApplyCycles);
    keyField(key, "ace.settle", ace.settleCycles);
    keyField(key, "ace.rowE", ace.rowDriveEnergyPJ);
    keyField(key, "ace.shE", ace.sampleHoldEnergyPJ);
    keyField(key, "ace.actE", ace.arrayActivationEnergyPJ);
    keyField(key, "ace.progE", ace.cellProgramEnergyPJ);
    keyField(key, "ace.progCyc", ace.cellProgramCycles);
    const reram::NoiseModel &noise = ace.noise;
    keyField(key, "noise.prog", noise.programSigma);
    keyField(key, "noise.read", noise.readSigma);
    keyField(key, "noise.stuck", noise.stuckAtRate);
    keyField(key, "noise.drift", noise.driftNu);
    keyField(key, "noise.wire", noise.wireResistance);
    keyField(key, "shiftUnits",
             static_cast<u64>(config.shiftUnits ? 1 : 0));
    keyField(key, "iiu.on", static_cast<u64>(config.iiu.enabled ? 1 : 0));
    keyField(key, "iiu.setup", config.iiu.setupCycles);
    keyField(key, "iiu.share", config.iiu.frontEndShare);
    keyField(key, "tp.on",
             static_cast<u64>(config.transpose.enabled ? 1 : 0));
    keyField(key, "tp.bpc", config.transpose.bitsPerCycle);
    keyField(key, "arb.switch", config.arbiterSwitchPenalty);
    keyField(key, "net.bpc", config.networkBytesPerCycle);
    keyField(key, "net.bE", config.networkEnergyPerBytePJ);
    return key;
}

KernelModel::KernelModel(const hct::HctConfig &config, u64 seed)
    : cfg_(config), seed_(seed), siliconKey_(siliconKey(config, seed))
{
}

hct::Hct &
KernelModel::scratchHct()
{
    if (!hct_)
        hct_ = std::make_unique<hct::Hct>(cfg_, &hctTally_, seed_);
    return *hct_;
}

digital::Pipeline &
KernelModel::scratchPipe()
{
    if (!pipe_)
        pipe_ = std::make_unique<digital::Pipeline>(cfg_.dce.pipeline,
                                                    &pipeTally_);
    return *pipe_;
}

KernelCost
KernelModel::mvm(const MvmShape &shape)
{
    const auto it = mvmCache_.find(shape);
    if (it != mvmCache_.end())
        return it->second;

    // Cross-chip memo: identical silicon measures each shape once per
    // process. Noise-enabled tiles are excluded — their device state
    // evolves with the owning Hct's RNG, so measurements are only
    // reusable within one instance.
    std::string memo_key;
    const bool memoizable = cfg_.ace.noise.ideal();
    if (memoizable) {
        memo_key = siliconKey_;
        memo_key += "|mvm;";
        keyField(memo_key, "rows", shape.rows);
        keyField(memo_key, "cols", shape.cols);
        keyField(memo_key, "eb", static_cast<u64>(shape.elementBits));
        keyField(memo_key, "bpc", static_cast<u64>(shape.bitsPerCell));
        keyField(memo_key, "ib", static_cast<u64>(shape.inputBits));
        KernelCost memoized;
        if (memoLookup(memo_key, &memoized)) {
            mvmCache_[shape] = memoized;
            return memoized;
        }
    }

    // Build a worst-case-representative matrix and input (timing is
    // data-independent; energy varies mildly with active rows, so use
    // a dense pattern).
    Rng rng(seed_ ^ 0xC0FFEE);
    const i64 wmax = (i64{1} << shape.elementBits) - 1;
    MatrixI m(shape.rows, shape.cols);
    for (std::size_t r = 0; r < shape.rows; ++r)
        for (std::size_t c = 0; c < shape.cols; ++c)
            m(r, c) = rng.uniformInt(-wmax, wmax);
    std::vector<i64> x(shape.rows);
    const i64 xmax = (i64{1} << (shape.inputBits - 1)) - 1;
    for (auto &v : x)
        v = rng.uniformInt(i64{0}, std::max<i64>(xmax, 1));

    hct::Hct &hct = scratchHct();
    hctTally_.clear();
    hct.setMatrix(m, shape.elementBits, shape.bitsPerCell);
    const PicoJoule program_energy = hctTally_.totalEnergy();
    // The scratch tile is reused across measured shapes; rebase its
    // arbiter and DCE stage clocks so this shape is timed from cycle
    // 0 instead of behind the previous measurement. Without this the
    // cached latency of a shape depends on which shapes were
    // measured before it — and order-dependent oracle costs would
    // skew both the WFQ charge and cost-aware placement.
    hct.arbiter().rebase(0);
    for (std::size_t p = 0; p < hct.dce().numPipelines(); ++p)
        hct.dce().pipeline(p).rebase(0);

    const Cycle adc_before = hctTally_.get("ace.adc").cycles;
    const u64 dce_before = hctTally_.get("dce.boolop").events;
    const u64 net_before = hctTally_.get("hct.network").events;
    const auto first = hct.execMvm(x, shape.inputBits, 0);

    KernelCost cost;
    cost.latency = first.done;
    cost.energy = hctTally_.totalEnergy() - program_energy;

    // Steady-state throughput bound for back-to-back MVMs: successive
    // MVMs overlap on the tile — the ACE streams the next input while
    // the DCE reduces the previous one, and reductions rotate across
    // the DCE's pipelines (input batching, §5.1). The sustainable
    // inter-MVM interval is the largest per-MVM occupancy among the
    // shared resources: the ADCs, the DCE pipelines (column-ops
    // spread over numPipelines), and the 8 B/cycle transfer network.
    const Cycle adc_occ = hctTally_.get("ace.adc").cycles - adc_before;
    (void)dce_before;
    const u64 net_values =
        hctTally_.get("hct.network").events - net_before;
    const std::size_t pipes = cfg_.dce.numPipelines;
    const std::size_t net_bytes_per_cycle =
        cfg_.networkBytesPerCycle > 0 ? cfg_.networkBytesPerCycle : 8;
    const u64 adc_bytes = (static_cast<u64>(cfg_.ace.adc.bits) + 7) / 8;
    // Partial products per MVM (each one costs an ADD whose pipelined
    // issue interval is the per-bit gate count of the ADD program).
    const u64 n_partials =
        net_values / std::max<std::size_t>(shape.cols, 1);
    const u64 add_ops =
        digital::synthesizeMacro(
            digital::MacroKind::Add,
            digital::LogicFamily(cfg_.dce.pipeline.family))
            .opCount();
    const Cycle dce_bound =
        (n_partials * add_ops + pipes - 1) /
        std::max<std::size_t>(pipes, 1);
    const Cycle net_bound =
        (net_values * adc_bytes + net_bytes_per_cycle - 1) /
        net_bytes_per_cycle;
    cost.amortized = std::max<Cycle>(
        {adc_occ, dce_bound, net_bound, 1});
    cost.amortized = std::min(cost.amortized, cost.latency);
    mvmCache_[shape] = cost;
    if (memoizable)
        memoPublish(memo_key, cost);
    return cost;
}

KernelCost
KernelModel::macro(digital::MacroKind kind, std::size_t bits)
{
    const auto key = std::make_tuple(static_cast<int>(kind), bits);
    const auto it = macroCache_.find(key);
    if (it != macroCache_.end())
        return it->second;

    // Macro timing is purely digital (no device RNG), so it is always
    // shareable across identical silicon.
    std::string memo_key = siliconKey_;
    memo_key += "|macro;";
    keyField(memo_key, "kind", static_cast<u64>(static_cast<int>(kind)));
    keyField(memo_key, "bits", bits);
    KernelCost memoized;
    if (memoLookup(memo_key, &memoized)) {
        macroCache_[key] = memoized;
        return memoized;
    }

    digital::Pipeline &pipe = scratchPipe();
    pipeTally_.clear();
    const Cycle base = pipe.drainTime();
    const Cycle first = pipe.execMacro(kind, 2, 0, 1, bits, base);
    const PicoJoule first_energy = pipeTally_.totalEnergy();
    const Cycle second = pipe.execMacro(kind, 3, 0, 1, bits, first);

    KernelCost cost;
    cost.latency = first - base;
    cost.amortized = second - first;
    cost.energy = first_energy;
    macroCache_[key] = cost;
    memoPublish(memo_key, cost);
    return cost;
}

KernelCost
KernelModel::multiply(std::size_t bits)
{
    // Shift-and-add multiplication: per input bit, one masked copy
    // (AND with the broadcast bit) and one ADD at double width. A
    // single multiply is an accumulator-dependent chain (full ripple
    // latency per step), but *independent* multiplies from different
    // vector registers interleave in the bit-pipeline, so the
    // sustained rate is the per-stage gate count.
    const KernelCost and_cost =
        macro(digital::MacroKind::And, 2 * bits);
    const KernelCost add_cost =
        macro(digital::MacroKind::Add, 2 * bits);
    KernelCost cost;
    cost.latency = static_cast<Cycle>(bits) *
                   (and_cost.amortized + add_cost.latency);
    cost.amortized = static_cast<Cycle>(bits) *
                     (and_cost.amortized + add_cost.amortized);
    cost.energy = static_cast<double>(bits) *
                  (and_cost.energy + add_cost.energy);
    return cost;
}

KernelCost
KernelModel::rowIo(std::size_t elements) const
{
    KernelCost cost;
    cost.latency = elements;
    cost.amortized = elements;
    cost.energy = static_cast<double>(elements) *
                  cfg_.dce.pipeline.ioEnergyPJ;
    return cost;
}

} // namespace runtime
} // namespace darth
