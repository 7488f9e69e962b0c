#include "hct/Hct.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/Logging.h"
#include "digital/KernelCache.h"

namespace darth
{
namespace hct
{

namespace
{

/** Registers reserved in each reduction pipeline. */
constexpr std::size_t kAccVr = 0;     //!< running accumulator
constexpr std::size_t kStageVr = 1;   //!< incoming partial product

/**
 * Accumulator bits an exact MVM over `rows` rows needs: the element
 * and input widths, ceil(log2 rows) for the sum, and a sign bit.
 */
int
accumulatorBitsNeeded(int element_bits, int input_bits, std::size_t rows)
{
    return element_bits + input_bits +
           static_cast<int>(std::bit_width(std::max<std::size_t>(rows, 1) -
                                           1)) +
           1;
}

/** Widest accumulator a DCE of this depth reduces into. */
int
accumulatorBitsAvailable(const HctConfig &cfg)
{
    return static_cast<int>(
        std::min<std::size_t>(cfg.dce.pipeline.depth, 63));
}

/** Sign-extend the low `bits` bits of a two's complement word. */
i64
signExtend(u64 word, int bits)
{
    const u64 sign = u64{1} << (bits - 1);
    return static_cast<i64>((word ^ sign) - sign);
}

} // namespace

void
checkAccumulatorFits(const HctConfig &cfg, int element_bits,
                     int input_bits, std::size_t rows, const char *who)
{
    const int needed =
        accumulatorBitsNeeded(element_bits, input_bits, rows);
    const int available = accumulatorBitsAvailable(cfg);
    if (needed > available)
        throw std::invalid_argument(
            std::string(who) + ": an MVM of " + std::to_string(rows) +
            " rows with " + std::to_string(element_bits) +
            "-bit elements and " + std::to_string(input_bits) +
            "-bit inputs needs a " + std::to_string(needed) +
            "-bit accumulator, but the DCE reduces into " +
            std::to_string(available) + " bits (the result would wrap)");
}

HctConfig
HctConfig::paperDefault(analog::AdcKind adc)
{
    HctConfig cfg;
    // Table 2: 64 pipelines x 64 arrays of 64x64; 64 analog arrays.
    cfg.dce.numPipelines = 64;
    cfg.dce.pipeline.depth = 64;
    cfg.dce.pipeline.width = 64;
    cfg.dce.pipeline.numRegs = 64;
    cfg.ace.numArrays = 64;
    cfg.ace.arrayRows = 64;
    cfg.ace.arrayCols = 64;
    cfg.ace.adc.kind = adc;
    // Table 2 lists "SAR: 2" converters, but §4 also fixes the
    // ACE->DCE network at 8 B/cycle "chosen to rate-match ADC
    // throughput with DCE write bandwidth"; with 1-cycle SAR
    // conversions of 8-bit codes that requires 8 conversion lanes,
    // which is the value we adopt.
    cfg.ace.numAdcs = adc == analog::AdcKind::Sar ? 8 : 1;
    return cfg;
}

Hct::Hct(const HctConfig &config, CostTally *tally, u64 seed)
    : cfg_(config), tally_(tally), ace_(config.ace, tally, seed),
      dce_(config.dce, tally), arbiter_(config.arbiterSwitchPenalty),
      iiu_(config.iiu), transpose_(config.transpose)
{
}

void
Hct::allocVACore(int element_bits, int bits_per_cell)
{
    if (element_bits <= 0 || bits_per_cell <= 0)
        darth_fatal("Hct::allocVACore: widths must be positive");
    vacore_.elementBits = element_bits;
    vacore_.bitsPerCell = bits_per_cell;
    vacore_.valid = true;
    // Allocating the vACore programs the IIU's shift-and-add table;
    // the cost is the IIU setup charge paid once per MVM sequence.
}

void
Hct::setMatrix(const MatrixI &m, int element_bits, int bits_per_cell)
{
    // Checked before anything changes: a rejected matrix leaves the
    // tile (matrix, vACore, plans) as it was.
    const std::size_t width = cfg_.dce.pipeline.width;
    const std::size_t pipes_needed = (m.cols() + width - 1) / width;
    if (pipes_needed > dce_.numPipelines())
        darth_fatal("Hct::setMatrix: reduction needs ", pipes_needed,
                    " pipelines but the DCE has ", dce_.numPipelines());
    ace_.setMatrix(m, element_bits, bits_per_cell);
    allocVACore(element_bits, bits_per_cell);
    analogEnabled_ = true;
    plans_.clear();
}

std::size_t
Hct::reductionPipes() const
{
    const std::size_t width = cfg_.dce.pipeline.width;
    return (ace_.matrix().cols() + width - 1) / width;
}

int
Hct::accumulatorBits(int input_bits) const
{
    if (!vacore_.valid)
        darth_fatal("Hct::accumulatorBits: no vACore allocated");
    return std::min(accumulatorBitsNeeded(vacore_.elementBits,
                                          input_bits,
                                          ace_.matrix().rows()),
                    accumulatorBitsAvailable(cfg_));
}

Hct::MvmResult
Hct::execMvm(const std::vector<i64> &x, int input_bits, Cycle start)
{
    if (!analogEnabled_)
        darth_fatal("Hct::execMvm: the ACE is disabled");
    if (!vacore_.valid)
        darth_fatal("Hct::execMvm: no vACore allocated");
    checkAccumulatorFits(cfg_, vacore_.elementBits, input_bits,
                         ace_.matrix().rows(), "Hct::execMvm");

    const Cycle analog_start = arbiter_.acquire(Mode::Analog, start);
    MvmResult result;
    result.done =
        cfg_.shiftUnits
            ? reduceWithShiftUnits(x, input_bits, analog_start,
                                   result.values)
            : reduceWalk(x, input_bits, analog_start, result.values);
    arbiter_.release(result.done);
    return result;
}

const Hct::ReductionPlan &
Hct::reductionPlan(int input_bits,
                   const analog::ConversionPlan &conversions)
{
    const std::size_t key = 2 * static_cast<std::size_t>(input_bits) +
                            conversions.back().negate;
    if (plans_.size() <= key)
        plans_.resize(key + 1);
    ReductionPlan &plan = plans_[key];
    if (plan.count != 0)
        return plan;

    const std::size_t cols = ace_.matrix().cols();
    const std::size_t width = cfg_.dce.pipeline.width;
    auto &kernels = digital::KernelCache::instance();
    const u64 add_ops = kernels.macro(digital::MacroKind::Add,
                                      cfg_.dce.pipeline.family)
                            .program.opCount();
    const u64 sub_ops = kernels.macro(digital::MacroKind::Sub,
                                      cfg_.dce.pipeline.family)
                            .program.opCount();
    plan.accBits = accumulatorBits(input_bits);
    plan.addOps = add_ops * static_cast<u64>(plan.accBits);
    plan.subOps = sub_ops * static_cast<u64>(plan.accBits);
    plan.count = conversions.size();
    plan.lastShift = conversions.back().shift;
    plan.setup = iiu_.sequenceSetup();
    for (const analog::Conversion &conv : conversions) {
        const auto kind =
            conv.negate ? digital::MacroKind::Sub : digital::MacroKind::Add;
        if (plan.runs.empty() || plan.runs.back().kind != kind)
            plan.runs.push_back({kind, 0});
        ++plan.runs.back().count;
        plan.subs += conv.negate;
    }

    // Per pipeline, each code streams over the network into DCE rows,
    // one row per cycle, overlapped with the conversion window (the
    // transpose unit turns the analog row vector into column elements
    // on the fly; without it the DCE copies element by element). The
    // ADD/SUB issues when its row has landed, after the front end's
    // expansion delay when there is no IIU.
    const Cycle overhead = iiu_.issueOverhead(plan.addOps);
    const u64 adc_bytes = (static_cast<u64>(cfg_.ace.adc.bits) + 7) / 8;
    for (std::size_t p = 0; p < reductionPipes(); ++p) {
        const std::size_t n = std::min(width, cols - p * width);
        const Cycle copies =
            cfg_.transpose.enabled
                ? 0
                : transpose_.transposeCost(
                      1, n, static_cast<std::size_t>(plan.accBits));
        Cycle port_free = plan.setup;
        std::size_t k = 0;
        for (const ReductionPlan::Run &run : plan.runs) {
            const Cycle w = run.kind == digital::MacroKind::Sub ? sub_ops
                                                                : add_ops;
            Cycle from_issue = 0;
            for (std::size_t j = 0; j < run.count; ++j, ++k) {
                const analog::Conversion &conv = conversions[k];
                const Cycle write_begin =
                    std::max(port_free, conv.convStart);
                port_free = std::max(conv.readyAt,
                                     write_begin + static_cast<Cycle>(n)) +
                            copies;
                from_issue = std::max(from_issue, port_free + overhead +
                                                      w * (run.count - 1 - j));
            }
            plan.fromIssue.push_back(from_issue);
        }
        plan.networkEnergy.push_back(static_cast<double>(n * adc_bytes) *
                                     cfg_.networkEnergyPerBytePJ);
    }
    return plan;
}

Cycle
Hct::reduceWithShiftUnits(const std::vector<i64> &x, int input_bits,
                          Cycle analog_start, std::vector<i64> &values)
{
    const analog::ConversionPlan &conversions =
        ace_.beginMvm(x, input_bits);
    const ReductionPlan &plan = reductionPlan(input_bits, conversions);
    const std::size_t cols = ace_.matrix().cols();
    const int acc_bits = plan.accBits;
    const u64 mask = (u64{1} << acc_bits) - 1;

    // --- Values. The shift units land each code pre-shifted, and the
    // ripple-carry ADD/SUB macros compute exactly integer add/sub
    // mod 2^acc_bits, so the accumulator is the masked sum of the
    // shifted codes. With no clamp on the exact path that sum is W·x;
    // only the crossbar path needs the codes one by one.
    accWords_.resize(cols);
    if (ace_.config().noise.ideal()) {
        ace_.exactProduct(x, input_bits, values, lastCodes_);
        for (std::size_t c = 0; c < cols; ++c)
            accWords_[c] = static_cast<u64>(values[c]) & mask;
    } else {
        ace_.conversionCodes(x, input_bits, codes_);
        std::fill(accWords_.begin(), accWords_.end(), u64{0});
        for (std::size_t k = 0; k < plan.count; ++k) {
            const analog::Conversion &conv = conversions[k];
            const i64 *const code = codes_.data() + k * cols;
            for (std::size_t c = 0; c < cols; ++c) {
                const u64 staged =
                    static_cast<u64>(code[c] << conv.shift) & mask;
                accWords_[c] = (conv.negate ? accWords_[c] - staged
                                            : accWords_[c] + staged) &
                               mask;
            }
        }
        lastCodes_.assign(codes_.end() - static_cast<std::ptrdiff_t>(cols),
                          codes_.end());
    }
    ++mvmCount_;
    values.resize(cols);
    for (std::size_t c = 0; c < cols; ++c)
        values[c] = signExtend(accWords_[c], acc_bits);
    // The staging register keeps the last partial product.
    stagedWords_.resize(cols);
    for (std::size_t c = 0; c < cols; ++c)
        stagedWords_[c] =
            static_cast<u64>(lastCodes_[c] << plan.lastShift) & mask;

    // --- Timing. The plan holds every issue relative to the analog
    // start; each pipeline's stage clocks advance in closed form per
    // run of equal macros.
    const std::size_t width = cfg_.dce.pipeline.width;
    const std::size_t n_pipes = plan.networkEnergy.size();
    const std::size_t n_runs = plan.runs.size();
    Cycle done = analog_start + plan.setup;
    for (std::size_t p = 0; p < n_pipes; ++p) {
        const std::size_t c0 = p * width;
        const std::size_t n = std::min(width, cols - c0);
        digital::Pipeline &pipe = dce_.pipeline(p);
        for (std::size_t r = 0; r < n_runs; ++r)
            done = std::max(
                done, pipe.timeMacroRun(
                          plan.runs[r].kind,
                          static_cast<std::size_t>(acc_bits),
                          analog_start + plan.fromIssue[p * n_runs + r],
                          plan.runs[r].count));

        // The register file keeps the accumulator and the last staged
        // value, transposed only if something reads them.
        pipe.clearReg(kAccVr);
        pipe.clearReg(kStageVr);
        pipe.holdElements(kStageVr, stagedWords_.data() + c0, n,
                          static_cast<std::size_t>(acc_bits));
        pipe.holdElements(kAccVr, accWords_.data() + c0, n,
                          static_cast<std::size_t>(acc_bits));
    }

    // --- Charges, closed form where they are integers. The doubles
    // take the per-conversion addends in conversion-major,
    // pipeline-minor order, so every sum is bit-identical to adding
    // them one conversion, transfer and macro at a time. The ACE
    // leaves its per-conversion ace.adc charge to this loop.
    const u64 count = plan.count;
    iiu_.recordInjected(cfg_.iiu.enabled ? count * n_pipes * plan.addOps
                                         : 0);
    if (tally_ != nullptr) {
        CostEntry &adc = *adcEntry_.get(tally_);
        CostEntry &network = *networkEntry_.get(tally_);
        CostEntry &boolop = *boolopEntry_.get(tally_);
        adc.events += count;
        adc.cycles += count * ace_.conversionCycles();
        network.events += count * n_pipes;
        network.cycles += count * cols;
        const u64 column_ops =
            ((count - plan.subs) * plan.addOps + plan.subs * plan.subOps) *
            n_pipes;
        boolop.events += column_ops;
        boolop.cycles += column_ops;

        const double adc_energy = ace_.conversionEnergy();
        const double add_energy = static_cast<double>(plan.addOps) *
                                  cfg_.dce.pipeline.opEnergyPJ;
        const double sub_energy = static_cast<double>(plan.subOps) *
                                  cfg_.dce.pipeline.opEnergyPJ;
        double adc_sum = adc.energy;
        double network_sum = network.energy;
        double boolop_sum = boolop.energy;
        for (const ReductionPlan::Run &run : plan.runs) {
            const double macro_energy =
                run.kind == digital::MacroKind::Sub ? sub_energy
                                                    : add_energy;
            for (std::size_t k = 0; k < run.count; ++k) {
                adc_sum += adc_energy;
                for (std::size_t p = 0; p < n_pipes; ++p) {
                    network_sum += plan.networkEnergy[p];
                    boolop_sum += macro_energy;
                }
            }
        }
        adc.energy = adc_sum;
        network.energy = network_sum;
        boolop.energy = boolop_sum;
    }
    return done;
}

Cycle
Hct::reduceWalk(const std::vector<i64> &x, int input_bits,
                Cycle analog_start, std::vector<i64> &values)
{
    const auto stream = ace_.execMvm(x, input_bits, analog_start);
    ++mvmCount_;

    const std::size_t cols = ace_.matrix().cols();
    const std::size_t width = cfg_.dce.pipeline.width;
    const std::size_t n_pipes = reductionPipes();
    const int acc_bits = accumulatorBits(input_bits);
    const u64 mask = (u64{1} << acc_bits) - 1;
    CostEntry *t_network =
        tally_ != nullptr ? &tally_->entry("hct.network") : nullptr;
    const u64 adc_bytes =
        (static_cast<u64>(cfg_.ace.adc.bits) + 7) / 8;

    // Pipeline reserve: mark the accumulator and staging registers
    // dead and clear them (Section 4.2's reserve instruction).
    for (std::size_t p = 0; p < n_pipes; ++p) {
        dce_.pipeline(p).clearReg(kAccVr);
        dce_.pipeline(p).clearReg(kStageVr);
    }

    const Cycle setup = iiu_.sequenceSetup();
    std::vector<Cycle> port_free(n_pipes, analog_start + setup);
    Cycle done = analog_start + setup;
    const u64 uops_per_add =
        static_cast<u64>(
            digital::KernelCache::instance()
                .macro(digital::MacroKind::Add, cfg_.dce.pipeline.family)
                .program.opCount()) *
        static_cast<u64>(acc_bits);

    for (const auto &pp : stream) {
        for (std::size_t p = 0; p < n_pipes; ++p) {
            const std::size_t c0 = p * width;
            const std::size_t n = std::min(width, cols - c0);

            // --- Transfer: as with shift units, one row per cycle.
            const Cycle write_begin =
                std::max(port_free[p], pp.convStart);
            Cycle write_done =
                std::max(pp.readyAt,
                         write_begin + static_cast<Cycle>(n));
            if (!cfg_.transpose.enabled) {
                // DCE-emulated transpose: extra element-wise copies.
                write_done += transpose_.transposeCost(1, n, acc_bits);
            }
            port_free[p] = write_done;

            if (t_network != nullptr) {
                const u64 bytes = static_cast<u64>(n) * adc_bytes;
                t_network->events += 1;
                t_network->cycles += n;
                t_network->energy += static_cast<double>(bytes) *
                                     cfg_.networkEnergyPerBytePJ;
            }

            // --- Placement: the DCE writes the raw code, then shifts
            // it with Boolean µops (Figure 10a), serializing.
            digital::Pipeline &pipe = dce_.pipeline(p);
            u64 staged[64];
            for (std::size_t e = 0; e < n; ++e)
                staged[e] = static_cast<u64>(pp.values[c0 + e]) & mask;
            pipe.setElements(kStageVr, staged, n,
                             static_cast<std::size_t>(acc_bits));
            const Cycle ready = pipe.execShift(
                kStageVr, kStageVr, static_cast<std::size_t>(pp.shift),
                true, static_cast<std::size_t>(acc_bits), write_done);

            // --- Reduction: ADD/SUB into the accumulator, issued by
            // the IIU (or stalled through the front end).
            const Cycle issue = ready + iiu_.issueOverhead(uops_per_add);
            iiu_.recordInjected(cfg_.iiu.enabled ? uops_per_add : 0);
            done = std::max(
                done, pipe.execMacro(pp.negate ? digital::MacroKind::Sub
                                               : digital::MacroKind::Add,
                                     kAccVr, kAccVr, kStageVr,
                                     static_cast<std::size_t>(acc_bits),
                                     issue));
        }
    }

    // Read the accumulator back as sign-extended integers.
    values.resize(cols);
    for (std::size_t p = 0; p < n_pipes; ++p) {
        const std::size_t c0 = p * width;
        const std::size_t n = std::min(width, cols - c0);
        u64 raw[64];
        dce_.pipeline(p).elements(kAccVr, raw, n,
                                  static_cast<std::size_t>(acc_bits));
        for (std::size_t e = 0; e < n; ++e)
            values[c0 + e] = signExtend(raw[e], acc_bits);
    }
    return done;
}

Cycle
Hct::disableAnalogMode(Cycle start)
{
    if (!analogEnabled_)
        return start;
    analogEnabled_ = false;
    if (!ace_.hasMatrix())
        return start;
    // Copy the matrix from the analog arrays into DCE registers: one
    // transpose per column tile plus the row writes.
    const auto &m = ace_.matrix();
    const Cycle begin = arbiter_.acquire(Mode::Digital, start);
    const Cycle cost =
        transpose_.transposeCost(m.rows(), m.cols(),
                                 static_cast<std::size_t>(
                                     vacore_.elementBits)) +
        static_cast<Cycle>(m.rows());
    const Cycle done = begin + cost;
    arbiter_.release(done);
    return done;
}

Cycle
Hct::digitalMacro(std::size_t pipe, digital::MacroKind kind,
                  std::size_t dst, std::size_t a, std::size_t b,
                  std::size_t bits, Cycle start)
{
    const Cycle begin = arbiter_.acquire(Mode::Digital, start);
    const Cycle done =
        dce_.pipeline(pipe).execMacro(kind, dst, a, b, bits, begin);
    arbiter_.release(done);
    return done;
}

Cycle
Hct::digitalShift(std::size_t pipe, std::size_t dst, std::size_t src,
                  std::size_t k, bool up, std::size_t bits, Cycle start)
{
    const Cycle begin = arbiter_.acquire(Mode::Digital, start);
    const Cycle done =
        dce_.pipeline(pipe).execShift(dst, src, k, up, bits, begin);
    arbiter_.release(done);
    return done;
}

Cycle
Hct::elementLoad(std::size_t pipe, std::size_t dst, std::size_t addr_vr,
                 std::size_t table_pipe, std::size_t table_base_vr,
                 std::size_t bits, Cycle start)
{
    const Cycle begin = arbiter_.acquire(Mode::Digital, start);
    const Cycle done = dce_.pipeline(pipe).elementLoad(
        dst, addr_vr, dce_.pipeline(table_pipe), table_base_vr, bits,
        begin);
    arbiter_.release(done);
    return done;
}

} // namespace hct
} // namespace darth
