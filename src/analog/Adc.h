/**
 * @file
 * Analog-to-digital converter models (Section 2.2.1 / 7.3).
 *
 * Two ADC types are modelled, with the trade-offs the paper evaluates:
 *
 *  - SAR: binary search, 1 cycle per conversion (Table 2), but each
 *    ADC digitizes a single bitline at a time; the ACE multiplexes its
 *    2 SAR ADCs over 64 bitlines.
 *  - Ramp: linear sweep over 2^bits reference steps (256 cycles for
 *    8 bits), but the power-hungry reference generator is shared so
 *    all 64 bitlines convert in parallel — and the sweep can terminate
 *    early when only a few output states matter (the AES MixColumns
 *    trick of §5.3: 4 states instead of 256).
 */

#ifndef DARTH_ANALOG_ADC_H
#define DARTH_ANALOG_ADC_H

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/Types.h"

namespace darth
{
namespace analog
{

/** ADC architecture. */
enum class AdcKind { Sar, Ramp };

/** Printable name. */
const char *adcKindName(AdcKind kind);

/** Static parameters of an ADC (Table 2 / Table 3 defaults). */
struct AdcParams
{
    AdcKind kind = AdcKind::Sar;
    /** Resolution in bits (bipolar: codes in [-2^(bits-1), 2^(bits-1))). */
    int bits = 8;
    /** Conversion latency of a SAR ADC, cycles. */
    Cycle sarLatency = 1;
    /** Full-sweep latency of a ramp ADC, cycles (one per reference step). */
    Cycle rampFullLatency = 256;
    /** Energy of one SAR conversion, picojoules (1.5 mW @ 1 GHz). */
    double sarEnergyPJ = 1.5;
    /** Ramp energy per sweep cycle, picojoules (1.2 mW @ 1 GHz). */
    double rampEnergyPerCyclePJ = 1.2;
};

/**
 * Behavioural ADC: quantizes a (possibly signed) analog value that is
 * expressed in LSB units, and reports latency/energy per use.
 */
class Adc
{
  public:
    /** @throws std::invalid_argument unless params.bits is in [1, 32]. */
    explicit Adc(const AdcParams &params);

    const AdcParams &params() const { return params_; }

    /** Largest representable code. */
    i64 maxCode() const { return (i64{1} << (params_.bits - 1)) - 1; }

    /** Smallest representable code. */
    i64 minCode() const { return -(i64{1} << (params_.bits - 1)); }

    /**
     * Quantize a value expressed in LSB units (the front end scales
     * bitline current to LSBs). Saturates at the code range.
     * Defined inline: every ACE bitline sample funnels through here,
     * making it the highest-call-count function of the analog model.
     */
    i64
    convert(double value_lsb) const
    {
        const double rounded = std::nearbyint(value_lsb);
        const i64 code = static_cast<i64>(rounded);
        return std::clamp(code, minCode(), maxCode());
    }

    /**
     * Latency to digitize `lanes` bitlines with `count` ADCs of this
     * type. SAR ADCs round-robin the lanes; ramp ADCs convert all
     * lanes in one (possibly early-terminated) sweep.
     *
     * @param lanes        Bitlines to convert.
     * @param count        Number of ADC instances available.
     * @param ramp_states  For ramp: number of reference steps to sweep
     *                     (0 = full range). Ignored for SAR.
     */
    Cycle conversionLatency(std::size_t lanes, std::size_t count,
                            Cycle ramp_states = 0) const;

    /** Energy to digitize `lanes` bitlines (same conventions). */
    double conversionEnergy(std::size_t lanes, std::size_t count,
                            Cycle ramp_states = 0) const;

  private:
    AdcParams params_;
};

} // namespace analog
} // namespace darth

#endif // DARTH_ANALOG_ADC_H
