#include "analog/Adc.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/Logging.h"

namespace darth
{
namespace analog
{

const char *
adcKindName(AdcKind kind)
{
    return kind == AdcKind::Sar ? "SAR" : "Ramp";
}

Adc::Adc(const AdcParams &params) : params_(params)
{
    // maxCode()/minCode() shift by bits - 1, and the ACE's exact path
    // holds codes in i32 lanes, so 32 bits is the widest code.
    if (params_.bits < 1 || params_.bits > 32)
        throw std::invalid_argument(
            "Adc: bits must be in [1, 32], got " +
            std::to_string(params_.bits));
}

Cycle
Adc::conversionLatency(std::size_t lanes, std::size_t count,
                       Cycle ramp_states) const
{
    if (count == 0)
        darth_fatal("Adc: at least one ADC instance is required");
    if (params_.kind == AdcKind::Sar) {
        const std::size_t rounds = (lanes + count - 1) / count;
        return static_cast<Cycle>(rounds) * params_.sarLatency;
    }
    // Ramp: all lanes share the sweep; early termination caps the
    // number of reference steps.
    const Cycle sweep = ramp_states == 0
                            ? params_.rampFullLatency
                            : std::min(ramp_states,
                                       params_.rampFullLatency);
    return sweep;
}

double
Adc::conversionEnergy(std::size_t lanes, std::size_t count,
                      Cycle ramp_states) const
{
    if (params_.kind == AdcKind::Sar)
        return static_cast<double>(lanes) * params_.sarEnergyPJ;
    const Cycle sweep = conversionLatency(lanes, count, ramp_states);
    return static_cast<double>(sweep) * params_.rampEnergyPerCyclePJ;
}

} // namespace analog
} // namespace darth
