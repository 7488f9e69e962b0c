/**
 * @file
 * Unit tests for the ADC models.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "analog/Adc.h"

namespace darth
{
namespace analog
{
namespace
{

AdcParams
sar8()
{
    AdcParams p;
    p.kind = AdcKind::Sar;
    p.bits = 8;
    return p;
}

AdcParams
ramp8()
{
    AdcParams p;
    p.kind = AdcKind::Ramp;
    p.bits = 8;
    return p;
}

TEST(Adc, CodeRange)
{
    Adc adc(sar8());
    EXPECT_EQ(adc.maxCode(), 127);
    EXPECT_EQ(adc.minCode(), -128);
}

TEST(Adc, ConvertRoundsToNearest)
{
    Adc adc(sar8());
    EXPECT_EQ(adc.convert(41.4), 41);
    EXPECT_EQ(adc.convert(41.6), 42);
    EXPECT_EQ(adc.convert(-3.4), -3);
    EXPECT_EQ(adc.convert(0.0), 0);
}

TEST(Adc, ConvertSaturates)
{
    Adc adc(sar8());
    EXPECT_EQ(adc.convert(500.0), 127);
    EXPECT_EQ(adc.convert(-500.0), -128);
}

TEST(Adc, ConvertIsMonotonic)
{
    Adc adc(sar8());
    i64 prev = adc.minCode();
    for (double v = -200.0; v <= 200.0; v += 0.5) {
        const i64 code = adc.convert(v);
        EXPECT_GE(code, prev);
        prev = code;
    }
}

TEST(Adc, SarLatencyMultiplexesLanes)
{
    Adc adc(sar8());
    // 64 bitlines over 2 ADCs at 1 cycle each = 32 cycles (Table 2).
    EXPECT_EQ(adc.conversionLatency(64, 2), 32u);
    EXPECT_EQ(adc.conversionLatency(64, 1), 64u);
    EXPECT_EQ(adc.conversionLatency(3, 2), 2u);
}

TEST(Adc, RampLatencyIsSweepIndependentOfLanes)
{
    Adc adc(ramp8());
    EXPECT_EQ(adc.conversionLatency(64, 1), 256u);
    EXPECT_EQ(adc.conversionLatency(1, 1), 256u);
}

TEST(Adc, RampEarlyTermination)
{
    // The AES MixColumns trick: only 4 reference states needed.
    Adc adc(ramp8());
    EXPECT_EQ(adc.conversionLatency(64, 1, 4), 4u);
    // Early termination cannot exceed the full sweep.
    EXPECT_EQ(adc.conversionLatency(64, 1, 999), 256u);
}

TEST(Adc, SarEnergyScalesWithLanes)
{
    Adc adc(sar8());
    EXPECT_DOUBLE_EQ(adc.conversionEnergy(64, 2),
                     64.0 * adc.params().sarEnergyPJ);
}

TEST(Adc, RampEnergyScalesWithSweep)
{
    Adc adc(ramp8());
    EXPECT_DOUBLE_EQ(adc.conversionEnergy(64, 1),
                     256.0 * adc.params().rampEnergyPerCyclePJ);
    EXPECT_DOUBLE_EQ(adc.conversionEnergy(64, 1, 4),
                     4.0 * adc.params().rampEnergyPerCyclePJ);
}

TEST(Adc, SarFasterThanRampForFullPrecision)
{
    // §7.3: SAR outperforms ramp except with early termination.
    Adc sar(sar8());
    Adc ramp(ramp8());
    EXPECT_LT(sar.conversionLatency(64, 2),
              ramp.conversionLatency(64, 1));
    EXPECT_LT(ramp.conversionLatency(64, 1, 4),
              sar.conversionLatency(64, 2));
}

TEST(Adc, BitsOutsideOneToThirtyTwoAreRejected)
{
    // maxCode()/minCode() shift by bits - 1: bits <= 0 would be a
    // negative shift and bits >= 64 an overflowing one.
    for (int bits : {-1, 0, 33, 64}) {
        AdcParams p = sar8();
        p.bits = bits;
        EXPECT_THROW((void)Adc{p}, std::invalid_argument) << bits;
    }
    AdcParams narrow = sar8();
    narrow.bits = 1;
    EXPECT_EQ(Adc(narrow).maxCode(), 0);
    EXPECT_EQ(Adc(narrow).minCode(), -1);
    AdcParams wide = ramp8();
    wide.bits = 32;
    EXPECT_EQ(Adc(wide).maxCode(), 2147483647);
    EXPECT_EQ(Adc(wide).minCode(), -2147483648LL);
}

TEST(AdcDeath, ZeroAdcsIsFatal)
{
    Adc adc(sar8());
    EXPECT_THROW((void)adc.conversionLatency(64, 0),
                 std::runtime_error);
}

TEST(Adc, KindNames)
{
    EXPECT_STREQ(adcKindName(AdcKind::Sar), "SAR");
    EXPECT_STREQ(adcKindName(AdcKind::Ramp), "Ramp");
}

} // namespace
} // namespace analog
} // namespace darth
