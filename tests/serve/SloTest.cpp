/**
 * @file
 * Tests for SLO burn-rate accounting: the burn-rate math (SRE
 * convention with the trace as the window), rejected-request
 * handling, spec validation at the traffic front door, and the
 * end-to-end wiring through AdmissionController into TenantStats.
 */

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "serve/Admission.h"
#include "serve/ChipConfig.h"
#include "serve/ChipPool.h"
#include "serve/Slo.h"
#include "serve/TrafficGen.h"

namespace darth
{
namespace serve
{
namespace
{

TEST(SloTest, DisabledSpecTracksNothing)
{
    SloStats stats;   // latencyTargetNs 0 = disabled
    EXPECT_FALSE(stats.spec.enabled());
    stats.recordLatency(100);
    stats.recordRejected();
    EXPECT_EQ(stats.eligible, 0u);
    EXPECT_EQ(stats.violations, 0u);
    EXPECT_EQ(stats.burnRate(), 0.0);
    EXPECT_EQ(stats.budgetRemaining(), 1.0);
}

TEST(SloTest, BurnRateIsViolationFractionOverBudget)
{
    SloStats stats;
    stats.spec = {1000, 0.9};   // 10% error budget
    // 8 hits, 2 misses over 10 eligible: fraction 0.2, burn 2.0.
    for (int i = 0; i < 8; ++i)
        stats.recordLatency(1000);   // at the target = a hit
    stats.recordLatency(1001);
    stats.recordLatency(5000);
    EXPECT_EQ(stats.eligible, 10u);
    EXPECT_EQ(stats.violations, 2u);
    EXPECT_DOUBLE_EQ(stats.violationFraction(), 0.2);
    EXPECT_NEAR(stats.burnRate(), 2.0, 1e-12);
    EXPECT_NEAR(stats.budgetRemaining(), -1.0, 1e-12);
}

TEST(SloTest, AllMissesBurnAtInverseBudget)
{
    // Every request violates a 1-cycle target: burn = 1 / budget.
    SloStats stats;
    stats.spec = {1, 0.9};
    for (int i = 0; i < 25; ++i)
        stats.recordLatency(100);
    EXPECT_NEAR(stats.burnRate(), 10.0, 1e-9);

    // No violations at all: burn exactly 0, full budget remaining.
    SloStats clean;
    clean.spec = {1 << 20, 0.999};
    for (int i = 0; i < 25; ++i)
        clean.recordLatency(100);
    EXPECT_EQ(clean.burnRate(), 0.0);
    EXPECT_EQ(clean.budgetRemaining(), 1.0);
}

TEST(SloTest, RejectionsAreViolations)
{
    SloStats stats;
    stats.spec = {1000, 0.5};   // 50% budget
    stats.recordLatency(10);    // hit
    stats.recordRejected();     // miss
    EXPECT_EQ(stats.eligible, 2u);
    EXPECT_EQ(stats.violations, 1u);
    EXPECT_NEAR(stats.burnRate(), 1.0, 1e-12);
}

TEST(SloTest, ZeroBudgetViolationBurnsInfinitely)
{
    // validateSpec rejects availability 1.0 at the front door, but
    // the math itself must not divide by zero if handed one.
    SloStats stats;
    stats.spec = {10, 1.0};
    stats.recordLatency(100);
    EXPECT_TRUE(std::isinf(stats.burnRate()));
}

TEST(SloTest, ValidateSpecRejectsBadAvailability)
{
    TenantSpec spec;
    spec.name = "t";
    spec.kind = WorkloadKind::Micro;
    spec.slo = {1000, 1.0};
    EXPECT_THROW(TrafficGen::validateSpec(spec),
                 std::invalid_argument);
    spec.slo = {1000, 0.0};
    EXPECT_THROW(TrafficGen::validateSpec(spec),
                 std::invalid_argument);
    spec.slo = {1000, -0.5};
    EXPECT_THROW(TrafficGen::validateSpec(spec),
                 std::invalid_argument);
    // In (0, 1) is fine; so is any availability when disabled.
    spec.slo = {1000, 0.999};
    EXPECT_NO_THROW(TrafficGen::validateSpec(spec));
    spec.slo = {0, 1.0};
    EXPECT_NO_THROW(TrafficGen::validateSpec(spec));
}

TEST(SloTest, AdmissionRunTracksPerTenantBurn)
{
    TrafficGen gen(77);
    PoolConfig pool_cfg;
    pool_cfg.chip = uniformChipSpec(3).chip;
    pool_cfg.numChips = 1;
    ChipPool pool(pool_cfg);

    std::vector<TenantSpec> specs(3);
    specs[0].name = "impossible";
    specs[0].kind = WorkloadKind::Micro;
    specs[0].ratePerKns = 2.0;
    specs[0].slo = {1, 0.9};   // every completion misses
    specs[1].name = "unreachable";
    specs[1].kind = WorkloadKind::Micro;
    specs[1].ratePerKns = 2.0;
    specs[1].slo = {Cycle{1} << 40, 0.999};   // nothing misses
    specs[2].name = "untracked";
    specs[2].kind = WorkloadKind::Micro;
    specs[2].ratePerKns = 2.0;   // SLO disabled

    AdmissionConfig cfg;
    cfg.queueDepth = 2;
    AdmissionController ac(pool, gen, specs, cfg);
    const ServeReport report = ac.run(gen.trace(specs, 20000));

    const SloStats &impossible = report.tenants[0].slo;
    ASSERT_GT(report.tenants[0].completed, 0u);
    EXPECT_EQ(impossible.eligible, report.tenants[0].completed);
    EXPECT_EQ(impossible.violations, impossible.eligible);
    EXPECT_NEAR(impossible.burnRate(), 10.0, 1e-9);

    const SloStats &unreachable = report.tenants[1].slo;
    ASSERT_GT(report.tenants[1].completed, 0u);
    EXPECT_EQ(unreachable.eligible, report.tenants[1].completed);
    EXPECT_EQ(unreachable.violations, 0u);
    EXPECT_EQ(unreachable.burnRate(), 0.0);

    EXPECT_EQ(report.tenants[2].slo.eligible, 0u);
    EXPECT_EQ(report.tenants[2].slo.burnRate(), 0.0);
}

TEST(SloTest, RejectedRequestsBurnBudget)
{
    TrafficGen gen(78);
    PoolConfig pool_cfg;
    pool_cfg.chip = uniformChipSpec(1).chip;
    pool_cfg.numChips = 1;
    ChipPool pool(pool_cfg);

    std::vector<TenantSpec> specs(1);
    specs[0].name = "hot";
    specs[0].kind = WorkloadKind::Micro;
    specs[0].ratePerKns = 50.0;   // far past one tile's capacity
    specs[0].slo = {Cycle{1} << 40, 0.9};   // only rejections miss

    AdmissionConfig cfg;
    cfg.queueDepth = 1;
    cfg.overflow = OverflowPolicy::Reject;
    AdmissionController ac(pool, gen, specs, cfg);
    const ServeReport report = ac.run(gen.trace(specs, 20000));

    ASSERT_GT(report.rejected, 0u);
    const SloStats &slo = report.tenants[0].slo;
    EXPECT_EQ(slo.eligible,
              report.tenants[0].completed +
                  report.tenants[0].rejected);
    EXPECT_EQ(slo.violations, report.tenants[0].rejected);
    EXPECT_GT(slo.burnRate(), 0.0);
}

} // namespace
} // namespace serve
} // namespace darth
