/**
 * @file
 * Fleet lifecycle tests: tenant churn (lazy placement, reclaim on
 * departure), live migration (mid-graph, aborted, load-balancing),
 * and autoscaling — all asserting the standing serve invariants:
 * outputs bit-identical to a static run of the same trace, begun
 * work always finishes, lifecycle events journaled.
 */

#include <cstddef>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "journal/Journal.h"
#include "serve/Admission.h"
#include "serve/ChipConfig.h"
#include "serve/ChipPool.h"
#include "serve/TrafficGen.h"

namespace darth
{
namespace serve
{
namespace
{

PoolConfig
uniformPool(std::size_t chips, std::size_t hcts,
            PlacementPolicy placement = PlacementPolicy::LeastLoaded)
{
    PoolConfig cfg;
    cfg.chips.assign(chips, uniformChipSpec(hcts));
    cfg.placement = placement;
    return cfg;
}

TenantSpec
microSpec(const std::string &name, double rate, WallNs arrive = 0,
          WallNs depart = 0)
{
    TenantSpec spec;
    spec.name = name;
    spec.kind = WorkloadKind::Micro;
    spec.ratePerKns = rate;
    spec.arriveNs = arrive;
    spec.departNs = depart;
    return spec;
}

/** The static twin: same specs (windows ignored — every placement
 *  eager), same explicit trace, no fleet. */
ServeReport
staticRun(const PoolConfig &pcfg, const std::vector<TenantSpec> &specs,
          const std::vector<ServeRequest> &trace,
          const AdmissionConfig &acfg, u64 traffic_seed)
{
    ChipPool pool(pcfg);
    AdmissionController ac(pool, TrafficGen(traffic_seed), specs, acfg);
    return ac.run(trace);
}

/** Count journal events of one kind. */
std::size_t
countKind(const journal::Journal &jr, journal::EventKind kind)
{
    std::size_t n = 0;
    for (const auto &e : jr.events())
        if (e.kind == kind)
            n += 1;
    return n;
}

TEST(Fleet, ChurnCreatesAndReclaimsPlacements)
{
    const u64 seed = 71;
    const PoolConfig pcfg = uniformPool(2, 2);
    std::vector<TenantSpec> specs = {
        microSpec("stayer", 2.0),
        microSpec("visitor", 3.0, /*arrive=*/400, /*depart=*/900)};
    TrafficGen gen(seed);
    const std::vector<ServeRequest> trace = gen.trace(specs, 1400);
    ASSERT_FALSE(trace.empty());
    // The visitor's requests sit inside its window only.
    bool visitor_seen = false;
    for (const ServeRequest &req : trace)
        if (req.tenant == 1) {
            visitor_seen = true;
            EXPECT_GE(req.arrival, 400u);
            EXPECT_LT(req.arrival, 900u);
        }
    ASSERT_TRUE(visitor_seen) << "trace never exercises the churn";

    AdmissionConfig acfg;
    acfg.queueDepth = 2;

    FleetConfig fcfg;
    fcfg.migration = false;
    fcfg.autoscale = false;
    fcfg.checkIntervalNs = 300;

    ChipPool pool(pcfg);
    AdmissionController ac(pool, TrafficGen(seed), specs, acfg, fcfg);
    journal::Journal jr;
    ac.setJournal(&jr);
    const ServeReport report = ac.run(trace);
    ac.setJournal(nullptr);

    EXPECT_EQ(report.completed, trace.size());
    EXPECT_EQ(report.rejected, 0u);
    EXPECT_EQ(report.fleet.arrivals, 1u);
    EXPECT_EQ(report.fleet.departures, 1u);
    EXPECT_EQ(countKind(jr, journal::EventKind::TenantArrive), 1u);
    EXPECT_EQ(countKind(jr, journal::EventKind::TenantDepart), 1u);
    for (const auto &e : jr.events()) {
        if (e.kind == journal::EventKind::TenantArrive) {
            EXPECT_EQ(e.cycle, 400u);
        }
        if (e.kind == journal::EventKind::TenantDepart) {
            EXPECT_GE(e.cycle, 900u);
        }
    }
    // The visitor's placement was reclaimed: only the stayer's
    // model is live at run end.
    std::size_t live = 0;
    for (std::size_t c = 0; c < 2; ++c)
        live += pool.liveModels(c);
    EXPECT_EQ(live, 1u);

    // Bit-identical outputs against the static twin.
    const ServeReport twin =
        staticRun(pcfg, specs, trace, acfg, seed);
    EXPECT_EQ(report.outputChecksum, twin.outputChecksum);
}

TEST(Fleet, MidGraphMigrationFinishesBegunWorkAndKeepsChecksum)
{
    const u64 seed = 72;
    const PoolConfig pcfg =
        uniformPool(2, 9, PlacementPolicy::CostAware);
    std::vector<TenantSpec> specs(1);
    specs[0].name = "cnn";
    specs[0].kind = WorkloadKind::CnnInfer;
    specs[0].ratePerKns = 1.2;
    TrafficGen gen(seed);
    const std::vector<ServeRequest> trace = gen.trace(specs, 4000);
    ASSERT_GE(trace.size(), 3u);

    AdmissionConfig acfg;
    acfg.queueDepth = 2;
    acfg.granularity = Granularity::Stage;

    FleetConfig fcfg;
    fcfg.autoscale = false;
    fcfg.checkIntervalNs = 250;
    // Any backlog against an idle peer triggers a migration, so the
    // single tenant ping-pongs between the chips.
    fcfg.migrateHighNs = 1;

    ChipPool pool(pcfg);
    AdmissionController ac(pool, TrafficGen(seed), specs, acfg, fcfg);
    journal::Journal jr;
    ac.setJournal(&jr);
    const ServeReport report = ac.run(trace);
    ac.setJournal(nullptr);

    EXPECT_GE(report.fleet.migrations, 1u);
    EXPECT_EQ(report.completed, trace.size());
    EXPECT_EQ(report.rejected, 0u);

    // Begun inferences never change chips: every stage event of one
    // request names the same chip, even across migrations.
    std::map<u64, u64> stage_chip;
    std::size_t first_migration = jr.size();
    bool straddled = false;
    for (std::size_t i = 0; i < jr.size(); ++i) {
        const auto &e = jr.event(i);
        if (e.kind == journal::EventKind::MigrationBegin &&
            first_migration == jr.size())
            first_migration = i;
        if (e.kind != journal::EventKind::StageSubmit &&
            e.kind != journal::EventKind::StageComplete)
            continue;
        const auto it = stage_chip.find(e.a);
        if (it == stage_chip.end()) {
            stage_chip[e.a] = e.c;
            continue;
        }
        EXPECT_EQ(it->second, e.c)
            << "request " << e.a << " changed chips mid-graph";
        // A stage event after the first migration for a request
        // begun before it: a graph straddled the migration.
        if (i > first_migration && first_migration < jr.size())
            straddled = true;
    }
    EXPECT_TRUE(straddled)
        << "no in-flight graph straddled a migration; the scenario "
           "is vacuous";

    const ServeReport twin =
        staticRun(pcfg, specs, trace, acfg, seed);
    EXPECT_EQ(report.outputChecksum, twin.outputChecksum);
}

TEST(Fleet, MigrationAbortsWhenNoOtherChipFits)
{
    const u64 seed = 73;
    // The peer slot is a single-tile chip the CNN cannot fit on, so
    // every migration attempt must abort and the placement keeps
    // serving where it is.
    PoolConfig pcfg;
    pcfg.chips = {uniformChipSpec(9), uniformChipSpec(1)};
    pcfg.placement = PlacementPolicy::LeastLoaded;
    std::vector<TenantSpec> specs(1);
    specs[0].name = "cnn";
    specs[0].kind = WorkloadKind::CnnInfer;
    specs[0].ratePerKns = 1.0;
    TrafficGen gen(seed);
    const std::vector<ServeRequest> trace = gen.trace(specs, 3000);
    ASSERT_GE(trace.size(), 2u);

    AdmissionConfig acfg;
    acfg.queueDepth = 2;

    FleetConfig fcfg;
    fcfg.autoscale = false;
    fcfg.checkIntervalNs = 250;
    fcfg.migrateHighNs = 1;

    ChipPool pool(pcfg);
    AdmissionController ac(pool, TrafficGen(seed), specs, acfg, fcfg);
    const ServeReport report = ac.run(trace);

    EXPECT_GE(report.fleet.migrationsAborted, 1u);
    EXPECT_EQ(report.fleet.migrations, 0u);
    EXPECT_EQ(report.completed, trace.size());
    EXPECT_EQ(report.rejected, 0u);

    const ServeReport twin =
        staticRun(pcfg, specs, trace, acfg, seed);
    EXPECT_EQ(report.outputChecksum, twin.outputChecksum);
}

TEST(Fleet, DepartWithInFlightStagesFinishesBegunWork)
{
    const u64 seed = 74;
    const PoolConfig pcfg = uniformPool(1, 9);
    std::vector<TenantSpec> specs(1);
    specs[0].name = "cnn";
    specs[0].kind = WorkloadKind::CnnInfer;
    specs[0].ratePerKns = 8.0;
    specs[0].departNs = 700;
    TrafficGen gen(seed);
    const std::vector<ServeRequest> trace = gen.trace(specs, 2000);
    ASSERT_GE(trace.size(), 2u);
    for (const ServeRequest &req : trace)
        EXPECT_LT(req.arrival, 700u);

    AdmissionConfig acfg;
    acfg.queueDepth = 2;
    acfg.granularity = Granularity::Stage;

    FleetConfig fcfg;
    fcfg.migration = false;
    fcfg.autoscale = false;
    fcfg.checkIntervalNs = 200;

    ChipPool pool(pcfg);
    AdmissionController ac(pool, TrafficGen(seed), specs, acfg, fcfg);
    journal::Journal jr;
    ac.setJournal(&jr);
    const ServeReport report = ac.run(trace);
    ac.setJournal(nullptr);

    // Departure never drops begun work: the whole backlog (stages
    // included) finishes after 700 ns, then the placement is
    // reclaimed.
    EXPECT_EQ(report.completed, trace.size());
    EXPECT_EQ(report.rejected, 0u);
    EXPECT_EQ(report.fleet.departures, 1u);
    EXPECT_EQ(pool.liveModels(0), 0u);
    bool saw_depart = false;
    for (const auto &e : jr.events())
        if (e.kind == journal::EventKind::TenantDepart) {
            saw_depart = true;
            EXPECT_GE(e.cycle, 700u);
            EXPECT_EQ(e.d, 700u);
        }
    EXPECT_TRUE(saw_depart);

    const ServeReport twin =
        staticRun(pcfg, specs, trace, acfg, seed);
    EXPECT_EQ(report.outputChecksum, twin.outputChecksum);
}

TEST(Fleet, AutoscaleDrainsQuietSlotsAndReactivatesUnderLoad)
{
    const u64 seed = 75;
    const PoolConfig pcfg = uniformPool(3, 2);
    // One diurnal tenant: a heavy on-phase, then a long quiet phase,
    // repeating. Quiet phases drain slots; the next burst brings one
    // back.
    std::vector<TenantSpec> specs = {microSpec("diurnal", 6.0)};
    specs[0].burst.onNs = 600;
    specs[0].burst.offNs = 1400;
    TrafficGen gen(seed);
    const std::vector<ServeRequest> trace = gen.trace(specs, 6000);
    ASSERT_GE(trace.size(), 4u);

    AdmissionConfig acfg;
    acfg.queueDepth = 1;

    FleetConfig fcfg;
    fcfg.checkIntervalNs = 150;
    fcfg.backlogHighNs = 60;
    fcfg.backlogLowNs = 10;
    fcfg.migrateHighNs = 40;
    fcfg.minActive = 1;

    ChipPool pool(pcfg);
    AdmissionController ac(pool, TrafficGen(seed), specs, acfg, fcfg);
    const ServeReport report = ac.run(trace);

    EXPECT_EQ(report.completed, trace.size());
    EXPECT_GE(report.fleet.chipDowns, 1u);
    EXPECT_GE(report.fleet.chipUps, 1u);

    const ServeReport twin =
        staticRun(pcfg, specs, trace, acfg, seed);
    EXPECT_EQ(report.outputChecksum, twin.outputChecksum);
}

/** The churn scenario's specs: a permanent tenant and a visitor
 *  present on [400, 900) ns. */
std::vector<TenantSpec>
churnSpecs()
{
    return {microSpec("stayer", 2.0),
            microSpec("visitor", 3.0, /*arrive=*/400, /*depart=*/900)};
}

/** Live placements over every chip of the pool. */
std::size_t
liveModels(const ChipPool &pool)
{
    std::size_t live = 0;
    for (std::size_t c = 0; c < pool.numChips(); ++c)
        live += pool.liveModels(c);
    return live;
}

TEST(Fleet, SecondRunThrowsBeforeTouchingThePoolOrJournal)
{
    // A fleet run rebinds and releases the tenant table's placements
    // (the visitor's is reclaimed at departure), so the controller
    // runs once: a second run fails with a typed error before any
    // request is pulled, leaving the pool and the journal as the
    // first run left them.
    const u64 seed = 71;
    const PoolConfig pcfg = uniformPool(2, 2);
    const std::vector<TenantSpec> specs = churnSpecs();
    const std::vector<ServeRequest> trace =
        TrafficGen(seed).trace(specs, 1400);
    ASSERT_FALSE(trace.empty());
    AdmissionConfig acfg;
    acfg.queueDepth = 2;
    FleetConfig fcfg;
    fcfg.migration = false;
    fcfg.autoscale = false;
    fcfg.checkIntervalNs = 300;

    ChipPool pool(pcfg);
    AdmissionController ac(pool, TrafficGen(seed), specs, acfg, fcfg);
    journal::Journal jr;
    ac.setJournal(&jr);
    const ServeReport first = ac.run(trace);
    EXPECT_EQ(first.completed, trace.size());
    const std::size_t records = jr.size();
    const std::size_t live = liveModels(pool);
    std::vector<Cycle> makespans;
    for (std::size_t c = 0; c < pool.numChips(); ++c)
        makespans.push_back(pool.runtime(c).scheduler().makespan());

    EXPECT_THROW((void)ac.run(trace), std::logic_error);
    VectorSource source(trace);
    EXPECT_THROW((void)ac.runStream(source), std::logic_error);
    EXPECT_EQ(jr.size(), records);
    EXPECT_EQ(liveModels(pool), live);
    for (std::size_t c = 0; c < pool.numChips(); ++c)
        EXPECT_EQ(pool.runtime(c).scheduler().makespan(), makespans[c]);
    ac.setJournal(nullptr);

    // A static controller reruns the same trace identically.
    ChipPool static_pool(pcfg);
    AdmissionController twin(static_pool, TrafficGen(seed), specs, acfg);
    const ServeReport once = twin.run(trace);
    const ServeReport again = twin.run(trace);
    EXPECT_EQ(once.outputChecksum, first.outputChecksum);
    EXPECT_EQ(again.outputChecksum, once.outputChecksum);
    EXPECT_EQ(again.completed, once.completed);
}

TEST(Fleet, InvalidConfigsThrowWithNothingPlaced)
{
    // Every input is checked before the first placement: a rejected
    // fleet config, or a zero window depth in fleet mode, leaves the
    // pool empty and journals no Placement record.
    struct Case
    {
        FleetConfig fleet;
        AdmissionConfig admission;
    };
    std::vector<Case> cases(4);
    cases[0].fleet.checkIntervalNs = 0;
    cases[1].fleet.minActive = 0;
    ASSERT_TRUE(cases[2].fleet.autoscale);
    cases[2].fleet.backlogLowNs = cases[2].fleet.backlogHighNs;
    cases[3].admission.queueDepth = 0;

    for (std::size_t i = 0; i < cases.size(); ++i) {
        ChipPool pool(uniformPool(2, 2));
        journal::Journal jr;
        pool.setJournal(&jr);
        EXPECT_THROW(AdmissionController(pool, TrafficGen(71), churnSpecs(),
                                         cases[i].admission,
                                         cases[i].fleet),
                     std::invalid_argument)
            << "case " << i;
        pool.setJournal(nullptr);
        for (std::size_t c = 0; c < pool.numChips(); ++c)
            EXPECT_EQ(pool.liveModels(c), 0u) << "case " << i;
        EXPECT_EQ(countKind(jr, journal::EventKind::Placement), 0u)
            << "case " << i;
    }
}

} // namespace
} // namespace serve
} // namespace darth
