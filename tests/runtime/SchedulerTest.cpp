/**
 * @file
 * Tests for the asynchronous session API: the submission queue,
 * cross-HCT packing, per-session isolation, RAII handle lifetime,
 * and bit-identity between interleaved and sequential execution.
 */

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include <gtest/gtest.h>

#include "common/Fnv.h"
#include "common/Random.h"
#include "runtime/Runtime.h"

namespace darth
{
namespace runtime
{
namespace
{

ChipConfig
smallChip(std::size_t num_hcts = 4)
{
    ChipConfig cfg;
    cfg.hct.dce.numPipelines = 4;
    cfg.hct.dce.pipeline.depth = 32;
    cfg.hct.dce.pipeline.width = 8;
    cfg.hct.dce.pipeline.numRegs = 8;
    cfg.hct.ace.numArrays = 8;
    cfg.hct.ace.arrayRows = 16;   // 8 signed rows per array
    cfg.hct.ace.arrayCols = 8;
    cfg.numHcts = num_hcts;
    return cfg;
}

MatrixI
randomMatrix(std::size_t rows, std::size_t cols, i64 lo, i64 hi,
             u64 seed)
{
    Rng rng(seed);
    MatrixI m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            m(r, c) = rng.uniformInt(lo, hi);
    return m;
}

std::vector<i64>
reference(const MatrixI &m, const std::vector<i64> &x)
{
    std::vector<i64> out(m.cols(), 0);
    for (std::size_t c = 0; c < m.cols(); ++c)
        for (std::size_t r = 0; r < m.rows(); ++r)
            out[c] += m(r, c) * x[r];
    return out;
}

std::vector<std::vector<i64>>
randomInputs(std::size_t count, std::size_t len, u64 seed)
{
    Rng rng(seed);
    std::vector<std::vector<i64>> inputs(count,
                                         std::vector<i64>(len, 0));
    for (auto &x : inputs)
        for (auto &v : x)
            v = rng.uniformInt(i64{-4}, i64{3});
    return inputs;
}

// Acceptance: two sessions interleaving submissions on one chip get
// isolated handles and results bit-identical to running the same
// work sequentially, one blocking MVM at a time, on a fresh chip.
TEST(Scheduler, InterleavedSessionsMatchSequentialExecution)
{
    const MatrixI m_a = randomMatrix(8, 8, -2, 2, 501);
    const MatrixI m_b = randomMatrix(8, 8, -3, 3, 502);
    const auto inputs_a = randomInputs(6, 8, 503);
    const auto inputs_b = randomInputs(6, 8, 504);

    // Interleaved: both sessions submit everything before waiting.
    Chip chip(smallChip(4));
    Runtime rt(chip);
    Session tenant_a = rt.createSession();
    Session tenant_b = rt.createSession();
    const MatrixHandle handle_a = tenant_a.setMatrix(m_a, 2, 0);
    const MatrixHandle handle_b = tenant_b.setMatrix(m_b, 2, 0);
    EXPECT_NE(handle_a.plan().parts[0].hctIndex,
              handle_b.plan().parts[0].hctIndex);

    std::vector<MvmFuture> futures_a, futures_b;
    for (std::size_t i = 0; i < inputs_a.size(); ++i) {
        futures_a.push_back(tenant_a.submit(handle_a, inputs_a[i], 3));
        futures_b.push_back(tenant_b.submit(handle_b, inputs_b[i], 3));
    }
    EXPECT_EQ(rt.scheduler().pendingCount(),
              inputs_a.size() + inputs_b.size());

    // Sequential: one fresh chip per tenant, strictly blocking.
    Chip seq_chip_a(smallChip(4));
    Runtime seq_rt_a(seq_chip_a);
    Session seq_a = seq_rt_a.createSession();
    const MatrixHandle seq_handle_a = seq_a.setMatrix(m_a, 2, 0);
    Chip seq_chip_b(smallChip(4));
    Runtime seq_rt_b(seq_chip_b);
    Session seq_b = seq_rt_b.createSession();
    const MatrixHandle seq_handle_b = seq_b.setMatrix(m_b, 2, 0);

    for (std::size_t i = 0; i < inputs_a.size(); ++i) {
        const auto got_a = tenant_a.wait(futures_a[i]);
        const auto got_b = tenant_b.wait(futures_b[i]);
        const auto want_a = seq_a.execMVM(seq_handle_a, inputs_a[i], 3);
        const auto want_b = seq_b.execMVM(seq_handle_b, inputs_b[i], 3);
        EXPECT_EQ(got_a.values, want_a.values) << "tenant A, MVM " << i;
        EXPECT_EQ(got_b.values, want_b.values) << "tenant B, MVM " << i;
        EXPECT_EQ(got_a.values, reference(m_a, inputs_a[i]));
        EXPECT_EQ(got_b.values, reference(m_b, inputs_b[i]));
    }
    EXPECT_EQ(rt.scheduler().pendingCount(), 0u);
}

TEST(Scheduler, SessionsCannotUseForeignHandles)
{
    Chip chip(smallChip(4));
    Runtime rt(chip);
    Session tenant_a = rt.createSession();
    Session tenant_b = rt.createSession();
    const MatrixHandle handle_a =
        tenant_a.setMatrix(randomMatrix(8, 8, 0, 1, 505), 1, 0);
    EXPECT_THROW(tenant_b.submit(handle_a, std::vector<i64>(8, 1), 1),
                 std::invalid_argument);
    // The rightful owner is unaffected.
    EXPECT_EQ(tenant_a.execMVM(handle_a, std::vector<i64>(8, 1), 1)
                  .values,
              reference(handle_a.matrix(), std::vector<i64>(8, 1)));
}

TEST(Scheduler, MvmOutgrowingTheAccumulatorIsRejectedAtSubmit)
{
    // 64 rows of 7-bit elements times 8-bit inputs need a 22-bit
    // accumulator; a depth-16 DCE would return a wrapped result.
    ChipConfig cfg = smallChip(1);
    cfg.hct.dce.pipeline.depth = 16;
    cfg.hct.ace.arrayRows = 128;
    Chip chip(cfg);
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle handle =
        session.setMatrixBits(MatrixI(64, 8, 127), 7, 2);
    EXPECT_THROW(session.submit(handle, std::vector<i64>(64, 127), 8),
                 std::invalid_argument);
    EXPECT_THROW(session.submit(handle, std::vector<i64>(64, 1), 3),
                 std::invalid_argument);
    EXPECT_EQ(rt.scheduler().pendingCount(), 0u);
    // 2-bit inputs need exactly the 16 bits there are.
    EXPECT_EQ(session.execMVM(handle, std::vector<i64>(64, 1), 2).values,
              std::vector<i64>(8, 64 * 127));
}

TEST(Scheduler, DependencyOnADoneCycleWiderThan32Bits)
{
    // Done cycles past 2^32 leave the 4-byte table for the wide map
    // and still bound their dependents exactly.
    Chip chip(smallChip(2));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle a =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 507), 1, 0);
    const MatrixHandle b =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 508), 1, 0);
    const Cycle late = Cycle{1} << 33;
    const MvmFuture first =
        session.submit(a, std::vector<i64>(8, 1), 1, late);
    const MvmResult first_result = session.wait(first);
    ASSERT_GT(first_result.done, late);
    const MvmFuture second =
        session.submit(b, std::vector<i64>(8, 1), 1, 0, {first});
    EXPECT_EQ(session.wait(second).start, first_result.done);
}

TEST(Scheduler, HandleMoveTransfersOwnership)
{
    Chip chip(smallChip(2));
    Runtime rt(chip);
    Session session = rt.createSession();
    MatrixHandle a =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 506), 1, 0);
    const MatrixI m = a.matrix();
    MatrixHandle b = std::move(a);
    EXPECT_FALSE(a.valid());
    EXPECT_TRUE(b.valid());
    EXPECT_THROW(session.submit(a, std::vector<i64>(8, 1), 1),
                 std::invalid_argument);
    EXPECT_EQ(session.execMVM(b, std::vector<i64>(8, 1), 1).values,
              reference(m, std::vector<i64>(8, 1)));
    // release() is idempotent and frees the tile.
    b.release();
    b.release();
    EXPECT_EQ(rt.freeHcts(), 2u);
}

TEST(Scheduler, PendingWorkSurvivesHandleRelease)
{
    // Releasing a handle drains its in-flight MVMs; the futures stay
    // resolvable afterwards.
    Chip chip(smallChip(2));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixI m = randomMatrix(8, 8, -1, 1, 507);
    MatrixHandle handle = session.setMatrix(m, 1, 0);
    const std::vector<i64> x(8, 1);
    const MvmFuture future = session.submit(handle, x, 1);
    handle.release();
    EXPECT_EQ(rt.freeHcts(), 2u);
    EXPECT_EQ(session.wait(future).values, reference(m, x));
}

TEST(Scheduler, DisjointPlacementsOverlapInTime)
{
    // Two matrices on different tiles: a batch against each overlaps
    // in simulated time, so the makespan is far below the serialized
    // sum.
    Chip chip(smallChip(2));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle a =
        session.setMatrix(randomMatrix(8, 8, -1, 1, 508), 1, 0);
    const MatrixHandle b =
        session.setMatrix(randomMatrix(8, 8, -1, 1, 509), 1, 0);
    const std::vector<i64> x(8, 1);
    const MvmFuture fa = session.submit(a, x, 2);
    const MvmFuture fb = session.submit(b, x, 2);
    const auto ra = session.wait(fa);
    const auto rb = session.wait(fb);
    // Both start at cycle 0 on their own tile.
    EXPECT_EQ(ra.start, 0u);
    EXPECT_EQ(rb.start, 0u);
    EXPECT_EQ(rt.scheduler().makespan(),
              std::max(ra.done, rb.done));
}

TEST(Scheduler, SameMatrixStreamIssuesAtAmortizedRate)
{
    // Back-to-back MVMs against one placement pipeline at the
    // KernelModel amortized rate (the throughput the mappers and
    // fig13 assume), not at the full serialized latency.
    const auto cfg = smallChip(1);
    Chip chip(cfg);
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle handle =
        session.setMatrix(randomMatrix(8, 8, -1, 1, 510), 1, 0);

    constexpr std::size_t kBatch = 5;
    std::vector<MvmFuture> futures;
    for (std::size_t i = 0; i < kBatch; ++i)
        futures.push_back(
            session.submit(handle, std::vector<i64>(8, 1), 2));

    KernelModel km(cfg.hct);
    const auto oracle = km.mvm(MvmShape{8, 8, 1, 1, 2});
    Cycle prev_done = 0;
    for (std::size_t i = 0; i < kBatch; ++i) {
        const auto result = session.wait(futures[i]);
        if (i == 0) {
            EXPECT_EQ(result.done, oracle.latency);
        } else {
            EXPECT_EQ(result.done - prev_done, oracle.amortized)
                << "MVM " << i << " did not pipeline";
        }
        prev_done = result.done;
    }
}

TEST(Scheduler, WaitAllDrainsEverything)
{
    Chip chip(smallChip(2));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle handle =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 511), 1, 0);
    for (int i = 0; i < 4; ++i)
        (void)session.submit(handle, std::vector<i64>(8, 1), 1);
    EXPECT_EQ(rt.scheduler().pendingCount(), 4u);
    session.waitAll();
    EXPECT_EQ(rt.scheduler().pendingCount(), 0u);
    EXPECT_EQ(rt.scheduler().completedCount(), 4u);
    EXPECT_GT(rt.scheduler().makespan(), 0u);
}

TEST(Scheduler, SessionWaitAllLeavesOtherSessionsQueued)
{
    Chip chip(smallChip(2));
    Runtime rt(chip);
    Session tenant_a = rt.createSession();
    Session tenant_b = rt.createSession();
    const MatrixHandle handle_a =
        tenant_a.setMatrix(randomMatrix(8, 8, 0, 1, 512), 1, 0);
    const MatrixHandle handle_b =
        tenant_b.setMatrix(randomMatrix(8, 8, 0, 1, 513), 1, 0);
    (void)tenant_a.submit(handle_a, std::vector<i64>(8, 1), 1);
    const MvmFuture fb =
        tenant_b.submit(handle_b, std::vector<i64>(8, 1), 1);
    tenant_a.waitAll();
    EXPECT_EQ(rt.scheduler().pendingCount(), 1u);
    EXPECT_EQ(tenant_b.wait(fb).values,
              reference(handle_b.matrix(), std::vector<i64>(8, 1)));
}

TEST(Scheduler, CrossSessionWaitIsRejected)
{
    // Result isolation: a session cannot resolve (and consume)
    // another session's future, before or after execution.
    Chip chip(smallChip(2));
    Runtime rt(chip);
    Session tenant_a = rt.createSession();
    Session tenant_b = rt.createSession();
    const MatrixI m = randomMatrix(8, 8, -1, 1, 516);
    const MatrixHandle handle_a = tenant_a.setMatrix(m, 1, 0);
    const std::vector<i64> x(8, 1);
    const MvmFuture pending = tenant_a.submit(handle_a, x, 1);
    EXPECT_THROW((void)tenant_b.wait(pending), std::invalid_argument);
    const MvmFuture executed = tenant_a.submit(handle_a, x, 1);
    tenant_a.waitAll();
    EXPECT_THROW((void)tenant_b.wait(executed),
                 std::invalid_argument);
    // The owner still collects both.
    EXPECT_EQ(tenant_a.wait(pending).values, reference(m, x));
    EXPECT_EQ(tenant_a.wait(executed).values, reference(m, x));
}

TEST(Scheduler, MidStreamEarliestStillPaysFullLatency)
{
    // A request whose `earliest` lands inside a running same-matrix
    // stream pipelines, but can never complete sooner than one full
    // MVM after its own issue cycle.
    const auto cfg = smallChip(1);
    Chip chip(cfg);
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle handle =
        session.setMatrix(randomMatrix(8, 8, -1, 1, 517), 1, 0);
    KernelModel km(cfg.hct);
    const auto oracle = km.mvm(MvmShape{8, 8, 1, 1, 2});

    const MvmFuture first =
        session.submit(handle, std::vector<i64>(8, 1), 2);
    // Issue just before the first MVM completes.
    const Cycle mid = oracle.latency - 1;
    const MvmFuture second =
        session.submit(handle, std::vector<i64>(8, 1), 2, mid);
    (void)session.wait(first);
    const auto result = session.wait(second);
    EXPECT_GE(result.start, mid);
    EXPECT_GE(result.done, result.start + oracle.latency);
}

TEST(Scheduler, FuturesResolveExactlyOnce)
{
    Chip chip(smallChip(1));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle handle =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 514), 1, 0);
    const MvmFuture future =
        session.submit(handle, std::vector<i64>(8, 1), 1);
    (void)session.wait(future);
    EXPECT_THROW((void)session.wait(future), std::invalid_argument);
    EXPECT_THROW((void)session.wait(MvmFuture{}),
                 std::invalid_argument);
}

TEST(Scheduler, SessionTeardownDrainsAndDiscards)
{
    // A session that dies with queued work executes it (handles may
    // outlive the session object) but its uncollected results are
    // dropped rather than retained forever.
    Chip chip(smallChip(2));
    Runtime rt(chip);
    {
        Session session = rt.createSession();
        const MatrixHandle handle =
            session.setMatrix(randomMatrix(8, 8, 0, 1, 518), 1, 0);
        for (int i = 0; i < 3; ++i)
            (void)session.submit(handle, std::vector<i64>(8, 1), 1);
        EXPECT_EQ(rt.scheduler().pendingCount(), 3u);
    }
    EXPECT_EQ(rt.scheduler().pendingCount(), 0u);
    EXPECT_EQ(rt.scheduler().completedCount(), 3u);
    EXPECT_EQ(rt.scheduler().uncollectedCount(), 0u);
    // The chip is fully reusable by the next tenant.
    EXPECT_EQ(rt.freeHcts(), 2u);
    Session next = rt.createSession();
    const MatrixI m = randomMatrix(8, 8, -1, 1, 519);
    const MatrixHandle handle = next.setMatrix(m, 1, 0);
    EXPECT_EQ(next.execMVM(handle, std::vector<i64>(8, 1), 1).values,
              reference(m, std::vector<i64>(8, 1)));
}

TEST(Scheduler, PipelinedStreamDoesNotInflateLaterIdleIssue)
{
    // The functional Hct executes pipelined same-matrix streams
    // serially, so its internal clock would drift ahead of the
    // modeled amortized timeline; the scheduler rebases it after
    // every issue. A request issued after the stream drains must pay
    // one MVM latency from its own start, not the phantom serial
    // time.
    const auto cfg = smallChip(1);
    Chip chip(cfg);
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle handle =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 526), 1, 0);
    KernelModel km(cfg.hct);
    const auto oracle = km.mvm(MvmShape{8, 8, 1, 1, 2});

    for (int i = 0; i < 10; ++i)
        (void)session.submit(handle, std::vector<i64>(8, 1), 2);
    session.waitAll();
    const Cycle drained = rt.scheduler().makespan();
    // Well past the drained schedule, but far less than the serial
    // sum the tile would have accumulated without the rebase.
    const Cycle late = drained + 2 * oracle.latency;
    ASSERT_LT(late, 10 * oracle.latency);
    const auto result = session.execMVM(
        handle, std::vector<i64>(8, 1), 2, late);
    EXPECT_EQ(result.start, late);
    EXPECT_EQ(result.done, late + oracle.latency);
}

TEST(Scheduler, QueueDepthAndPendingRequestsTrackSessions)
{
    Chip chip(smallChip(3));
    Runtime rt(chip);
    Session tenant_a = rt.createSession();
    Session tenant_b = rt.createSession();
    // Two distinct matrices for tenant A so draining its session
    // cannot opportunistically pipeline into tenant B's tile.
    const MatrixHandle handle_a1 =
        tenant_a.setMatrix(randomMatrix(8, 8, 0, 1, 520), 1, 0);
    const MatrixHandle handle_a2 =
        tenant_a.setMatrix(randomMatrix(8, 8, 0, 1, 525), 1, 0);
    const MatrixHandle handle_b =
        tenant_b.setMatrix(randomMatrix(8, 8, 0, 1, 521), 1, 0);
    EXPECT_EQ(rt.scheduler().pendingCount(), 0u);
    (void)tenant_a.submit(handle_a1, std::vector<i64>(8, 1), 1);
    (void)tenant_a.submit(handle_a2, std::vector<i64>(8, 1), 1);
    (void)tenant_b.submit(handle_b, std::vector<i64>(8, 1), 1);
    EXPECT_EQ(rt.scheduler().pendingCount(), 3u);
    EXPECT_EQ(rt.scheduler().pendingRequests(tenant_a.id()), 2u);
    EXPECT_EQ(rt.scheduler().pendingRequests(tenant_b.id()), 1u);
    EXPECT_EQ(rt.scheduler().pendingRequests(999), 0u);
    tenant_a.waitAll();
    EXPECT_EQ(rt.scheduler().pendingRequests(tenant_a.id()), 0u);
    EXPECT_EQ(rt.scheduler().pendingCount(), 1u);
    EXPECT_EQ(rt.scheduler().pendingRequests(tenant_b.id()), 1u);
}

TEST(Scheduler, SubmissionOrderHookKeepsFifoTimingUnderEarliest)
{
    // A same-matrix stream submitted out of earliest order: the
    // greedy packer would run the unconstrained request first; the
    // submission drain order serves strictly in submission order, so
    // the later-submitted request pays the pipeline spacing.
    const auto cfg = smallChip(1);
    KernelModel km(cfg.hct);
    const auto oracle = km.mvm(MvmShape{8, 8, 1, 1, 2});

    Chip chip(cfg);
    Runtime rt(chip);
    rt.scheduler().setDrainOrder(DrainOrder::Submission);
    Session session = rt.createSession();
    const MatrixHandle handle =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 524), 1, 0);
    const Cycle late = 10 * oracle.latency;
    const MvmFuture constrained =
        session.submit(handle, std::vector<i64>(8, 1), 2, late);
    const MvmFuture free_req =
        session.submit(handle, std::vector<i64>(8, 1), 2);
    const auto r_constrained = session.wait(constrained);
    const auto r_free = session.wait(free_req);
    // Submission order was honoured: the unconstrained request ran
    // second, into the pipeline the constrained one opened.
    EXPECT_EQ(r_constrained.start, late);
    EXPECT_GE(r_free.start, late);
}

TEST(Scheduler, EarliestBoundsTheStartCycle)
{
    Chip chip(smallChip(1));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle handle =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 515), 1, 0);
    const auto result = session.execMVM(
        handle, std::vector<i64>(8, 1), 1, /*earliest=*/1000);
    EXPECT_GE(result.start, 1000u);
    EXPECT_GT(result.done, 1000u);
}

TEST(Scheduler, AfterDependencyBoundsStartAcrossHandles)
{
    // Two handles on disjoint tiles would normally overlap at cycle
    // 0; an `after` dependency serializes them: the dependent MVM
    // starts no earlier than the dependency's completion. Values
    // stay bit-exact either way.
    const MatrixI m_a = randomMatrix(8, 8, -2, 2, 530);
    const MatrixI m_b = randomMatrix(8, 8, -2, 2, 531);
    const std::vector<i64> x(8, 1);

    Chip chip(smallChip(2));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle a = session.setMatrix(m_a, 2, 0);
    const MatrixHandle b = session.setMatrix(m_b, 2, 0);

    const MvmFuture fa = session.submit(a, x, 2);
    const MvmFuture fb = session.submit(b, x, 2, 0, {fa});
    const auto ra = session.wait(fa);
    const auto rb = session.wait(fb);
    EXPECT_EQ(ra.start, 0u);
    EXPECT_GE(rb.start, ra.done);
    EXPECT_EQ(ra.values, reference(m_a, x));
    EXPECT_EQ(rb.values, reference(m_b, x));

    // Control: without the dependency both placements start at 0.
    Chip free_chip(smallChip(2));
    Runtime free_rt(free_chip);
    Session free_session = free_rt.createSession();
    const MatrixHandle fa2 = free_session.setMatrix(m_a, 2, 0);
    const MatrixHandle fb2 = free_session.setMatrix(m_b, 2, 0);
    (void)free_session.submit(fa2, x, 2);
    const MvmFuture overlap = free_session.submit(fb2, x, 2);
    EXPECT_EQ(free_session.wait(overlap).start, 0u);
}

TEST(Scheduler, AfterChainDrainsDeterministically)
{
    // A three-stage chain across distinct handles, combined with an
    // `earliest` bound on the head: waiting only the tail must first
    // execute the chain in dependency order, and every link's start
    // clears its predecessor's done cycle.
    const MatrixI m_a = randomMatrix(8, 8, -1, 1, 532);
    const MatrixI m_b = randomMatrix(8, 8, -1, 1, 533);
    const MatrixI m_c = randomMatrix(8, 8, -1, 1, 534);
    const std::vector<i64> x(8, 1);

    Chip chip(smallChip(3));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle a = session.setMatrix(m_a, 1, 0);
    const MatrixHandle b = session.setMatrix(m_b, 1, 0);
    const MatrixHandle c = session.setMatrix(m_c, 1, 0);

    const MvmFuture fa =
        session.submit(a, x, 1, /*earliest=*/500);
    const MvmFuture fb = session.submit(b, x, 1, 0, {fa});
    const MvmFuture fc = session.submit(c, x, 1, 0, {fb});

    // Resolving the tail drains the chain (dependency-ready requests
    // only), leaving the earlier results collectable.
    const auto rc = session.wait(fc);
    EXPECT_EQ(rt.scheduler().pendingCount(), 0u);
    const auto ra = session.wait(fa);
    const auto rb = session.wait(fb);
    EXPECT_GE(ra.start, 500u);
    EXPECT_GE(rb.start, ra.done);
    EXPECT_GE(rc.start, rb.done);
    EXPECT_EQ(rc.values, reference(m_c, x));
}

TEST(Scheduler, AfterRejectsInvalidFutures)
{
    Chip chip(smallChip(1));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixI m = randomMatrix(8, 8, 0, 1, 535);
    const MatrixHandle handle = session.setMatrix(m, 1, 0);
    EXPECT_THROW(session.submit(handle, std::vector<i64>(8, 1), 1, 0,
                                {MvmFuture{}}),
                 std::invalid_argument);
    // A caught validation throw must not desynchronize request ids
    // from the dependency bookkeeping: later submits and dependency
    // chains keep working.
    const std::vector<i64> x(8, 1);
    const MvmFuture fa = session.submit(handle, x, 1);
    const MvmFuture fb = session.submit(handle, x, 1, 0, {fa});
    const auto ra = session.wait(fa);
    const auto rb = session.wait(fb);
    EXPECT_GE(rb.start, ra.done);
    EXPECT_EQ(rb.values, reference(m, x));
}

TEST(Scheduler, AfterRejectsForeignSchedulerFutures)
{
    // Ids are per-scheduler; a future issued by another chip's
    // scheduler must be rejected, not silently bound to whatever
    // local request shares the id.
    Chip chip_a(smallChip(1)), chip_b(smallChip(1));
    Runtime rt_a(chip_a), rt_b(chip_b);
    Session sa = rt_a.createSession();
    Session sb = rt_b.createSession();
    const MatrixHandle ha =
        sa.setMatrix(randomMatrix(8, 8, 0, 1, 540), 1, 0);
    const MatrixHandle hb =
        sb.setMatrix(randomMatrix(8, 8, 0, 1, 541), 1, 0);
    const MvmFuture foreign =
        sa.submit(ha, std::vector<i64>(8, 1), 1);
    EXPECT_THROW(sb.submit(hb, std::vector<i64>(8, 1), 1, 0,
                           {foreign}),
                 std::invalid_argument);
    sa.waitAll();
}

TEST(Scheduler, CountersTrackPipelineHitsAndDependencyStalls)
{
    Chip chip(smallChip(2));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle a =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 536), 1, 0);
    const MatrixHandle b =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 537), 1, 0);
    const std::vector<i64> x(8, 1);

    // Three back-to-back MVMs on one placement: the second and third
    // pipeline into the running stream.
    MvmFuture last_a;
    for (int i = 0; i < 3; ++i)
        last_a = session.submit(a, x, 1);
    session.waitAll();
    EXPECT_EQ(rt.scheduler().counters().issued, 3u);
    EXPECT_EQ(rt.scheduler().counters().pipelineHits, 2u);
    EXPECT_EQ(rt.scheduler().counters().dependencyStalls, 0u);

    // A dependent MVM on an idle tile: only the dependency delays it.
    const MvmFuture fb = session.submit(b, x, 1, 0, {last_a});
    (void)session.wait(fb);
    EXPECT_EQ(rt.scheduler().counters().issued, 4u);
    EXPECT_EQ(rt.scheduler().counters().dependencyStalls, 1u);
}

TEST(Scheduler, BacklogCyclesTracksQueuedOracleWork)
{
    // backlogCycles is queue pressure in cycles: the summed oracle
    // latency of unexecuted requests, falling as the queue drains —
    // the load term of the pool's CostAware placement.
    const ChipConfig cfg = smallChip(1);
    Chip chip(cfg);
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixI m = randomMatrix(8, 8, -2, 2, 520);
    const MatrixHandle handle = session.setMatrix(m, 2, 0);

    EXPECT_EQ(rt.scheduler().backlogCycles(), 0u);
    const Cycle oracle =
        rt.scheduler().oracleCost(handle.plan(), 3);
    ASSERT_GT(oracle, 0u);

    std::vector<MvmFuture> futures;
    for (int i = 0; i < 3; ++i)
        futures.push_back(
            session.submit(handle, std::vector<i64>(8, 1), 3));
    EXPECT_EQ(rt.scheduler().backlogCycles(), 3 * oracle);

    // Waiting one future drains it (and everything the greedy order
    // executes first); the backlog shrinks accordingly.
    (void)session.wait(futures[0]);
    EXPECT_LT(rt.scheduler().backlogCycles(), 3 * oracle);
    session.waitAll();
    EXPECT_EQ(rt.scheduler().backlogCycles(), 0u);
}

TEST(Scheduler, WaitRejectsForeignSchedulerFutures)
{
    // Session ids and request ids are per-Runtime, so both chips'
    // first sessions are 1 and their first requests share an id. A
    // future must only resolve on the scheduler that issued it, not
    // to the local request that happens to share its id.
    Chip chip_a(smallChip(1)), chip_b(smallChip(1));
    Runtime rt_a(chip_a), rt_b(chip_b);
    Session sa = rt_a.createSession();
    Session sb = rt_b.createSession();
    ASSERT_EQ(sa.id(), sb.id());
    const MatrixI m_a = randomMatrix(8, 8, 0, 1, 542);
    const MatrixI m_b = randomMatrix(8, 8, 0, 1, 543);
    const MatrixHandle ha = sa.setMatrix(m_a, 1, 0);
    const MatrixHandle hb = sb.setMatrix(m_b, 1, 0);
    const std::vector<i64> x(8, 1);

    const MvmFuture fa = sa.submit(ha, x, 1);
    const MvmFuture fb = sb.submit(hb, x, 1);
    ASSERT_EQ(fa.id(), fb.id());
    EXPECT_THROW((void)sb.wait(fa), std::invalid_argument);
    // The refused wait consumed neither request.
    EXPECT_EQ(sb.wait(fb).values, reference(m_b, x));
    EXPECT_EQ(sa.wait(fa).values, reference(m_a, x));

    // Executed-but-uncollected results are guarded the same way.
    const MvmFuture fa2 = sa.submit(ha, x, 1);
    const MvmFuture fb2 = sb.submit(hb, x, 1);
    sa.waitAll();
    sb.waitAll();
    EXPECT_THROW((void)sb.wait(fa2), std::invalid_argument);
    EXPECT_EQ(sb.wait(fb2).values, reference(m_b, x));
    EXPECT_EQ(sa.wait(fa2).values, reference(m_a, x));
}

TEST(Scheduler, QueueBookkeepingIsExactAcrossRuns)
{
    // Six runs over four placements with `earliest` bounds far apart,
    // so the greedy order is known: after every submit, wait and
    // drain, the queue counters must count exactly the requests still
    // queued.
    Chip chip(smallChip(4));
    Runtime rt(chip);
    Scheduler &sched = rt.scheduler();
    Session a = rt.createSession();
    std::optional<Session> b(rt.createSession());
    const u64 a_id = a.id();
    const u64 b_id = b->id();
    const MatrixHandle a0 =
        a.setMatrix(randomMatrix(8, 8, 0, 1, 560), 1, 0);
    const MatrixHandle a1 =
        a.setMatrix(randomMatrix(8, 8, 0, 1, 561), 1, 0);
    const MatrixHandle b0 =
        b->setMatrix(randomMatrix(8, 8, 0, 1, 562), 1, 0);
    const MatrixHandle b1 =
        b->setMatrix(randomMatrix(8, 8, 0, 1, 563), 1, 0);
    const std::vector<i64> x(8, 1);
    const Cycle cost = sched.oracleCost(a0.plan(), 1);
    const Cycle gap = 100 * cost;

    const auto expect_queued = [&](std::size_t in_a, std::size_t in_b,
                                   const char *when) {
        SCOPED_TRACE(when);
        EXPECT_EQ(sched.pendingCount(), in_a + in_b);
        EXPECT_EQ(sched.pendingRequests(a_id), in_a);
        EXPECT_EQ(sched.pendingRequests(b_id), in_b);
        EXPECT_EQ(sched.backlogCycles(), (in_a + in_b) * cost);
    };

    std::vector<MvmFuture> fa, fb;
    for (int i = 0; i < 3; ++i) {
        fa.push_back(a.submit(a0, x, 1, 3 * gap));
        expect_queued(fa.size(), 0, "run 1: a0 at 3 gaps");
    }
    for (int i = 0; i < 2; ++i) {
        fb.push_back(b->submit(b0, x, 1));
        expect_queued(3, fb.size(), "run 2: b0 at 0");
    }
    for (int i = 0; i < 2; ++i) {
        fa.push_back(a.submit(a1, x, 1, gap));
        expect_queued(fa.size(), 2, "run 3: a1 at 1 gap");
    }
    for (int i = 0; i < 2; ++i) {
        fb.push_back(b->submit(b1, x, 1, 2 * gap));
        expect_queued(5, fb.size(), "run 4: b1 at 2 gaps");
    }
    // Run 4's placement and bound, but a dependency: run 5.
    fb.push_back(b->submit(b1, x, 1, 2 * gap, {fb[0]}));
    expect_queued(5, 5, "run 5: b1 at 2 gaps after fb[0]");

    // fa[3] is the front of the middle run: the wrong session is
    // refused before anything executes.
    EXPECT_THROW((void)b->wait(fa[3]), std::invalid_argument);
    expect_queued(5, 5, "refused wait");

    // Greedy order: run 2 (start 0), then run 3 (start 1 gap) up to
    // fa[4]; run 5's dependency is met on the way.
    EXPECT_GE(a.wait(fa[4]).start, gap);
    expect_queued(3, 3, "wait fa[4]");
    EXPECT_EQ(sched.uncollectedCount(), 3u);
    EXPECT_THROW((void)a.wait(fa[4]), std::invalid_argument);
    expect_queued(3, 3, "wait on a collected future");

    // Run 1's placement and bound, but run 5 is the back: run 6.
    fa.push_back(a.submit(a0, x, 1, 3 * gap));
    expect_queued(4, 3, "run 6: a0 at 3 gaps");

    // Runs 4 and 5 start at 2 gaps; runs 1 and 6 stay queued.
    sched.drainMatrix(b1.id());
    expect_queued(4, 0, "drain b1");
    EXPECT_THROW((void)b->wait(fa[2]), std::invalid_argument);

    // Run 1's front wins each tie with run 6 (same placement, same
    // bound): waiting fa[1] issues fa[0] and fa[1] only.
    (void)a.wait(fa[1]);
    expect_queued(2, 0, "wait fa[1]");
    EXPECT_EQ(sched.uncollectedCount(), 7u);

    // Teardown drops B's five uncollected results.
    b.reset();
    EXPECT_EQ(sched.uncollectedCount(), 2u);
    expect_queued(2, 0, "teardown of session B");
    a.waitAll();
    expect_queued(0, 0, "wait all of session A");
    EXPECT_EQ(sched.completedCount(), 11u);

    // A never-submitted id: a future that outlived its scheduler,
    // offered to a replacement built in the same storage.
    Chip other_chip(smallChip(1));
    std::optional<Runtime> other(std::in_place, other_chip);
    MvmFuture stale;
    {
        Session s = other->createSession();
        const MatrixHandle h =
            s.setMatrix(randomMatrix(8, 8, 0, 1, 564), 1, 0);
        for (int i = 0; i < 3; ++i)
            stale = s.submit(h, x, 1);
    }
    other.emplace(other_chip);
    Session fresh = other->createSession();
    EXPECT_THROW((void)fresh.wait(stale), std::invalid_argument);
}

TEST(Scheduler, RunQueueKeepsTheGreedyDrainOrder)
{
    // A seeded stream of submits and shuffled waits over four
    // placements (one row-split; two sharing a tile) and two
    // sessions, with one matrix drain and one session teardown
    // mid-stream. `earliest` is drawn from a few offsets past the
    // makespan, so consecutive submits both join and split runs, and
    // `after` names pending, executed and collected requests. Every
    // result and the counters fold into one hash: the constant is
    // the one a request-at-a-time greedy scan produces.
    Chip chip(smallChip(6));
    Runtime rt(chip);
    Scheduler &sched = rt.scheduler();
    Session a = rt.createSession();
    std::optional<Session> b(rt.createSession());
    const MatrixHandle a_small =
        a.setMatrix(randomMatrix(8, 8, -1, 1, 570), 2, 0);
    const MatrixHandle a_tall =
        a.setMatrix(randomMatrix(40, 8, -1, 1, 571), 2, 0);
    ASSERT_TRUE(a_tall.plan().rowSplit);
    std::optional<MatrixHandle> b_small(
        b->setMatrix(randomMatrix(8, 8, -1, 1, 572), 2, 0));
    // b_small's weights placed again on its tile under another uid:
    // the two contend for the tile without chaining streams.
    PlacedMatrix alias;
    alias.matrix = b_small->matrix();
    alias.plan = b_small->plan();
    alias.session = b->id();
    alias.id = 1000;
    alias.uid = 1000;

    struct Target
    {
        Session *owner = nullptr;
        /** Null for the alias, which is submitted directly. */
        const MatrixHandle *handle = nullptr;
        const MatrixI *weights = nullptr;
    };
    std::vector<Target> targets = {
        {&a, &a_small, &a_small.matrix()},
        {&a, &a_tall, &a_tall.matrix()},
        {&*b, &*b_small, &b_small->matrix()},
        {&*b, nullptr, &alias.matrix},
    };
    struct Outstanding
    {
        MvmFuture future;
        u64 session = 0;
        const MatrixI *weights = nullptr;
        std::vector<i64> x;
    };
    std::vector<Outstanding> outstanding;
    std::vector<MvmFuture> issued;
    std::optional<Session> c;
    std::optional<MatrixHandle> c_small;

    u64 hash = kFnvOffsetBasis;
    const auto fold = [&](u64 word) { hash = fnv1aWord(word, hash); };
    const auto collect = [&](std::size_t i) {
        const Outstanding o = outstanding[i];
        outstanding.erase(outstanding.begin() +
                          static_cast<std::ptrdiff_t>(i));
        const MvmResult r = sched.wait(o.future, o.session);
        EXPECT_EQ(r.values, reference(*o.weights, o.x))
            << "request " << o.future.id();
        fold(o.future.id());
        fold(r.start);
        fold(r.done);
        for (i64 v : r.values)
            fold(static_cast<u64>(v));
    };

    Rng rng(573);
    const Cycle offsets[] = {0, 0, 300, 1500};
    std::size_t key_target = 0;
    Cycle key_earliest = 0;
    std::vector<MvmFuture> key_after;
    bool new_key = true;
    for (int step = 0; step < 400; ++step) {
        if (step == 150)
            sched.drainMatrix(a_tall.id());
        if (step == 250) {
            // Session B leaves with work queued: its requests execute,
            // its uncollected results are dropped, and its tile goes
            // to a new session C.
            const u64 b_id = b->id();
            b.reset();
            for (const Outstanding &o : outstanding) {
                if (o.session == b_id) {
                    EXPECT_THROW((void)sched.wait(o.future, b_id),
                                 std::invalid_argument);
                }
            }
            outstanding.erase(
                std::remove_if(outstanding.begin(), outstanding.end(),
                               [&](const Outstanding &o) {
                                   return o.session == b_id;
                               }),
                outstanding.end());
            b_small.reset();
            c.emplace(rt.createSession());
            c_small.emplace(
                c->setMatrix(randomMatrix(8, 8, -1, 1, 574), 2, 0));
            targets = {targets[0], targets[1],
                       {&*c, &*c_small, &c_small->matrix()}};
            new_key = true;
        }
        if (rng.uniformInt(u64{100}) < 55) {
            if (new_key || rng.uniformInt(u64{2}) == 0) {
                key_target = rng.uniformInt(targets.size());
                key_earliest = sched.makespan() +
                               offsets[rng.uniformInt(u64{4})];
                key_after.clear();
                const u64 deps =
                    issued.empty() ? 0 : rng.uniformInt(u64{3});
                for (u64 d = 0; d < deps; ++d) {
                    // Mostly recent (often still queued) requests.
                    const u64 window =
                        rng.uniformInt(u64{2}) == 0
                            ? std::min<u64>(issued.size(), 6)
                            : issued.size();
                    key_after.push_back(
                        issued[issued.size() - 1 -
                               rng.uniformInt(window)]);
                }
                new_key = false;
            }
            const Target &t = targets[key_target];
            const int bits = 2 + static_cast<int>(rng.uniformInt(u64{2}));
            const i64 half = i64{1} << (bits - 1);
            std::vector<i64> x(t.weights->rows());
            for (auto &v : x)
                v = rng.uniformInt(-half, half - 1);
            const MvmFuture f =
                t.handle != nullptr
                    ? t.owner->submit(*t.handle, x, bits, key_earliest,
                                      key_after)
                    : sched.submit(alias, x, bits, key_earliest,
                                   key_after);
            issued.push_back(f);
            outstanding.push_back({f, t.owner->id(), t.weights, x});
        } else if (!outstanding.empty()) {
            collect(rng.uniformInt(outstanding.size()));
        }
    }
    sched.waitAll();
    while (!outstanding.empty())
        collect(0);

    const SchedulerCounters counters = sched.counters();
    fold(counters.issued);
    fold(counters.pipelineHits);
    fold(counters.dependencyStalls);
    fold(sched.completedCount());
    fold(sched.makespan());
    fold(sched.pendingCount());
    fold(sched.backlogCycles());
    fold(sched.uncollectedCount());
    EXPECT_EQ(hash, 0xf21f89b5d305f862ULL);
}

} // namespace
} // namespace runtime
} // namespace darth
