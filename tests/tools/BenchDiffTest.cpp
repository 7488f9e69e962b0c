/**
 * @file
 * Harness for tools/bench_diff.py, the snapshot differ CI runs over
 * BENCH_serve.json, BENCH_infer.json and BENCH_paper.json: identical
 * snapshots pass silently, paper-ledger cells match by
 * figure/row/system rather than by position, a self-check flipping to
 * false or a vanished cell is a regression, and a host wall-clock
 * change is informational only. The fixtures under tests/tools/fixtures
 * are minimal snapshots of each shape.
 */

#include <string>

#include <gtest/gtest.h>

#include "ToolRun.h"

namespace
{

using darth::tooltest::kFixtures;
using darth::tooltest::kRoot;
using darth::tooltest::ToolResult;

ToolResult
diff(const std::string &old_name, const std::string &new_name)
{
    return darth::tooltest::runTool(kRoot + "/tools/bench_diff.py",
                                    kFixtures + "/" + old_name + " " +
                                        kFixtures + "/" + new_name);
}

bool
contains(const ToolResult &r, const std::string &needle)
{
    return r.output.find(needle) != std::string::npos;
}

TEST(BenchDiff, IdenticalSnapshotsPassSilently)
{
    SKIP_WITHOUT_PYTHON();
    const ToolResult r = diff("ledger_base.json", "ledger_base.json");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(contains(r, "snapshots identical")) << r.output;
}

TEST(BenchDiff, LedgerCellsMatchByFigureRowSystem)
{
    SKIP_WITHOUT_PYTHON();
    // Same cells, another order: nothing moved, so nothing reports.
    const ToolResult r = diff("ledger_base.json", "ledger_reordered.json");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(contains(r, "snapshots identical")) << r.output;
}

TEST(BenchDiff, CheckFlippingToFalseIsARegression)
{
    SKIP_WITHOUT_PYTHON();
    const ToolResult r =
        diff("ledger_base.json", "ledger_check_failed.json");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_TRUE(contains(
        r, "CHECK    checks[name=fig13_scheduler_matches_oracle].ok"))
        << r.output;
    // A flipped check does not depend on --threshold, so the heading
    // does not name it.
    EXPECT_TRUE(contains(r, "\n2 regression(s):\n")) << r.output;
    EXPECT_FALSE(contains(r, "beyond")) << r.output;
}

TEST(BenchDiff, MissingCellIsARegression)
{
    SKIP_WITHOUT_PYTHON();
    const ToolResult r =
        diff("ledger_base.json", "ledger_missing_cell.json");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_TRUE(contains(
        r, "MISSING  cells[figure=Fig. 13,row=AES,system=AppAccel]"))
        << r.output;
    EXPECT_TRUE(contains(r, "\n1 regression(s):\n")) << r.output;
    EXPECT_FALSE(contains(r, "beyond")) << r.output;
}

TEST(BenchDiff, WallClockChangeIsInfoOnly)
{
    SKIP_WITHOUT_PYTHON();
    const ToolResult r = diff("infer_base.json", "infer_wall_ms.json");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(contains(r, "info     networks[0].wall_ms")) << r.output;
    EXPECT_FALSE(contains(r, "regression")) << r.output;
    EXPECT_FALSE(contains(r, "snapshots identical")) << r.output;
}

} // namespace
