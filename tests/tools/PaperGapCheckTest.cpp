/**
 * @file
 * Harness for tools/paper_gap_check.py, the CI step that recomputes
 * perfbench's fig13_gap / fig16_gap from the paper ledger: gaps that
 * agree with the ledger pass, a drifted gap fails naming its metric,
 * and input without the ledger cells is an error. The fixtures hold
 * the ledger's Fig. 13 / Fig. 16 cells and run.py result lines.
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
check(const std::string &ledger, const std::string &result)
{
    return darth::tooltest::runTool(kRoot + "/tools/paper_gap_check.py",
                                    kFixtures + "/" + ledger + " " +
                                        kFixtures + "/" + result);
}

bool
contains(const ToolResult &r, const std::string &needle)
{
    return r.output.find(needle) != std::string::npos;
}

TEST(PaperGapCheck, GapsMatchingTheLedgerPass)
{
    SKIP_WITHOUT_PYTHON();
    const ToolResult r = check("gap_ledger.json", "gap_result_match.json");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(contains(r, "gaps agree")) << r.output;
}

TEST(PaperGapCheck, DriftedGapFails)
{
    SKIP_WITHOUT_PYTHON();
    const ToolResult r =
        check("gap_ledger.json", "gap_result_drifted.json");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_TRUE(contains(r, "DRIFT: fig16_gap")) << r.output;
    EXPECT_FALSE(contains(r, "gaps agree")) << r.output;
}

TEST(PaperGapCheck, LedgerWithoutTheCellsIsAnError)
{
    SKIP_WITHOUT_PYTHON();
    // ledger_base.json has only the AES cells of both figures.
    const ToolResult r =
        check("ledger_base.json", "gap_result_match.json");
    EXPECT_EQ(r.exitCode, 2) << r.output;
    EXPECT_TRUE(contains(r, "Fig. 13 ResNet-20 DARTH-PUM")) << r.output;
}

} // namespace
