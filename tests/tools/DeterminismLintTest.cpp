/**
 * @file
 * Harness for tools/determinism_lint.py: proves the lint catches
 * every seeded violation class in the fixture files, honours the
 * allowlist (file and inline forms), stays quiet on clean code, and
 * — the gating property — reports zero unallowlisted findings on the
 * real trees it scans by default (tools/determinism_lint.py
 * SCAN_DIRS).
 *
 * The lint is a python3 script (run through ToolRun.h); without
 * python3 on PATH the tests skip rather than fail.
 */

#include <string>

#include <gtest/gtest.h>

#include "ToolRun.h"

namespace
{

using darth::tooltest::kFixtures;
using darth::tooltest::kRoot;
using darth::tooltest::ToolResult;

const std::string kLint = kRoot + "/tools/determinism_lint.py";

ToolResult
runLint(const std::string &args)
{
    return darth::tooltest::runTool(kLint, args);
}

TEST(DeterminismLint, FlagsEverySeededViolationClass)
{
    SKIP_WITHOUT_PYTHON();
    const ToolResult r = runLint("--allowlist /dev/null " +
                                 kFixtures + "/violations.cxx");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    // One hit per rule class seeded in the fixture.
    EXPECT_NE(r.output.find("[unordered-container]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("[pointer-keyed-order]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("[wall-clock]"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("[raw-rand]"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("[std-engine]"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("[static-mutable-local]"),
              std::string::npos)
        << r.output;
}

TEST(DeterminismLint, FindingsNameFileAndLine)
{
    SKIP_WITHOUT_PYTHON();
    const ToolResult r = runLint("--allowlist /dev/null " +
                                 kFixtures + "/violations.cxx");
    // The unordered iteration feeding order sits on a known line of
    // the fixture; pin one exact location so reports stay precise.
    EXPECT_NE(r.output.find("violations.cxx:60: [std-engine]"),
              std::string::npos)
        << r.output;
}

TEST(DeterminismLint, QuietOnCleanCode)
{
    SKIP_WITHOUT_PYTHON();
    const ToolResult r = runLint("--allowlist /dev/null " +
                                 kFixtures + "/clean.cxx");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("clean"), std::string::npos) << r.output;
}

TEST(DeterminismLint, CommentsAndStringsDoNotTrip)
{
    SKIP_WITHOUT_PYTHON();
    // clean.cxx mentions rand() and std::chrono in comments and a
    // string literal; a finding there would be a stripping bug.
    const ToolResult r = runLint("--allowlist /dev/null " +
                                 kFixtures + "/clean.cxx");
    EXPECT_EQ(r.output.find("[wall-clock]"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("[raw-rand]"), std::string::npos)
        << r.output;
}

TEST(DeterminismLint, AllowlistSuppressesAuditedFindings)
{
    SKIP_WITHOUT_PYTHON();
    const ToolResult with =
        runLint("--allowlist " + kFixtures + "/allow_fixture.txt " +
                kFixtures + "/allowed.cxx");
    EXPECT_EQ(with.exitCode, 0) << with.output;

    // The same file without the allowlist must fail: the pass is
    // doing the suppression, not the rules going soft.
    const ToolResult without = runLint(
        "--allowlist /dev/null " + kFixtures + "/allowed.cxx");
    EXPECT_EQ(without.exitCode, 1) << without.output;
    EXPECT_NE(without.output.find("[static-mutable-local]"),
              std::string::npos)
        << without.output;
    // The inline allow(unordered-container) marker keeps the member
    // declaration clean even with no allowlist file at all.
    EXPECT_EQ(without.output.find("byShape"), std::string::npos)
        << without.output;
}

TEST(DeterminismLint, RealTreeHasNoUnallowlistedFindings)
{
    SKIP_WITHOUT_PYTHON();
    // The acceptance bar: every default scan tree is clean under the
    // checked-in allowlist.
    const ToolResult r = runLint("--root " + kRoot);
    EXPECT_EQ(r.exitCode, 0) << r.output;
}

} // namespace
