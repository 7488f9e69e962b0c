/**
 * @file
 * Harness for tools/determinism_lint.py: proves the lint catches
 * every seeded violation class in the fixture files, honours the
 * allowlist (file and inline forms), stays quiet on clean code, and
 * — the gating property — reports zero unallowlisted findings on the
 * real trees it scans by default (tools/determinism_lint.py
 * SCAN_DIRS).
 *
 * The lint is a python3 script; when no python3 is on PATH (not the
 * case in CI or the dev image) the tests skip rather than fail.
 */

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

namespace
{

#ifndef DARTH_SOURCE_DIR
#error "DARTH_SOURCE_DIR must point at the repository root"
#endif

const std::string kRoot = DARTH_SOURCE_DIR;
const std::string kLint = kRoot + "/tools/determinism_lint.py";
const std::string kFixtures = kRoot + "/tests/tools/fixtures";

struct LintResult
{
    int exitCode = -1;
    std::string output;
};

bool
havePython()
{
    return std::system("python3 --version > /dev/null 2>&1") == 0;
}

/** Run the lint with the given arguments; stderr folds into stdout
 *  so the summary line is visible to assertions too. */
LintResult
runLint(const std::string &args)
{
    const std::string cmd =
        "python3 " + kLint + " " + args + " 2>&1";
    LintResult result;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return result;
    std::array<char, 512> buf;
    while (std::fgets(buf.data(), buf.size(), pipe) != nullptr)
        result.output += buf.data();
    const int status = pclose(pipe);
    result.exitCode =
        WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

#define SKIP_WITHOUT_PYTHON()                                        \
    do {                                                             \
        if (!havePython())                                           \
            GTEST_SKIP() << "python3 not on PATH";                   \
    } while (0)

TEST(DeterminismLint, FlagsEverySeededViolationClass)
{
    SKIP_WITHOUT_PYTHON();
    const LintResult r = runLint("--allowlist /dev/null " +
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
    const LintResult r = runLint("--allowlist /dev/null " +
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
    const LintResult r = runLint("--allowlist /dev/null " +
                                 kFixtures + "/clean.cxx");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("clean"), std::string::npos) << r.output;
}

TEST(DeterminismLint, CommentsAndStringsDoNotTrip)
{
    SKIP_WITHOUT_PYTHON();
    // clean.cxx mentions rand() and std::chrono in comments and a
    // string literal; a finding there would be a stripping bug.
    const LintResult r = runLint("--allowlist /dev/null " +
                                 kFixtures + "/clean.cxx");
    EXPECT_EQ(r.output.find("[wall-clock]"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("[raw-rand]"), std::string::npos)
        << r.output;
}

TEST(DeterminismLint, AllowlistSuppressesAuditedFindings)
{
    SKIP_WITHOUT_PYTHON();
    const LintResult with =
        runLint("--allowlist " + kFixtures + "/allow_fixture.txt " +
                kFixtures + "/allowed.cxx");
    EXPECT_EQ(with.exitCode, 0) << with.output;

    // The same file without the allowlist must fail: the pass is
    // doing the suppression, not the rules going soft.
    const LintResult without = runLint(
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
    const LintResult r = runLint("--root " + kRoot);
    EXPECT_EQ(r.exitCode, 0) << r.output;
}

} // namespace
