/**
 * @file
 * Runs one of the repository's python3 tools from a test and captures
 * its exit code and output (stderr folded into stdout, so summary
 * lines are visible to assertions too). The tools are python3
 * scripts; when no python3 is on PATH (not the case in CI or the dev
 * image) the tests using SKIP_WITHOUT_PYTHON skip rather than fail.
 */

#ifndef DARTH_TESTS_TOOLS_TOOLRUN_H
#define DARTH_TESTS_TOOLS_TOOLRUN_H

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/wait.h>

#include <gtest/gtest.h>

#ifndef DARTH_SOURCE_DIR
#error "DARTH_SOURCE_DIR must point at the repository root"
#endif

namespace darth
{
namespace tooltest
{

inline const std::string kRoot = DARTH_SOURCE_DIR;
inline const std::string kFixtures = kRoot + "/tests/tools/fixtures";

struct ToolResult
{
    int exitCode = -1;
    std::string output;
};

inline bool
havePython()
{
    return std::system("python3 --version > /dev/null 2>&1") == 0;
}

/** `python3 <script> <args>`. */
inline ToolResult
runTool(const std::string &script, const std::string &args)
{
    const std::string cmd = "python3 " + script + " " + args + " 2>&1";
    ToolResult result;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return result;
    std::array<char, 512> buf;
    while (std::fgets(buf.data(), buf.size(), pipe) != nullptr)
        result.output += buf.data();
    const int status = pclose(pipe);
    result.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

} // namespace tooltest
} // namespace darth

#define SKIP_WITHOUT_PYTHON()                                        \
    do {                                                             \
        if (!::darth::tooltest::havePython())                        \
            GTEST_SKIP() << "python3 not on PATH";                   \
    } while (0)

#endif // DARTH_TESTS_TOOLS_TOOLRUN_H
