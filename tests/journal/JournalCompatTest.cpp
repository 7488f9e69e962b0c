/**
 * @file
 * Journal format compatibility: old journals must be *rejected with
 * a versioned error*, never crash, never replay as silently-wrong
 * history; journals from a future format must fail loudly at the
 * container level.
 *
 * The checked-in fixture tests/journal/fixtures/serve_run_v1.jnl is
 * a complete setup-version-1 serve run recorded before the serving
 * layer moved to wall-clock nanoseconds. Its container format is
 * unchanged (Journal::readBinary parses it and the integrity chain
 * verifies), but its cycle-stamped history cannot be compared
 * against a wall-clock replay — Replayer must refuse it by version,
 * with both versions named in the error.
 */

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "journal/Journal.h"
#include "journal/Replayer.h"

namespace darth
{
namespace journal
{
namespace
{

Journal
readFixture()
{
    std::ifstream in(std::string(DARTH_SOURCE_DIR) +
                         "/tests/journal/fixtures/serve_run_v1.jnl",
                     std::ios::binary);
    if (!in)
        throw std::runtime_error("serve_run_v1.jnl fixture is missing");
    return Journal::readBinary(in);
}

TEST(JournalCompat, V1FixtureParsesAtContainerLevel)
{
    const Journal jr = readFixture();
    // The recorded run: 92 events, chain and output checksums
    // pinned at recording time. The container format did not change
    // in version 2, so these must keep parsing forever.
    EXPECT_EQ(jr.size(), 92u);
    EXPECT_EQ(jr.chainChecksum(), 2103060473766716997ULL);
    ASSERT_GE(jr.size(), 1u);
    EXPECT_EQ(jr.event(0).kind, EventKind::RunBegin);
    EXPECT_EQ(jr.event(0).a, 1u) << "fixture is not setup version 1";
    const JournalEvent &end = jr.event(jr.size() - 1);
    EXPECT_EQ(end.kind, EventKind::RunEnd);
    EXPECT_EQ(end.c, 12543845274949203619ULL);
}

TEST(JournalCompat, ReplayerRejectsV1ByVersionNotCrash)
{
    const Journal jr = readFixture();
    try {
        const Replayer replayer(jr);
        FAIL() << "Replayer accepted a version-1 journal";
    } catch (const std::runtime_error &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("unsupported setup version 1"),
                  std::string::npos)
            << "error does not name the journal's version: " << what;
        EXPECT_NE(what.find("version 2"), std::string::npos)
            << "error does not name the supported version: " << what;
    }
}

TEST(JournalCompat, FutureEventKindIsRejectedOnRead)
{
    Journal jr;
    JournalEvent e;
    e.kind = static_cast<EventKind>(99);
    e.cycle = 1;
    jr.append(e);
    std::stringstream buf;
    jr.writeBinary(buf);
    try {
        Journal::readBinary(buf);
        FAIL() << "readBinary accepted an unknown event kind";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("unknown event kind 99"),
                  std::string::npos)
            << err.what();
    }
}

} // namespace
} // namespace journal
} // namespace darth
