/**
 * @file
 * Tests for the append-only event journal: chained checksums, binary
 * round trips (write -> read -> re-write byte-identical), and
 * corruption detection on flipped bytes and truncation.
 */

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "journal/Journal.h"

namespace darth
{
namespace journal
{
namespace
{

JournalEvent
sampleEvent(std::size_t i)
{
    JournalEvent e;
    e.kind = static_cast<EventKind>(i % 14);
    e.cycle = 100 * i;
    e.a = i;
    e.b = i * 3 + 1;
    e.c = ~u64{0} - i;
    e.d = doubleBits(0.25 * static_cast<double>(i));
    if (i % 3 == 0)
        e.note = "event-" + std::to_string(i);
    if (i % 2 == 0)
        e.values = {static_cast<i64>(i), -static_cast<i64>(i), 42};
    return e;
}

Journal
sampleJournal(std::size_t events = 20)
{
    Journal jr;
    for (std::size_t i = 0; i < events; ++i)
        jr.append(sampleEvent(i));
    return jr;
}

TEST(JournalTest, AppendStampsChainedChecksums)
{
    Journal jr;
    EXPECT_TRUE(jr.empty());
    const u64 empty_chain = jr.chainChecksum();

    jr.append(sampleEvent(0));
    const u64 first_chain = jr.chainChecksum();
    jr.append(sampleEvent(1));
    ASSERT_EQ(jr.size(), 2u);
    // The chain digest is the last record's checksum and moves with
    // every append.
    EXPECT_NE(first_chain, empty_chain);
    EXPECT_NE(jr.chainChecksum(), first_chain);

    // Same events, same chain; any payload difference diverges it.
    Journal same;
    same.append(sampleEvent(0));
    same.append(sampleEvent(1));
    EXPECT_EQ(same.chainChecksum(), jr.chainChecksum());
    EXPECT_TRUE(same == jr);

    Journal different;
    different.append(sampleEvent(0));
    JournalEvent e = sampleEvent(1);
    e.c ^= 1;
    different.append(std::move(e));
    EXPECT_NE(different.chainChecksum(), jr.chainChecksum());
    EXPECT_TRUE(different != jr);
}

TEST(JournalTest, BinaryRoundTripIsByteIdentical)
{
    const Journal jr = sampleJournal();

    std::stringstream first;
    jr.writeBinary(first);
    std::stringstream reread_stream(first.str());
    const Journal reread = Journal::readBinary(reread_stream);

    // The parsed journal carries the identical history...
    ASSERT_EQ(reread.size(), jr.size());
    for (std::size_t i = 0; i < jr.size(); ++i)
        EXPECT_EQ(reread.event(i), jr.event(i)) << "event " << i;
    EXPECT_EQ(reread.chainChecksum(), jr.chainChecksum());
    EXPECT_TRUE(reread == jr);

    // ...and re-serializes byte-identically.
    std::stringstream second;
    reread.writeBinary(second);
    EXPECT_EQ(first.str(), second.str());
}

TEST(JournalTest, EmptyJournalRoundTrips)
{
    Journal jr;
    std::stringstream out;
    jr.writeBinary(out);
    const Journal reread = Journal::readBinary(out);
    EXPECT_TRUE(reread.empty());
    EXPECT_EQ(reread.chainChecksum(), jr.chainChecksum());
}

TEST(JournalTest, DetectsEveryFlippedByte)
{
    // A small journal so the whole file is exhaustively corruptible.
    Journal jr;
    jr.append(sampleEvent(1));
    jr.append(sampleEvent(2));
    std::stringstream out;
    jr.writeBinary(out);
    const std::string good = out.str();

    // Every single-byte flip anywhere in the file must be caught:
    // in the header, a record's encoding, its length, or its stored
    // checksum. (Length corruption may legitimately surface as any
    // std::runtime_error — e.g. a short read — but never parse.)
    for (std::size_t i = 0; i < good.size(); ++i) {
        std::string bad = good;
        bad[i] = static_cast<char>(bad[i] ^ 0x40);
        std::stringstream in(bad);
        EXPECT_THROW(Journal::readBinary(in), std::runtime_error)
            << "flip at byte " << i << " went undetected";
    }
}

TEST(JournalTest, DetectsTruncation)
{
    const Journal jr = sampleJournal(4);
    std::stringstream out;
    jr.writeBinary(out);
    const std::string good = out.str();

    for (const std::size_t keep :
         {good.size() - 1, good.size() / 2, std::size_t{3}}) {
        std::stringstream in(good.substr(0, keep));
        EXPECT_THROW(Journal::readBinary(in), std::runtime_error)
            << "truncation to " << keep << " bytes went undetected";
    }
}

TEST(JournalTest, ErrorNamesTheFirstCorruptRecord)
{
    const Journal jr = sampleJournal(3);
    std::stringstream out;
    jr.writeBinary(out);
    std::string bad = out.str();
    // Flip the last byte: with chained checksums only the final
    // record (index 2) can be the first to fail.
    bad.back() = static_cast<char>(bad.back() ^ 0x01);
    std::stringstream in(bad);
    try {
        Journal::readBinary(in);
        FAIL() << "corrupt journal parsed";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("record 2"),
                  std::string::npos)
            << "error does not name the corrupt record: "
            << err.what();
    }
}

TEST(JournalTest, RejectsWrongMagicAndVersion)
{
    const Journal jr = sampleJournal(1);
    std::stringstream out;
    jr.writeBinary(out);
    std::string file = out.str();

    std::string bad_magic = file;
    bad_magic[0] = 'X';
    std::stringstream in1(bad_magic);
    EXPECT_THROW(Journal::readBinary(in1), std::runtime_error);

    // The u32 version sits right after the 8-byte magic.
    std::string bad_version = file;
    bad_version[8] = static_cast<char>(bad_version[8] + 1);
    std::stringstream in2(bad_version);
    EXPECT_THROW(Journal::readBinary(in2), std::runtime_error);
}

} // namespace
} // namespace journal
} // namespace darth
