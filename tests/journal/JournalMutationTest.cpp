/**
 * @file
 * Seeded mutation of both durable journal containers — the monolithic
 * binary journal and a segment directory, live or compacted. Every
 * mutated input must either be rejected with std::runtime_error or
 * read into a journal whose re-encoding reads back to the same chain
 * and size; a mutated compacted directory must also either be
 * rejected by replaySegments or replayed to a verdict. No input may
 * make a reader allocate beyond the bytes it actually holds: a
 * corrupt length prefix must not cost its announced size in memory.
 * Peak RSS is the process high-water mark (getrusage).
 */

#include <sys/resource.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/Random.h"
#include "journal/Journal.h"
#include "journal/Replayer.h"
#include "journal/Segment.h"
#include "serve/TrafficGen.h"

namespace darth
{
namespace journal
{
namespace
{

/** Bytes before the first frame: binary magic, version, reserved
 *  word, record count; segment magic, version, reserved word, index,
 *  base record, carry checksum. */
constexpr std::size_t kBinaryHeaderBytes = 24;
constexpr std::size_t kSegmentHeaderBytes = 40;

/** Peak-RSS growth any one read may cost, KiB. */
constexpr long kRssBudgetKib = 64 * 1024;

long
peakRssKib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

std::string
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("journal_mutation_test_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string
binaryBytes(const Journal &jr)
{
    std::stringstream out;
    jr.writeBinary(out);
    return out.str();
}

/** The segment files in `dir`, which is left empty. */
std::vector<std::string>
takeSegments(const std::string &dir)
{
    std::vector<std::string> files;
    for (std::size_t s = 0;
         std::filesystem::exists(segmentFileName(dir, s)); ++s)
        files.push_back(readFile(segmentFileName(dir, s)));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return files;
}

/** The segment files of `jr` rewritten into `dir` with segments of
 *  about `segment_bytes`. */
std::vector<std::string>
segmentBytes(const Journal &jr, const std::string &dir,
             std::size_t segment_bytes)
{
    {
        SegmentWriter writer(dir, segment_bytes);
        Journal copy;
        copy.attachSink(&writer, /*retainEvents=*/false);
        for (const JournalEvent &e : jr.events())
            copy.append(e);
        writer.finish();
    }
    return takeSegments(dir);
}

void
writeSegments(const std::string &dir,
              const std::vector<std::string> &files)
{
    for (std::size_t s = 0; s < files.size(); ++s)
        writeFile(segmentFileName(dir, s), files[s]);
}

/** The segment files compactSegments makes of `jr`'s segments, with
 *  compacted segments of about `segment_bytes`. */
std::vector<std::string>
compactedSegmentBytes(const Journal &jr, const std::string &dir,
                      std::size_t segment_bytes)
{
    const std::string live = dir + "/live";
    writeSegments(live, segmentBytes(jr, live, std::size_t{1} << 20));
    compactSegments(live, dir, segment_bytes);
    return takeSegments(dir);
}

/** The u32 length prefix of the frame at `offset`. */
u32
lengthAt(const std::string &bytes, std::size_t offset)
{
    u32 len = 0;
    for (int k = 0; k < 4; ++k)
        len |= static_cast<u32>(static_cast<unsigned char>(
                   bytes[offset + k]))
               << (8 * k);
    return len;
}

void
setLengthAt(std::string &bytes, std::size_t offset, u32 len)
{
    for (int k = 0; k < 4; ++k)
        bytes[offset + k] = static_cast<char>((len >> (8 * k)) & 0xff);
}

/** Bytes of the frame at `offset`: length prefix, record, checksum. */
std::size_t
frameSize(const std::string &bytes, std::size_t offset)
{
    return 4 + std::size_t{lengthAt(bytes, offset)} + 8;
}

/** Byte offsets of the well-formed record frames (u32 length, record,
 *  u64 checksum) after a container header. */
std::vector<std::size_t>
frameOffsets(const std::string &bytes, std::size_t header)
{
    std::vector<std::size_t> offsets;
    std::size_t pos = header;
    while (pos + 4 <= bytes.size()) {
        const std::size_t size = frameSize(bytes, pos);
        if (pos + size > bytes.size())
            break;
        offsets.push_back(pos);
        pos += size;
    }
    return offsets;
}

std::string
frameAt(const std::string &bytes, std::size_t offset)
{
    return bytes.substr(offset, frameSize(bytes, offset));
}

/** A small serve run, recorded with a journal. */
Journal
recordSmallRun(u64 traffic_seed)
{
    ServeRunSetup setup;
    setup.slots = {{SlotKind::Uniform, 4, 1.0}};
    setup.trafficSeed = traffic_seed;
    setup.horizon = 1500;
    setup.admission.queueDepth = 2;
    setup.tenants.resize(2);
    setup.tenants[0].name = "micro_a";
    setup.tenants[0].kind = serve::WorkloadKind::Micro;
    setup.tenants[0].ratePerKns = 3.0;
    setup.tenants[1].name = "micro_b";
    setup.tenants[1].kind = serve::WorkloadKind::Micro;
    setup.tenants[1].ratePerKns = 2.0;
    return recordServeRun(setup).journal;
}

/** `read` either throws std::runtime_error or yields a journal whose
 *  binary re-encoding reads back to the same chain and size. */
void
expectRejectedOrRoundTrips(const std::function<Journal()> &read,
                           const std::string &label)
{
    Journal jr;
    try {
        jr = read();
    } catch (const std::runtime_error &) {
        return;
    }
    std::stringstream encoded(binaryBytes(jr));
    const Journal back = Journal::readBinary(encoded);
    EXPECT_EQ(back.chainChecksum(), jr.chainChecksum()) << label;
    EXPECT_EQ(back.size(), jr.size()) << label;
}

/** Apply mutation `kind` (0 byte flip, 1 truncation, 2 length-prefix
 *  inflation, 3 duplicated frame, 4 frame spliced in from `donor`) to
 *  a container whose frames start after `header` bytes. */
void
mutate(std::string &bytes, std::size_t header, unsigned kind,
       const std::string &donor, Rng &rng)
{
    const std::vector<std::size_t> frames = frameOffsets(bytes, header);
    const std::size_t frame =
        frames.empty() ? header : frames[rng.uniformInt(frames.size())];
    switch (kind) {
      case 0:
        bytes[rng.uniformInt(bytes.size())] ^=
            static_cast<char>(1 + rng.uniformInt(255));
        return;
      case 1:
        bytes.resize(rng.uniformInt(bytes.size()));
        return;
      case 2: {
        const auto grow = static_cast<u32>(1 + rng.uniformInt(u64{1} << 30));
        setLengthAt(bytes, frame, lengthAt(bytes, frame) + grow);
        return;
      }
      case 3:
        bytes.insert(frame, frameAt(bytes, frame));
        return;
      default: {
        const std::vector<std::size_t> donors =
            frameOffsets(donor, kBinaryHeaderBytes);
        const std::size_t pick = donors[rng.uniformInt(donors.size())];
        bytes.insert(frame, frameAt(donor, pick));
        return;
      }
    }
}

// The two containers are separate tests: ru_maxrss is a high-water
// mark, so one process can show only its first oversized allocation.
TEST(JournalMutation, InflatedBinaryLengthReadsBoundedMemory)
{
    // Record 1's length prefix claims 1 GiB.
    std::string binary = binaryBytes(recordSmallRun(11));
    const std::vector<std::size_t> frames =
        frameOffsets(binary, kBinaryHeaderBytes);
    ASSERT_GT(frames.size(), 1u);
    setLengthAt(binary, frames[1], u32{1} << 30);
    const long before = peakRssKib();
    try {
        std::stringstream in(binary);
        Journal::readBinary(in);
        ADD_FAILURE() << "inflated binary journal parsed";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("record 1"),
                  std::string::npos)
            << err.what();
    }
    EXPECT_LT(peakRssKib() - before, kRssBudgetKib);
}

TEST(JournalMutation, InflatedSegmentLengthReadsBoundedMemory)
{
    // The first record of segment 1 claims 1 GiB.
    const std::string dir = scratchDir("inflated");
    std::vector<std::string> files =
        segmentBytes(recordSmallRun(11), dir, 1024);
    ASSERT_GE(files.size(), 2u);
    const std::vector<std::size_t> frames =
        frameOffsets(files[1], kSegmentHeaderBytes);
    ASSERT_FALSE(frames.empty());
    setLengthAt(files[1], frames[0], u32{1} << 30);
    writeSegments(dir, files);
    const long before = peakRssKib();
    try {
        readSegmentedJournal(dir);
        ADD_FAILURE() << "inflated segment parsed";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("segment 1 record"),
                  std::string::npos)
            << err.what();
    }
    EXPECT_LT(peakRssKib() - before, kRssBudgetKib);
    std::filesystem::remove_all(dir);
}

TEST(JournalMutation, SeededMutationsThrowOrRoundTrip)
{
    const Journal jr = recordSmallRun(21);
    const std::string donor = binaryBytes(recordSmallRun(22));
    const std::string binary = binaryBytes(jr);
    const std::string dir = scratchDir("seeded");
    const std::vector<std::string> segments =
        segmentBytes(jr, dir, (binary.size() + 2) / 3);
    ASSERT_EQ(segments.size(), 3u);

    const long before = peakRssKib();
    Rng rng(0x5eed);
    for (unsigned i = 0; i < 256; ++i) {
        const unsigned kind = i % 5;
        const std::string label =
            "mutation " + std::to_string(i) + " kind " +
            std::to_string(kind);

        std::string bad = binary;
        mutate(bad, kBinaryHeaderBytes, kind, donor, rng);
        expectRejectedOrRoundTrips(
            [&bad] {
                std::stringstream in(bad);
                return Journal::readBinary(in);
            },
            "binary " + label);

        std::vector<std::string> files = segments;
        const std::size_t victim = rng.uniformInt(files.size());
        mutate(files[victim], kSegmentHeaderBytes, kind, donor, rng);
        writeSegments(dir, files);
        expectRejectedOrRoundTrips(
            [&dir] { return readSegmentedJournal(dir); },
            "segment " + std::to_string(victim) + " " + label);
    }
    EXPECT_LT(peakRssKib() - before, kRssBudgetKib);
    std::filesystem::remove_all(dir);
}

TEST(JournalMutation, SeededCompactedMutationsThrowOrReplay)
{
    const Journal jr = recordSmallRun(31);
    const std::string donor = binaryBytes(recordSmallRun(32));
    const std::string dir = scratchDir("compacted");
    const std::vector<std::string> segments =
        compactedSegmentBytes(jr, dir, 512);
    ASSERT_GE(segments.size(), 3u);
    writeSegments(dir, segments);
    const SegmentReplayResult clean = replaySegments(dir);
    ASSERT_TRUE(clean.identical) << clean.detail;

    const long before = peakRssKib();
    Rng rng(0xc0ac7);
    for (unsigned i = 0; i < 256; ++i) {
        const unsigned kind = i % 5;
        std::vector<std::string> files = segments;
        const std::size_t victim = rng.uniformInt(files.size());
        mutate(files[victim], kSegmentHeaderBytes, kind, donor, rng);
        writeSegments(dir, files);
        const std::string label = "segment " + std::to_string(victim) +
                                  " mutation " + std::to_string(i) +
                                  " kind " + std::to_string(kind);
        expectRejectedOrRoundTrips(
            [&dir] { return readSegmentedJournal(dir); }, label);
        try {
            const SegmentReplayResult verdict = replaySegments(dir);
            // Only the unmutated chain can replay identically.
            if (verdict.identical) {
                EXPECT_EQ(verdict.recordedChain, clean.recordedChain)
                    << label;
            }
        } catch (const std::runtime_error &) {
        }
    }

    // A cut at a record boundary of the last segment leaves a
    // chain-valid prefix (a segment directory has no record count):
    // it reads back, and only replay's verdict tells it apart.
    const std::string &last = segments.back();
    for (const std::size_t frame :
         frameOffsets(last, kSegmentHeaderBytes)) {
        std::vector<std::string> files = segments;
        files.back() = last.substr(0, frame);
        writeSegments(dir, files);
        expectRejectedOrRoundTrips(
            [&dir] { return readSegmentedJournal(dir); },
            "cut at " + std::to_string(frame));
        EXPECT_FALSE(replaySegments(dir).identical)
            << "cut at " << frame;
    }
    EXPECT_LT(peakRssKib() - before, kRssBudgetKib);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace journal
} // namespace darth
