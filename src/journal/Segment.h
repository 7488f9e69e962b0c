/**
 * @file
 * Segmented on-disk journal: rotation, compaction, and streaming
 * replay support for million-request serve runs.
 *
 * A monolithic Journal holds every record in memory; a
 * million-request trace emits tens of millions of records, so the
 * durable path must stream. SegmentWriter is a JournalSink that
 * appends each record to disk as it is emitted and rotates into
 * size-bounded segment files; together with a non-retaining Journal
 * (Journal::attachSink(&writer, retainEvents=false)) the whole
 * recording path runs at flat memory.
 *
 * The FNV-1a checksum chain is *continuous across segments*: every
 * segment header carries the chain value immediately before its
 * first record (the carry checksum) plus the global index of that
 * record, so each segment is independently verifiable and the last
 * record of the last segment carries the same chainChecksum() a
 * monolithic journal of the same history would. Segment 0's carry is
 * journalChainBasis(), exactly as record 0 of a monolithic file
 * chains off the file header.
 *
 * Segment file layout (all integers little-endian):
 *
 *   magic "DARTHSGJ" (8 bytes)
 *   u32 segment format version (kSegmentVersion)
 *   u32 reserved (0)
 *   u64 segment index (0-based, must be sequential)
 *   u64 base record index (global index of the first record)
 *   u64 carry checksum (chain value before the first record)
 *   then records until EOF: u32 record length, canonical record
 *   bytes, u64 chained checksum
 *
 * Compactor turns a finished event stream into its compacted form:
 * each completed (or rejected) request's whole event group —
 * Arrival, Admit, StageSubmit, StageComplete, Backpressure,
 * Complete — collapses into one RequestSummary record carrying the
 * request's input words, outcome, and output checksum; every other
 * kind passes through unchanged. Summaries are emitted in request-
 * index order, so compaction is a deterministic function of the
 * event stream and a replayed stream compacts to the byte-identical
 * compacted journal (how Replayer::replaySegments verifies compacted
 * recordings).
 */

#ifndef DARTH_JOURNAL_SEGMENT_H
#define DARTH_JOURNAL_SEGMENT_H

#include <cstddef>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "journal/Journal.h"

namespace darth
{
namespace journal
{

/** Segment file format version. */
constexpr u32 kSegmentVersion = 1;

/** Path of segment `index` inside `dir` ("seg-000042.jseg"). */
std::string segmentFileName(const std::string &dir,
                            std::size_t index);

/**
 * JournalSink writing records into rotating size-bounded segment
 * files under one directory. Rotation happens after the record that
 * pushes the current segment's byte size to `maxSegmentBytes` or
 * beyond (a segment always holds at least one record, so an
 * oversized record never wedges the writer). The directory is
 * created if missing; pre-existing segment files are an error
 * (refusing to silently interleave two runs' histories).
 */
class SegmentWriter : public JournalSink
{
  public:
    explicit SegmentWriter(std::string dir,
                           std::size_t maxSegmentBytes = 1u << 20);
    ~SegmentWriter() override;

    SegmentWriter(const SegmentWriter &) = delete;
    SegmentWriter &operator=(const SegmentWriter &) = delete;

    void onRecord(const JournalEvent &event, std::size_t index,
                  u64 checksum,
                  const std::vector<unsigned char> &encoded) override;

    /** Flush and close the open segment (idempotent; also run by
     *  the destructor). Throws std::runtime_error on I/O failure. */
    void finish();

    /** Segments opened so far (>= 1 once a record was written). */
    std::size_t segments() const { return segmentsOpened_; }

  private:
    void openSegment(std::size_t index, std::size_t baseRecord,
                     u64 carry);

    std::string dir_;
    std::size_t maxSegmentBytes_;
    std::ofstream out_;
    bool open_ = false;
    std::size_t segmentsOpened_ = 0;
    std::size_t currentBytes_ = 0;
    u64 chain_ = 0;
};

/**
 * Sequential reader over a segment directory. Verifies, record by
 * record, the same chain a monolithic readBinary() verifies: each
 * segment's header (magic, version, sequential index, base record
 * index, carry checksum continuing the running chain) and each
 * record's chained checksum. Errors name the segment index and the
 * global record index, so corruption localizes to a file.
 */
class SegmentReader
{
  public:
    /** Opens segment 0; throws std::runtime_error when absent or
     *  malformed. */
    explicit SegmentReader(std::string dir);

    /** Read the next record; false at end of the last segment. */
    bool next(JournalEvent &out);

    /** Chain value after the records read so far. */
    u64 chainChecksum() const { return chain_; }
    /** Global index of the next record. */
    std::size_t recordIndex() const { return recordIndex_; }
    /** Segments opened so far. */
    std::size_t segmentsRead() const { return segmentIndex_; }

  private:
    /** Open segment `index`; false when its file does not exist. */
    bool openSegment(std::size_t index);

    std::string dir_;
    std::ifstream in_;
    /** The last record frame's bytes (reused across records). */
    std::vector<unsigned char> frame_;
    bool open_ = false;
    std::size_t segmentIndex_ = 0;
    std::size_t recordIndex_ = 0;
    u64 chain_ = 0;
};

/** Materialize a segment directory into an in-memory Journal (test
 *  and tooling convenience; verifies the full chain on the way). */
Journal readSegmentedJournal(const std::string &dir);

/**
 * Streaming compaction transform (see the file comment): push() the
 * finished run's events in order, finish() at end of stream;
 * summaries and pass-through records append to `out` as they
 * resolve. Request groups buffer only until every lower-indexed
 * request has closed, so memory stays bounded by the in-flight
 * window of the run. finish() throws std::runtime_error if a
 * request group never closed (a truncated history).
 */
class Compactor
{
  public:
    explicit Compactor(Journal &out) : out_(out) {}

    void push(const JournalEvent &e);
    void finish();

  private:
    struct Group
    {
        bool closed = false;
        bool completed = false;
        u64 tenant = 0;
        u64 chip = 0;
        Cycle arrivalNs = 0;
        Cycle doneNs = 0;
        u64 startNs = 0;
        u64 mvms = 0;
        u64 outputFnv = 0;
        std::vector<i64> input;
    };

    /** Emit closed groups at the emission frontier, in index
     *  order. */
    void flushClosed();

    Journal &out_;
    std::map<u64, Group> groups_;
    /** Next request index allowed to emit its summary. */
    u64 nextEmit_ = 0;
};

/** Result of compactSegments(). */
struct CompactResult
{
    std::size_t inputRecords = 0;
    std::size_t outputRecords = 0;
    std::size_t outputSegments = 0;
    /** Chain checksum of the compacted journal. */
    u64 chainChecksum = 0;
};

/** Compact a segment directory into a new segment directory
 *  (streaming end to end; flat memory). */
CompactResult compactSegments(const std::string &srcDir,
                              const std::string &dstDir,
                              std::size_t maxSegmentBytes = 1u << 20);

} // namespace journal
} // namespace darth

#endif // DARTH_JOURNAL_SEGMENT_H
