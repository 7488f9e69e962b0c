/**
 * @file
 * Bit-exact replay of serve runs from their journals.
 *
 * recordServeRun() drives one complete serving scenario — pool,
 * admission, tenants, traffic — with a Journal attached, producing a
 * journal that is *self-describing*: its header records (RunBegin,
 * PoolChip, AdmissionSetup, TenantSetup) carry the factory inputs of
 * every component and its Arrival records carry the full input of
 * every request. Replayer then reconstructs the run from the journal
 * alone: it re-builds the pool and admission controller from the
 * parsed setup, re-drives admission with the recorded arrival
 * sequence, and compares the *entire* re-recorded event stream —
 * every placement decision, admission cycle, stage completion, and
 * output checksum — against the recorded one. Any divergence (a
 * config field the journal failed to capture, a nondeterminism bug,
 * a behavior change since recording) surfaces as a named first
 * mismatching event, never as silently different results. Crash
 * recovery and postmortem debugging are the same mechanism: the
 * journal is sufficient to reproduce the run, and the comparison
 * proves it.
 *
 * The reconstructible pool universe is the serving factory surface:
 * uniform pools of default or serve-geometry chips
 * (serve/ChipConfig.h uniformChipSpec) and heterogeneous SAR/ramp
 * design-point pools (heteroChipSpec). ServeRunSetup names slots by
 * those factory inputs rather than serializing the whole
 * runtime::ChipConfig tree; the PoolChip records additionally carry
 * the derived silicon fields, so a factory whose derivation drifted
 * since recording fails the replay comparison loudly.
 */

#ifndef DARTH_JOURNAL_REPLAYER_H
#define DARTH_JOURNAL_REPLAYER_H

#include <cstddef>
#include <string>
#include <vector>

#include "journal/Journal.h"
#include "serve/Admission.h"
#include "serve/ChipPool.h"
#include "serve/ServeStats.h"
#include "serve/TrafficGen.h"

namespace darth
{
namespace journal
{

/**
 * TraceBegin `a` sentinel of a streamed recording: the request count
 * is unknown when the header is written (the source is pull-based),
 * so the record announces "until end of stream" instead. Replay
 * accepts either form and re-announces the recorded one, so the
 * replayed stream carries the same TraceBegin record.
 */
constexpr u64 kStreamedTraceCount = ~u64{0};

/** Which factory built a pool slot (PoolChip record `b`). */
enum class SlotKind : u32
{
    /** Default runtime::ChipConfig with `hcts` tiles (0 = the
     *  config's default count). */
    Default = 0,
    /** serve::uniformChipSpec(hcts) — the serve-bench geometry. */
    Uniform = 1,
    /** serve::heteroChipSpec(Sar, hcts) — `hcts` is the SAR
     *  iso-area baseline. */
    Sar = 2,
    /** serve::heteroChipSpec(Ramp, hcts) — `hcts` is the *SAR*
     *  baseline the ramp count is iso-area-scaled from. */
    Ramp = 3,
};

/** Factory inputs of one pool slot. */
struct PoolSlotSetup
{
    SlotKind kind = SlotKind::Default;
    /** Tile-count factory input (see SlotKind); at most the
     *  iso-area chip's model::ChipModel::hctCount() (Table 3). */
    std::size_t hcts = 0;
    double clockGHz = 1.0;
};

/**
 * Everything needed to re-create a serve run: the journal's header
 * records parse back into exactly this.
 */
struct ServeRunSetup
{
    /**
     * Header schema version (RunBegin `a`). Version 2 moved the
     * serving layer to wall-clock nanoseconds (TenantSetup gained
     * the arrive/depart window, the SLO target and burst phases
     * became wall ns, run-record stamps became wall ns) and added
     * the optional FleetSetup record. Version-1 journals parse at
     * the container level (Journal::readBinary) but are rejected
     * here with a versioned error — their cycle-stamped histories
     * cannot be compared against a wall-clock replay.
     */
    static constexpr u64 kSetupVersion = 2;

    /**
     * True = PoolConfig's uniform path (chip + numChips; ChipPool
     * replicates quotes across identical slots). False = one
     * ChipSpec per slot. `slots` has one entry per chip either way;
     * a uniform pool's entries must be identical.
     */
    bool uniformPool = true;
    std::vector<PoolSlotSetup> slots = {PoolSlotSetup{}};
    serve::PlacementPolicy placement =
        serve::PlacementPolicy::LeastLoaded;
    u64 poolSeed = 1;
    WallNs backlogWindowNs = 50000;

    serve::AdmissionConfig admission;

    /** True for a fleet-mode run (tenant churn, live migration,
     *  autoscaling under `fleetCfg`). */
    bool fleet = false;
    serve::FleetConfig fleetCfg;

    std::vector<serve::TenantSpec> tenants;
    /** Traffic seed the recorded trace was generated with. */
    u64 trafficSeed = 1;
    /** Open-loop horizon of the recorded trace (wall ns). */
    WallNs horizon = 0;

    /** The PoolConfig this setup builds (throws std::invalid_argument
     *  on an unbuildable setup: no slots, non-uniform uniform pool,
     *  bad clock, a tile count above the iso-area chip's). */
    serve::PoolConfig poolConfig() const;
};

/** A recorded run: the journal plus what the run produced. */
struct ServeRunRecord
{
    Journal journal;
    serve::ServeReport report;
    std::vector<serve::ServeRequest> trace;
};

/**
 * Run setup's scenario once with a journal attached: generates the
 * trace from TrafficGen(setup.trafficSeed) over setup.horizon,
 * builds the pool and admission controller, and records every event.
 * The journal is the run's per-request record: each request's
 * arrival, start, completion, and output checksum.
 */
ServeRunRecord recordServeRun(const ServeRunSetup &setup);

/** recordServeRun with an explicit (sorted) trace instead of a
 *  TrafficGen-generated one. */
ServeRunRecord recordServeRun(const ServeRunSetup &setup,
                              const std::vector<serve::ServeRequest> &trace);

/**
 * Stream-record setup's scenario at flat memory: the same
 * self-describing record sequence recordServeRun produces — header,
 * placements, TraceBegin (with kStreamedTraceCount), run events —
 * appends through `jr` as the run progresses, with requests pulled
 * one at a time from `source` (which overrides the setup's
 * trafficSeed/horizon trace) and driven through
 * AdmissionController::runStream. Attach a SegmentWriter to `jr`
 * with retention off (Journal::attachSink) and the whole recording
 * path — trace, run, journal — is O(requests in flight), not
 * O(requests).
 * `jr` must be empty. Returns the run's report.
 */
serve::ServeReport recordServeRunStream(const ServeRunSetup &setup,
                                        serve::RequestSource &source,
                                        Journal &jr);

/** Result of replaySegments(). */
struct SegmentReplayResult
{
    serve::ServeReport report;
    /** Chain checksum of the recorded segment directory. */
    u64 recordedChain = 0;
    /** Chain checksum of the replayed stream, in the recording's
     *  form (compacted when the recording is compacted). */
    u64 replayedChain = 0;
    /** Records in the recorded segment directory. */
    std::size_t recordedRecords = 0;
    /** True when the replayed stream is bit-identical to the
     *  recording (chain checksums and record counts match). */
    bool identical = false;
    /** Human-readable mismatch description (empty when identical). */
    std::string detail;
};

/**
 * Replay a segmented recording from `dir` at flat memory: stream the
 * header out of the segments, rebuild the setup, re-drive the run
 * with the recorded arrivals streamed back in (runStream, matching
 * the recording path), and prove bit-identity by FNV chain checksum
 * and record count — of the live stream against a live recording, or
 * of the Compactor-transformed stream against a compacted recording
 * (detected by its RequestSummary records). Throws
 * std::runtime_error on a malformed or unreadable directory.
 */
SegmentReplayResult replaySegments(const std::string &dir);

/**
 * Reconstructs a serve run from its journal alone and proves the
 * reconstruction by re-recording it.
 */
class Replayer
{
  public:
    /** Parses the setup and arrival trace out of a recorded journal;
     *  throws std::runtime_error on a malformed or incomplete one. */
    explicit Replayer(Journal recorded);

    const ServeRunSetup &setup() const { return setup_; }
    /** The arrival sequence, rebuilt from the Arrival records — or,
     *  on a compacted recording, from its RequestSummary records
     *  (which carry each request's arrival and input words). */
    const std::vector<serve::ServeRequest> &trace() const
    {
        return trace_;
    }

    /** True when the recording was streamed (TraceBegin carries
     *  kStreamedTraceCount); replay() re-announces the sentinel so
     *  the streams compare record for record. */
    bool streamed() const { return streamed_; }

    struct Result
    {
        serve::ServeReport report;
        /** The re-recorded journal. */
        Journal journal;
        /** True when the replayed event stream (and so every cycle
         *  stamp and checksum) matches the recorded one exactly. */
        bool identical = false;
        /** Index of the first mismatching event (= recorded size
         *  when identical, or when one stream is a prefix of the
         *  other). */
        std::size_t firstMismatch = 0;
        /** Human-readable mismatch description (empty when
         *  identical). */
        std::string detail;
    };

    /** Re-drive the run from the parsed setup + trace and compare
     *  event streams. */
    Result replay() const;

  private:
    Journal recorded_;
    ServeRunSetup setup_;
    std::vector<serve::ServeRequest> trace_;
    bool streamed_ = false;
};

} // namespace journal
} // namespace darth

#endif // DARTH_JOURNAL_REPLAYER_H
