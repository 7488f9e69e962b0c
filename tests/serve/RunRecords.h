/**
 * @file
 * Per-request facts of a serve run, read back from its journal — the
 * serving layer's only per-request record. A request's Arrival
 * record stamps its arrival; its Complete record carries the tenant,
 * start and done stamps, MVM count, and the FNV-1a of its output; a
 * Backpressure record with d = 1 marks its rejection.
 */

#ifndef DARTH_TESTS_SERVE_RUNRECORDS_H
#define DARTH_TESTS_SERVE_RUNRECORDS_H

#include <cstddef>
#include <vector>

#include "common/Types.h"
#include "journal/Journal.h"
#include "serve/Admission.h"
#include "serve/ServeStats.h"
#include "serve/TrafficGen.h"

namespace darth
{
namespace serve
{
namespace test
{

/** One request as the run journal records it. */
struct RequestRecord
{
    std::size_t tenant = 0;
    WallNs arrival = 0;
    /** Dropped by the Reject overflow policy. */
    bool rejected = false;
    /** Completed; the fields below are set only then. */
    bool completed = false;
    WallNs start = 0;
    WallNs done = 0;
    u64 mvms = 0;
    /** fnv1aWords of the output values. */
    u64 outputFnv = 0;

    double latency() const { return static_cast<double>(done - arrival); }
    double queueing() const
    {
        return static_cast<double>(start - arrival);
    }
};

/** A run's requests, by request index and in completion order. */
struct RunRecords
{
    std::vector<RequestRecord> requests;
    /** Completed request indices in journal order: the order each
     *  tenant's report histograms were pushed in. */
    std::vector<std::size_t> completionOrder;

    /** done - arrival of tenant t's completions, in completion order. */
    std::vector<double>
    latencies(std::size_t t) const
    {
        std::vector<double> out;
        for (const std::size_t i : completionOrder)
            if (requests[i].tenant == t)
                out.push_back(requests[i].latency());
        return out;
    }

    /** start - arrival of tenant t's completions, in completion
     *  order. */
    std::vector<double>
    queueings(std::size_t t) const
    {
        std::vector<double> out;
        for (const std::size_t i : completionOrder)
            if (requests[i].tenant == t)
                out.push_back(requests[i].queueing());
        return out;
    }

    /** Tenant t's completions with done <= ns (a windowed share under
     *  saturation, where the end-of-trace drain would otherwise
     *  flatten every class to its submitted count). */
    u64
    completedBy(std::size_t t, WallNs ns) const
    {
        u64 count = 0;
        for (const std::size_t i : completionOrder)
            count += requests[i].tenant == t && requests[i].done <= ns;
        return count;
    }
};

inline RunRecords
readRunRecords(const journal::Journal &jr)
{
    RunRecords out;
    auto at = [&out](u64 index) -> RequestRecord & {
        if (index >= out.requests.size())
            out.requests.resize(index + 1);
        return out.requests[index];
    };
    for (const journal::JournalEvent &e : jr.events()) {
        switch (e.kind) {
          case journal::EventKind::Arrival: {
            RequestRecord &r = at(e.a);
            r.tenant = e.b;
            r.arrival = e.cycle;
            break;
          }
          case journal::EventKind::Backpressure:
            if (e.d == 1)
                at(e.a).rejected = true;
            break;
          case journal::EventKind::Complete: {
            RequestRecord &r = at(e.a);
            r.completed = true;
            r.tenant = e.b;
            r.done = e.cycle;
            r.start = static_cast<WallNs>(e.values.at(0));
            r.mvms = static_cast<u64>(e.values.at(1));
            r.outputFnv = e.d;
            out.completionOrder.push_back(e.a);
            break;
          }
          default:
            break;
        }
    }
    return out;
}

/** A run's report and its journal's per-request records. */
struct RecordedRun
{
    ServeReport report;
    RunRecords records;
};

/** Run `trace` through `ac` with a journal attached. */
inline RecordedRun
runRecorded(AdmissionController &ac,
            const std::vector<ServeRequest> &trace)
{
    journal::Journal jr;
    ac.setJournal(&jr);
    RecordedRun out{ac.run(trace), {}};
    ac.setJournal(nullptr);
    out.records = readRunRecords(jr);
    return out;
}

} // namespace test
} // namespace serve
} // namespace darth

#endif // DARTH_TESTS_SERVE_RUNRECORDS_H
