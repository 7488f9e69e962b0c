/**
 * @file
 * Shared pieces of the repository benchmark: run options, the metric
 * result every workload fills, medians, failure accounting, the
 * determinism fingerprint, and the span tracer of traced runs.
 *
 * Spans are recorded only around public calls into the simulator,
 * from these benchmark files: name, start, end, parent span and the
 * unit (forward or serve run) they belong to. Calls too short and
 * too many to keep one span each (per-request source pulls, per-record
 * journal sink writes) are summed into one aggregate child span per
 * parent, carrying its call count. A span's self time is its duration
 * minus the time its children cover; children never overlap because
 * every span opens and closes on the benchmark's own thread.
 */

#ifndef DARTH_PERFBENCH_HARNESS_H
#define DARTH_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/Types.h"

namespace perfbench
{

using darth::u64;
using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `t0` on the steady clock. */
double secondsSince(Clock::time_point t0);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    u64 seed = 0;
    /** Length of the measured phase in host seconds. */
    double seconds = 10.0;
    /** Record spans and report per-layer metrics. */
    bool trace = false;
    /** Directory for temporary files and the trace (inside the
     *  checkout; created if missing). */
    std::string workDir = ".";
    /** Host worker threads the serve runs use (fixed per run). */
    std::size_t threads = 1;
};

/** One reported number with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Result
{
    u64 attempted = 0;
    u64 failed = 0;
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> perLayer;
    /** FNV-1a over every simulated quantity the run produced; equal
     *  across runs of one seed, traced or not. */
    u64 fingerprint = 0;
    /** Free-form lines for stderr and the trace file. */
    std::vector<std::string> notes;

    void e2e(const std::string &name, double value, const char *unit)
    {
        endToEnd[name] = {value, unit};
    }
    void layer(const std::string &name, double value, const char *unit)
    {
        perLayer[name] = {value, unit};
    }

    /** Count one correctness check; a failing one is logged. */
    void check(bool ok, const std::string &what);
    /** Count `tried` operations of which `bad` failed (logged). */
    void count(u64 tried, u64 bad, const std::string &what);
};

/** Tenant name `<prefix><index>`, as serve_bench names them (built
 *  with snprintf: GCC 12 warns falsely, -Wrestrict, on string
 *  concatenation of this shape). */
std::string tenantName(char prefix, std::size_t index);

/** Median of a non-empty sample (mean of the middle pair when even). */
double median(std::vector<double> values);

/**
 * Throughput over repeats that each did `work`, at the fastest repeat.
 * A shared host switches for seconds at a time between a fast state
 * and one up to ~1.6x slower, and the share of slow time drifts from
 * run to run: the mean and the median repeat follow that share, the
 * fastest repeat follows the code.
 */
double bestRate(double work, const std::vector<double> &seconds);

/** Word-wise FNV-1a over simulated values (doubles by bit pattern). */
class Fingerprint
{
  public:
    void add(u64 word);
    void add(double value);
    u64 value() const { return hash_; }

  private:
    u64 hash_ = 0xcbf29ce484222325ULL;
};

/** One recorded span. */
struct SpanRecord
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    /** Index of the parent span, or kNoParent. */
    std::size_t parent = 0;
    /** Forward or serve-run index the span belongs to. */
    u64 unit = 0;
    /** Calls summed into an aggregate span (1 for a plain span). */
    u64 calls = 1;
    /** Summed duration of the aggregate (end - start otherwise). */
    double total = 0.0;
};

/**
 * In-memory span recorder. Disabled, every operation is a no-op, so
 * the untraced and traced runs execute the same calls.
 */
class Tracer
{
  public:
    static constexpr std::size_t kNoParent = ~std::size_t{0};

    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; returns its id. */
    std::size_t open(const std::string &name, u64 unit);
    void close(std::size_t id);

    /** Record `calls` short calls summing `seconds` as one aggregate
     *  child of the innermost open span. */
    void aggregate(const std::string &name, u64 unit, u64 calls,
                   double seconds);

    /** Duration of span `id` (summed duration for aggregates). */
    double duration(std::size_t id) const;
    /** Duration of span `id` minus the durations of its children. */
    double selfTime(std::size_t id) const;

    /** Durations of every span named `name`, in record order. */
    std::vector<double> durations(const std::string &name) const;
    /** Self times of every span named `name`, in record order. */
    std::vector<double> selfTimes(const std::string &name) const;

    /** Write every span as one JSON line to `path` (after `notes`
     *  as a header object). */
    void write(const std::string &path,
               const std::vector<std::string> &notes) const;

  private:
    bool enabled_;
    Clock::time_point t0_;
    std::vector<SpanRecord> spans_;
    std::vector<std::size_t> stack_;
};

/** RAII span; a no-op when the tracer is disabled. */
class Span
{
  public:
    Span(Tracer &tracer, const std::string &name, u64 unit = 0)
        : tracer_(tracer),
          id_(tracer.enabled() ? tracer.open(name, unit)
                               : Tracer::kNoParent)
    {
    }
    ~Span()
    {
        if (id_ != Tracer::kNoParent)
            tracer_.close(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    std::size_t id_;
};

/** Sums the host time of many short calls for one aggregate span. */
struct CallTimer
{
    u64 calls = 0;
    double seconds = 0.0;
};

/** Entry points of the four workloads (one source file each). */
Result runInferResnet20(const Options &opt, Tracer &tracer);
Result runServeFleet(const Options &opt, Tracer &tracer);
Result runServeStream(const Options &opt, Tracer &tracer);
Result runPaperFigures(const Options &opt, Tracer &tracer);

/**
 * Evaluate the Fig. 13 / Fig. 16 gaps once, untimed, and report them
 * as end-to-end metrics (defined with paper_figures). Every workload
 * calls this after its measured phase: the gaps are a property of the
 * code, not of the traffic, and cost well under a second.
 */
void reportFigureGaps(Result &result);

/** Peak resident set of this process in MiB. */
double peakRssMb();

} // namespace perfbench

#endif // DARTH_PERFBENCH_HARNESS_H
