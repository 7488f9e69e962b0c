/**
 * @file
 * Cycle/energy/event accounting shared by every simulated component.
 *
 * Components accumulate costs into a CostTally under named categories
 * (e.g. "dce.nor", "ace.adc"). Benchmarks aggregate tallies to produce
 * the per-kernel breakdowns of Figures 14–18.
 */

#ifndef DARTH_COMMON_STATS_H
#define DARTH_COMMON_STATS_H

#include <map>
#include <string>
#include <vector>

#include "common/Types.h"

namespace darth
{

/** One accounting category: event count, cycles, and energy. */
struct CostEntry
{
    u64 events = 0;
    Cycle cycles = 0;
    PicoJoule energy = 0.0;

    CostEntry &
    operator+=(const CostEntry &other)
    {
        events += other.events;
        cycles += other.cycles;
        energy += other.energy;
        return *this;
    }
};

/**
 * Named cost accumulator.
 *
 * Cycles recorded here are *occupancy* cycles of the component doing
 * the work; end-to-end latency is tracked separately by the components
 * that model overlap (e.g. the HCT's ACE/DCE rate matching).
 */
class CostTally
{
  public:
    /** Record an event under a category. */
    void
    add(const std::string &category, Cycle cycles, PicoJoule energy,
        u64 events = 1)
    {
        auto &e = entries_[category];
        e.events += events;
        e.cycles += cycles;
        e.energy += energy;
    }

    /**
     * Direct handle to a category's accumulator (created if absent).
     * Hot paths that charge the same category millions of times cache
     * this pointer (CostHandle) to skip the per-add string
     * construction and map walk; std::map node addresses are stable,
     * so the handle stays valid until clear(), which destroys the
     * nodes and bumps generation().
     */
    CostEntry &entry(const std::string &category)
    {
        return entries_[category];
    }

    /** Incremented by clear(); guards cached entry() handles. */
    u64 generation() const { return generation_; }

    /** Merge another tally into this one. */
    void
    merge(const CostTally &other)
    {
        for (const auto &[name, entry] : other.entries_)
            entries_[name] += entry;
    }

    /** Merge with every category name prefixed (e.g. "hct0."). */
    void
    mergePrefixed(const std::string &prefix, const CostTally &other)
    {
        for (const auto &[name, entry] : other.entries_)
            entries_[prefix + name] += entry;
    }

    /** Look up a category (zero entry if absent). */
    CostEntry
    get(const std::string &category) const
    {
        auto it = entries_.find(category);
        return it == entries_.end() ? CostEntry{} : it->second;
    }

    /** Sum of cycles across categories matching the given prefix. */
    Cycle
    cyclesWithPrefix(const std::string &prefix) const
    {
        Cycle total = 0;
        for (const auto &[name, entry] : entries_)
            if (name.rfind(prefix, 0) == 0)
                total += entry.cycles;
        return total;
    }

    /** Sum of energy across categories matching the given prefix. */
    PicoJoule
    energyWithPrefix(const std::string &prefix = "") const
    {
        PicoJoule total = 0.0;
        for (const auto &[name, entry] : entries_)
            if (name.rfind(prefix, 0) == 0)
                total += entry.energy;
        return total;
    }

    /** Total energy across all categories. */
    PicoJoule totalEnergy() const { return energyWithPrefix(""); }

    /** Total cycles across all categories (occupancy, not latency). */
    Cycle totalCycles() const { return cyclesWithPrefix(""); }

    /** All categories, sorted by name. */
    const std::map<std::string, CostEntry> &entries() const
    {
        return entries_;
    }

    /** Drop all recorded data (invalidates entry() handles). */
    void
    clear()
    {
        entries_.clear();
        ++generation_;
    }

  private:
    std::map<std::string, CostEntry> entries_;
    u64 generation_ = 0;
};

/**
 * One category's CostTally::entry() handle, resolved again only when
 * the tally's generation moves: for components that charge the same
 * category on every MVM.
 */
class CostHandle
{
  public:
    explicit CostHandle(const char *category) : category_(category) {}

    /** The category's accumulator in `tally`; null when `tally` is. */
    CostEntry *
    get(CostTally *tally)
    {
        if (tally == nullptr)
            return nullptr;
        if (tally != tally_ || generation_ != tally->generation()) {
            tally_ = tally;
            generation_ = tally->generation();
            entry_ = &tally->entry(category_);
        }
        return entry_;
    }

  private:
    const char *category_;
    CostTally *tally_ = nullptr;
    u64 generation_ = 0;
    CostEntry *entry_ = nullptr;
};

/** Geometric mean of a list of positive ratios (1.0 for empty input). */
double geoMean(const std::vector<double> &ratios);

/**
 * Nearest-rank percentile of a sample: the smallest value such that
 * at least p percent of the sample is <= it. `p` is clamped to
 * [0, 100]; an empty sample yields 0. Takes the sample by value (it
 * is sorted internally).
 */
double percentile(std::vector<double> values, double p);

/** Latency-distribution summary used by the serving telemetry. */
struct SampleSummary
{
    std::size_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/** Summarize a sample (all-zero summary for empty input). */
SampleSummary summarize(const std::vector<double> &values);

/**
 * Fixed-width histogram with exact streaming aggregates, the O(1)
 * memory replacement for retained per-request sample vectors in the
 * serving telemetry.
 *
 * Buckets are uniform-width over [0, width * maxBuckets); a sample
 * beyond the top edge doubles the width (merging adjacent bucket
 * pairs) until it fits, so the memory footprint is a constant
 * `maxBuckets` counters regardless of sample count or range. All
 * width growth is by powers of two from the initial width, which
 * makes histograms mergeable: the finer side collapses exactly onto
 * the coarser side's bucket grid.
 *
 * count/sum/min/max are exact (sum accumulates in push order, so it
 * is bit-equal to a push-order fold over the retained samples).
 * percentile() returns the lower edge of the bucket containing the
 * nearest-rank sample, so it can sit below the true nearest-rank
 * value by at most one bucket width (and never above it).
 */
class StreamingHistogram
{
  public:
    explicit StreamingHistogram(double bucketWidth = 1.0,
                                std::size_t maxBuckets = 4096)
        : width_(bucketWidth), maxBuckets_(maxBuckets)
    {
    }

    /** Record one sample (negative samples count into bucket 0). */
    void push(double v);

    std::size_t count() const { return count_; }
    /** Exact sum in push order (0 when empty). */
    double sum() const { return sum_; }
    /** Exact extrema (0 when empty). */
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }
    /** Current bucket width (the percentile error bound). */
    double bucketWidth() const { return width_; }

    /**
     * Lower edge of the bucket holding the nearest-rank sample
     * (common/Stats percentile definition); `p` clamped to
     * [0, 100], empty histogram yields 0.
     */
    double percentile(double p) const;

    /** Summary with exact count/min/max/mean and bucketed
     *  percentiles. */
    SampleSummary summary() const;

    /** Fold another histogram in (exact aggregates merge exactly;
     *  the finer grid collapses onto the coarser one). Histograms
     *  must share the same initial width and maxBuckets. */
    void merge(const StreamingHistogram &other);

  private:
    /** Double the bucket width, merging adjacent bucket pairs. */
    void coarsen();

    double width_;
    std::size_t maxBuckets_;
    std::vector<u64> counts_;
    std::size_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace darth

#endif // DARTH_COMMON_STATS_H
