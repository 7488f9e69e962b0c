/**
 * @file
 * Harness implementation: medians, failure accounting, the
 * fingerprint, and the span tracer (see Harness.h).
 */

#include "Harness.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include <sys/resource.h>

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
Result::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     what.c_str());
    }
}

void
Result::count(u64 tried, u64 bad, const std::string &what)
{
    attempted += tried;
    failed += bad;
    if (bad != 0)
        std::fprintf(stderr, "perfbench: %llu of %llu failed: %s\n",
                     static_cast<unsigned long long>(bad),
                     static_cast<unsigned long long>(tried),
                     what.c_str());
}

std::string
tenantName(char prefix, std::size_t index)
{
    char name[32];
    std::snprintf(name, sizeof(name), "%c%zu", prefix, index);
    return name;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::logic_error("median of an empty sample");
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : 0.5 * (values[mid - 1] + values[mid]);
}

double
bestRate(double work, const std::vector<double> &seconds)
{
    if (seconds.empty())
        throw std::logic_error("rate over no repeats");
    return work / *std::min_element(seconds.begin(), seconds.end());
}

void
Fingerprint::add(u64 word)
{
    hash_ ^= word;
    hash_ *= 0x100000001b3ULL;
}

void
Fingerprint::add(double value)
{
    u64 bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    add(bits);
}

Tracer::Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

std::size_t
Tracer::open(const std::string &name, u64 unit)
{
    SpanRecord s;
    s.name = name;
    s.start = secondsSince(t0_);
    s.parent = stack_.empty() ? kNoParent : stack_.back();
    s.unit = unit;
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
Tracer::close(std::size_t id)
{
    if (stack_.empty() || stack_.back() != id)
        throw std::logic_error("span closed out of order: " +
                               spans_.at(id).name);
    stack_.pop_back();
    SpanRecord &s = spans_[id];
    s.end = secondsSince(t0_);
    s.total = s.end - s.start;
}

void
Tracer::aggregate(const std::string &name, u64 unit, u64 calls,
                  double seconds)
{
    if (!enabled_)
        return;
    SpanRecord s;
    s.name = name;
    s.start = secondsSince(t0_);
    s.end = s.start;
    s.parent = stack_.empty() ? kNoParent : stack_.back();
    s.unit = unit;
    s.calls = calls;
    s.total = seconds;
    spans_.push_back(std::move(s));
}

double
Tracer::duration(std::size_t id) const
{
    return spans_.at(id).total;
}

double
Tracer::selfTime(std::size_t id) const
{
    double self = duration(id);
    // Children always follow their parent in record order.
    for (std::size_t i = id + 1; i < spans_.size(); ++i)
        if (spans_[i].parent == id)
            self -= spans_[i].total;
    return self;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const SpanRecord &s : spans_)
        if (s.name == name)
            out.push_back(s.total);
    return out;
}

std::vector<double>
Tracer::selfTimes(const std::string &name) const
{
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name)
            out.push_back(selfTime(i));
    return out;
}

void
Tracer::write(const std::string &path,
              const std::vector<std::string> &notes) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
    out << "{\"notes\": [";
    for (std::size_t i = 0; i < notes.size(); ++i)
        out << (i ? ", " : "") << '"' << notes[i] << '"';
    out << "], \"spans\": " << spans_.size() << "}\n";
    char line[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::snprintf(
            line, sizeof(line),
            "{\"id\": %zu, \"name\": \"%s\", \"parent\": %lld, "
            "\"unit\": %llu, \"start_s\": %.9f, \"end_s\": %.9f, "
            "\"calls\": %llu, \"total_s\": %.9f, \"self_s\": %.9f}\n",
            i, s.name.c_str(),
            s.parent == kNoParent ? -1LL
                                  : static_cast<long long>(s.parent),
            static_cast<unsigned long long>(s.unit), s.start, s.end,
            static_cast<unsigned long long>(s.calls), s.total,
            selfTime(i));
        out << line;
    }
}

double
peakRssMb()
{
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
