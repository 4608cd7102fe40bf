#include "trace.hh"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace perfbench {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int
confineToOneCpu()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return -1;
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            last = c;
    if (last < 0)
        return -1;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(last, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? last : -1;
}

std::int64_t
Tracer::begin(const char *name, std::int64_t job)
{
    if (!enabled_)
        return -1;
    SpanRecord span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.job = job;
    const auto index = static_cast<std::int64_t>(spans_.size());
    open_.push_back(index);
    spans_.push_back(span);
    // Read the clock last so the bookkeeping above is not charged to
    // the span.
    spans_.back().start_s = nowSeconds();
    return index;
}

void
Tracer::end(std::int64_t index)
{
    if (index < 0)
        return;
    const double t = nowSeconds();
    if (open_.empty() || open_.back() != index) {
        std::fprintf(stderr, "Tracer: spans must close innermost first\n");
        std::abort();
    }
    open_.pop_back();
    spans_[static_cast<std::size_t>(index)].end_s = t;
}

void
Tracer::clear()
{
    if (!open_.empty())
        throw std::logic_error("Tracer::clear with open spans");
    spans_.clear();
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    // Children of one parent never overlap (spans nest strictly on one
    // thread), so the covered part of a span is the sum of its direct
    // children's durations.
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const SpanRecord &span : spans_)
        if (span.parent >= 0)
            child_s[static_cast<std::size_t>(span.parent)] +=
                span.end_s - span.start_s;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] +=
            std::max(0.0, spans_[i].end_s - spans_[i].start_s - child_s[i]);
    return out;
}

void
Tracer::writeJsonl(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        throw std::runtime_error("cannot write span file " + path);
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,"
                     "\"job\":%lld,\"start_s\":%.9f,\"end_s\":%.9f}\n",
                     i, s.name, static_cast<long long>(s.parent),
                     static_cast<long long>(s.job), s.start_s - t0,
                     s.end_s - t0);
    }
    std::fclose(f);
}

} // namespace perfbench
