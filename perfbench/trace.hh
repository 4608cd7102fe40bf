/**
 * @file
 * In-memory span recorder for the end-to-end benchmark.
 *
 * A span records a name, a start and an end (steady_clock), the span
 * that was open when it began, and the job it belongs to. Spans stay in
 * memory while a run is measured and are written out once it ends, so
 * recording costs two clock reads and a vector append. A disabled
 * tracer records nothing; the untraced runs use one.
 *
 * Self time is a span's duration minus the part of it that its child
 * spans cover. The benchmark composes each job serially from the
 * library's public building blocks, so a layer's self time is exactly
 * the time spent inside the call the span wraps.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds since an arbitrary steady_clock epoch. */
double nowSeconds();

/**
 * Confine the calling thread, and every thread it starts afterwards, to
 * the highest-numbered CPU this process may run on. Returns that CPU,
 * or -1 when the mask cannot be read or set (the run then uses every
 * allowed CPU).
 *
 * On a shared virtual machine the CPU time the host grants to several
 * busy cores swings between about one core and four for minutes at a
 * time: unconfined four-thread fleet throughput read 7.4k jobs/s in
 * some runs and 14.4k in others, with the same CPU time per job. With
 * every thread on one core that swing is gone. What other guests do to
 * that core's speed remains; hostspeed.hh measures it.
 */
int confineToOneCpu();

/** Job id of spans that belong to no single job. */
constexpr std::int64_t kNoJob = -1;

struct SpanRecord
{
    const char *name = "";     ///< Static string: the layer name.
    double start_s = 0.0;
    double end_s = 0.0;
    std::int64_t parent = -1;  ///< Index of the enclosing span, or -1.
    std::int64_t job = kNoJob; ///< Admission index of the job.
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Open a span; returns its index (-1 when disabled). */
    std::int64_t begin(const char *name, std::int64_t job);

    /** Close the span `begin` returned. */
    void end(std::int64_t index);

    /** Drop every recorded span. */
    void clear();

    /** Sum of self time per span name. */
    std::map<std::string, double> selfSeconds() const;

    /** Write every span as one JSON object per line. */
    void writeJsonl(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<SpanRecord> spans_;
    std::vector<std::int64_t> open_; ///< Stack of open span indices.
};

/** RAII span: opens on construction, closes on destruction. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, std::int64_t job = kNoJob)
        : tracer_(tracer), index_(tracer.begin(name, job))
    {
    }

    ~Span() { tracer_.end(index_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    std::int64_t index_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
