/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one interval spent inside a layer: its name, start, end,
 * the span that caused it and the solve it belongs to.  Spans are
 * kept in memory while the run measures and written out afterwards
 * as trace-event JSON, which Perfetto and chrome://tracing open.
 * Every span is recorded from the benchmark's own files, around a
 * call into one of the program's public entry points.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on the steady clock since the first call. */
std::int64_t nowNs();

/** Small stable id of the calling thread (for trace lanes). */
std::uint32_t threadLane();

struct Span
{
    const char *name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t solve = 0;  ///< shared by every span of one solve
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint32_t lane = 0;
};

class SpanRecorder
{
  public:
    /** Row-kernel spans are the only per-call spans; past this many
     *  the sampler is still timed, but no longer span by span. */
    static constexpr std::uint64_t kMaxRowSpans = 200000;

    std::uint64_t newId() { return nextId_.fetch_add(1) + 1; }

    void record(const Span &span);

    /** Claims one row-span slot; false once the budget is spent. */
    bool claimRowSpan() { return rowSpans_.fetch_add(1) < kMaxRowSpans; }

    std::vector<Span> spans() const;

    /** Summed duration (s) of every span called @p name. */
    double totalSeconds(const std::string &name) const;

    /**
     * Self time (s) per span name: each span's duration minus the
     * part of it that its children on the same lane cover.
     */
    std::map<std::string, double> selfSeconds() const;

    /** Writes the trace-event JSON; false when the file can't be
     *  written. */
    bool write(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::atomic<std::uint64_t> nextId_{0};
    std::atomic<std::uint64_t> rowSpans_{0};
};

/** Records one span on destruction; a null recorder records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, const char *name,
               std::uint64_t parent, std::uint64_t solve);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return span_.id; }

  private:
    SpanRecorder *recorder_;
    Span span_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
