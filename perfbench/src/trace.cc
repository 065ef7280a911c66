#include "trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

std::int64_t
nowNs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

std::uint32_t
threadLane()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t lane = next.fetch_add(1) + 1;
    return lane;
}

void
SpanRecorder::record(const Span &span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

double
SpanRecorder::totalSeconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::int64_t ns = 0;
    for (const Span &s : spans_)
        if (name == s.name)
            ns += s.endNs - s.startNs;
    return static_cast<double>(ns) * 1e-9;
}

std::map<std::string, double>
SpanRecorder::selfSeconds() const
{
    const std::vector<Span> all = spans();
    std::unordered_map<std::uint64_t, std::vector<const Span *>> kids;
    for (const Span &s : all)
        if (s.parent)
            kids[s.parent].push_back(&s);

    std::map<std::string, double> self;
    for (const Span &s : all) {
        std::int64_t covered = 0;
        auto it = kids.find(s.id);
        if (it != kids.end()) {
            // Union of the children's intervals, clipped to the span.
            std::vector<std::pair<std::int64_t, std::int64_t>> iv;
            for (const Span *k : it->second)
                iv.emplace_back(std::max(k->startNs, s.startNs),
                                std::min(k->endNs, s.endNs));
            std::sort(iv.begin(), iv.end());
            std::int64_t lo = 0, hi = -1;
            for (const auto &[a, b] : iv) {
                if (a >= b)
                    continue;
                if (a > hi) {
                    covered += std::max<std::int64_t>(0, hi - lo);
                    lo = a;
                    hi = b;
                } else {
                    hi = std::max(hi, b);
                }
            }
            covered += std::max<std::int64_t>(0, hi - lo);
        }
        self[s.name] +=
            static_cast<double>(s.endNs - s.startNs - covered) * 1e-9;
    }
    return self;
}

bool
SpanRecorder::write(const std::string &path) const
{
    // Printed directly: a JsonValue tree of every span would cost far
    // more memory than the spans themselves.  Span names are plain
    // identifiers and need no escaping.
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    bool first = true;
    for (const Span &s : spans()) {
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                     "{\"id\":%llu,\"parent\":%llu,\"solve\":%llu}}",
                     first ? "" : ",", s.name, s.lane,
                     static_cast<double>(s.startNs) * 1e-3,
                     static_cast<double>(s.endNs - s.startNs) * 1e-3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.solve));
        first = false;
    }
    std::fputs("\n],\"otherData\":{\"self_seconds\":{", f);
    first = true;
    for (const auto &[name, seconds] : selfSeconds()) {
        std::fprintf(f, "%s\"%s\":%.9f", first ? "" : ",", name.c_str(),
                     seconds);
        first = false;
    }
    std::fputs("}}}\n", f);
    const bool ok = !std::ferror(f);
    return std::fclose(f) == 0 && ok;
}

ScopedSpan::ScopedSpan(SpanRecorder *recorder, const char *name,
                       std::uint64_t parent, std::uint64_t solve)
    : recorder_(recorder)
{
    if (!recorder_)
        return;
    span_.name = name;
    span_.id = recorder_->newId();
    span_.parent = parent;
    span_.solve = solve;
    span_.lane = threadLane();
    span_.startNs = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!recorder_)
        return;
    span_.endNs = nowNs();
    recorder_->record(span_);
}

} // namespace perfbench
