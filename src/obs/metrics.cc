#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.hh"

namespace retsim {
namespace obs {

// ------------------------------------------------------------------
// HistogramData

HistogramData::HistogramData(std::vector<double> upper_bounds)
    : bounds(std::move(upper_bounds)), counts(bounds.size() + 1, 0)
{
    RETSIM_ASSERT(std::is_sorted(bounds.begin(), bounds.end()),
                  "histogram bounds must be ascending");
}

void
HistogramData::observe(double value)
{
    // Bucket i holds values <= bounds[i]; anything above every bound
    // lands in the trailing overflow slot.
    std::size_t b = static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), value) -
        bounds.begin());
    ++counts[b];
    sum += value;
    ++count;
}

void
HistogramData::merge(const HistogramData &other)
{
    RETSIM_ASSERT(bounds == other.bounds,
                  "merging histograms with different bucket layouts");
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts[i] += other.counts[i];
    sum += other.sum;
    count += other.count;
}

void
HistogramData::clear()
{
    std::fill(counts.begin(), counts.end(), 0);
    sum = 0.0;
    count = 0;
}

// ------------------------------------------------------------------
// MetricShard

void
MetricShard::add(MetricId id, std::uint64_t delta)
{
    RETSIM_ASSERT(id.index < counters_.size(),
                  "metric registered after the shard was created");
    counters_[id.index] += delta;
}

void
MetricShard::observe(MetricId id, double value)
{
    RETSIM_ASSERT(id.index < histogramIndex_.size() &&
                      histogramIndex_[id.index] !=
                          std::numeric_limits<std::uint32_t>::max(),
                  "observe() target is not a histogram in this shard");
    histograms_[histogramIndex_[id.index]].observe(value);
}

std::uint64_t
MetricShard::counterValue(MetricId id) const
{
    RETSIM_ASSERT(id.index < counters_.size(), "metric not in shard");
    return counters_[id.index];
}

void
MetricShard::merge(const MetricShard &other)
{
    RETSIM_ASSERT(counters_.size() == other.counters_.size() &&
                      histograms_.size() == other.histograms_.size(),
                  "merging shards from different registry generations");
    for (std::size_t i = 0; i < counters_.size(); ++i)
        counters_[i] += other.counters_[i];
    for (std::size_t i = 0; i < histograms_.size(); ++i)
        histograms_[i].merge(other.histograms_[i]);
}

void
MetricShard::clear()
{
    std::fill(counters_.begin(), counters_.end(), 0);
    for (HistogramData &h : histograms_)
        h.clear();
}

// ------------------------------------------------------------------
// Registry

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

MetricId
Registry::registerMetric(const std::string &name, MetricKind kind,
                         std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::uint32_t i = 0; i < metrics_.size(); ++i) {
        if (metrics_[i].name == name) {
            RETSIM_ASSERT(metrics_[i].kind == kind,
                          "metric '", name,
                          "' re-registered with a different kind");
            return MetricId{i};
        }
    }
    Metric m;
    m.name = name;
    m.kind = kind;
    m.histogram = HistogramData(std::move(bounds));
    metrics_.push_back(std::move(m));
    return MetricId{static_cast<std::uint32_t>(metrics_.size() - 1)};
}

MetricId
Registry::counter(const std::string &name)
{
    return registerMetric(name, MetricKind::Counter, {});
}

MetricId
Registry::gauge(const std::string &name)
{
    return registerMetric(name, MetricKind::Gauge, {});
}

MetricId
Registry::histogram(const std::string &name,
                    std::vector<double> upper_bounds)
{
    return registerMetric(name, MetricKind::Histogram,
                          std::move(upper_bounds));
}

void
Registry::add(MetricId id, std::uint64_t delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    RETSIM_ASSERT(id.index < metrics_.size() &&
                      metrics_[id.index].kind == MetricKind::Counter,
                  "add() needs a registered counter");
    metrics_[id.index].counter += delta;
}

void
Registry::set(MetricId id, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    RETSIM_ASSERT(id.index < metrics_.size() &&
                      metrics_[id.index].kind == MetricKind::Gauge,
                  "set() needs a registered gauge");
    metrics_[id.index].gauge = value;
}

void
Registry::observe(MetricId id, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    RETSIM_ASSERT(id.index < metrics_.size() &&
                      metrics_[id.index].kind == MetricKind::Histogram,
                  "observe() needs a registered histogram");
    metrics_[id.index].histogram.observe(value);
}

std::uint64_t
Registry::counterValue(MetricId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    RETSIM_ASSERT(id.index < metrics_.size() &&
                      metrics_[id.index].kind == MetricKind::Counter,
                  "counterValue() needs a registered counter");
    return metrics_[id.index].counter;
}

double
Registry::gaugeValue(MetricId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    RETSIM_ASSERT(id.index < metrics_.size() &&
                      metrics_[id.index].kind == MetricKind::Gauge,
                  "gaugeValue() needs a registered gauge");
    return metrics_[id.index].gauge;
}

HistogramData
Registry::histogramValue(MetricId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    RETSIM_ASSERT(id.index < metrics_.size() &&
                      metrics_[id.index].kind == MetricKind::Histogram,
                  "histogramValue() needs a registered histogram");
    return metrics_[id.index].histogram;
}

MetricShard
Registry::makeShard() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricShard shard;
    shard.counters_.assign(metrics_.size(), 0);
    shard.histogramIndex_.assign(
        metrics_.size(), std::numeric_limits<std::uint32_t>::max());
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        if (metrics_[i].kind == MetricKind::Histogram) {
            shard.histogramIndex_[i] =
                static_cast<std::uint32_t>(shard.histograms_.size());
            shard.histograms_.push_back(
                HistogramData(metrics_[i].histogram.bounds));
        }
    }
    return shard;
}

void
Registry::fold(MetricShard &shard)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        RETSIM_ASSERT(shard.counters_.size() <= metrics_.size(),
                      "shard from a different registry");
        for (std::size_t i = 0; i < shard.counters_.size(); ++i) {
            if (shard.counters_[i] == 0)
                continue;
            RETSIM_ASSERT(metrics_[i].kind == MetricKind::Counter,
                          "shard counter slot maps to a non-counter");
            metrics_[i].counter += shard.counters_[i];
        }
        for (std::size_t i = 0; i < shard.histogramIndex_.size(); ++i) {
            std::uint32_t slot = shard.histogramIndex_[i];
            if (slot == std::numeric_limits<std::uint32_t>::max())
                continue;
            if (shard.histograms_[slot].count == 0)
                continue;
            metrics_[i].histogram.merge(shard.histograms_[slot]);
        }
    }
    shard.clear();
}

std::vector<MetricSnapshot>
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<MetricSnapshot> out;
    out.reserve(metrics_.size());
    for (const Metric &m : metrics_) {
        MetricSnapshot s;
        s.name = m.name;
        s.kind = m.kind;
        s.counter = m.counter;
        s.gauge = m.gauge;
        s.histogram = m.histogram;
        out.push_back(std::move(s));
    }
    return out;
}

namespace {

void
appendJsonNumber(std::ostringstream &oss, double v)
{
    if (std::isfinite(v)) {
        oss << v;
    } else {
        // JSON has no inf/nan literals; clamp to null.
        oss << "null";
    }
}

} // namespace

std::string
Registry::toJson() const
{
    std::vector<MetricSnapshot> snap = snapshot();
    std::ostringstream oss;
    oss.precision(17);
    oss << "{\"counters\":{";
    bool first = true;
    for (const MetricSnapshot &m : snap) {
        if (m.kind != MetricKind::Counter)
            continue;
        oss << (first ? "" : ",") << '"' << m.name << "\":"
            << m.counter;
        first = false;
    }
    oss << "},\"gauges\":{";
    first = true;
    for (const MetricSnapshot &m : snap) {
        if (m.kind != MetricKind::Gauge)
            continue;
        oss << (first ? "" : ",") << '"' << m.name << "\":";
        appendJsonNumber(oss, m.gauge);
        first = false;
    }
    oss << "},\"histograms\":{";
    first = true;
    for (const MetricSnapshot &m : snap) {
        if (m.kind != MetricKind::Histogram)
            continue;
        oss << (first ? "" : ",") << '"' << m.name
            << "\":{\"bounds\":[";
        for (std::size_t i = 0; i < m.histogram.bounds.size(); ++i) {
            if (i)
                oss << ',';
            appendJsonNumber(oss, m.histogram.bounds[i]);
        }
        oss << "],\"counts\":[";
        for (std::size_t i = 0; i < m.histogram.counts.size(); ++i) {
            if (i)
                oss << ',';
            oss << m.histogram.counts[i];
        }
        oss << "],\"sum\":";
        appendJsonNumber(oss, m.histogram.sum);
        oss << ",\"count\":" << m.histogram.count << '}';
        first = false;
    }
    oss << "}}";
    return oss.str();
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Metric &m : metrics_) {
        m.counter = 0;
        m.gauge = 0.0;
        m.histogram.clear();
    }
}

std::size_t
Registry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return metrics_.size();
}

} // namespace obs
} // namespace retsim
