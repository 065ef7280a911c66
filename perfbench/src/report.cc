#include "report.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/metrics.hh"
#include "util/json.hh"

namespace perfbench {

using retsim::util::JsonValue;

ProcessCounters
ProcessCounters::now()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return {secs(ru.ru_utime) + secs(ru.ru_stime),
            static_cast<double>(ru.ru_minflt),
            static_cast<double>(ru.ru_nvcsw)};
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::map<std::string, double>
registryValues()
{
    std::map<std::string, double> values;
    for (const auto &m : retsim::obs::Registry::global().snapshot()) {
        if (m.kind == retsim::obs::MetricKind::Counter)
            values[m.name] = static_cast<double>(m.counter);
        else if (m.kind == retsim::obs::MetricKind::Gauge)
            values[m.name] = m.gauge;
    }
    return values;
}

double
delta(const std::map<std::string, double> &before,
      const std::map<std::string, double> &after, const std::string &name)
{
    auto get = [&](const std::map<std::string, double> &m) {
        auto it = m.find(name);
        return it == m.end() ? 0.0 : it->second;
    };
    return get(after) - get(before);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

bool
DigestPins::load(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in)
        return true;
    std::stringstream text;
    text << in.rdbuf();
    JsonValue doc;
    if (!JsonValue::parse(text.str(), &doc, error) || !doc.isObject()) {
        if (error && error->empty())
            *error = "not a JSON object";
        return false;
    }
    for (const auto &[workload, keys] : doc.members()) {
        if (!keys.isObject())
            continue;
        for (const auto &[key, digest] : keys.members())
            if (digest.isString())
                pins_[workload][key] = digest.asString();
    }
    return true;
}

std::string
DigestPins::find(const std::string &workload, const std::string &key) const
{
    auto w = pins_.find(workload);
    if (w == pins_.end())
        return "";
    auto k = w->second.find(key);
    return k == w->second.end() ? "" : k->second;
}

bool
DigestPins::store(const std::string &path, const std::string &workload,
                  const std::map<std::string, std::string> &pins,
                  std::string *error)
{
    pins_[workload] = pins;
    JsonValue doc = JsonValue::object();
    for (const auto &[w, keys] : pins_) {
        JsonValue obj = JsonValue::object();
        for (const auto &[key, digest] : keys)
            obj.set(key, JsonValue(digest));
        doc.set(w, std::move(obj));
    }
    std::ofstream out(path);
    out << doc.dump(2); // ends in a newline
    if (!out) {
        *error = "cannot write " + path;
        return false;
    }
    return true;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    JsonValue m = JsonValue::object();
    for (const Metric &metric : metrics) {
        JsonValue v = JsonValue::object();
        v.set("value", JsonValue(metric.value));
        v.set("unit", JsonValue(metric.unit));
        m.set(metric.name, std::move(v));
    }
    return std::string("{\"correct\":") + (correct ? "true" : "false") +
           ",\"attempted\":" + std::to_string(attempted) +
           ",\"failed\":" + std::to_string(failed) +
           ",\"metrics\":" + m.dump() + "}";
}

} // namespace perfbench
