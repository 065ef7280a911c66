/**
 * @file
 * Measurement helpers of the benchmark program: process counters,
 * registry deltas, percentiles, pinned digests and the result line.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** The getrusage fields the benchmark reads. */
struct ProcessCounters
{
    double cpuSeconds = 0.0; ///< user + system
    double minorFaults = 0.0;
    double voluntarySwitches = 0.0;

    static ProcessCounters now();
};

/** Peak resident set of this process in MiB. */
double peakRssMb();

/** Every obs::Registry counter and gauge of the global registry. */
std::map<std::string, double> registryValues();

/** after[name] - before[name] (missing = 0). */
double delta(const std::map<std::string, double> &before,
             const std::map<std::string, double> &after,
             const std::string &name);

/** Linear-interpolated quantile @p q in [0, 1] of @p values. */
double quantile(std::vector<double> values, double q);

/** Digests pinned per workload and solve key at the default seed. */
class DigestPins
{
  public:
    /** Reads @p path; a missing file pins nothing.  False on a file
     *  that exists but does not parse. */
    bool load(const std::string &path, std::string *error);

    /** The pinned digest of (workload, key), or "" when unpinned. */
    std::string find(const std::string &workload,
                     const std::string &key) const;

    /** Replaces the pins of @p workload and writes the file. */
    bool store(const std::string &path, const std::string &workload,
               const std::map<std::string, std::string> &pins,
               std::string *error);

  private:
    std::map<std::string, std::map<std::string, std::string>> pins_;
};

std::string hex64(std::uint64_t v);

/** One named metric of the result line. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * The result line: exactly correct, attempted, failed and metrics.
 * The two counts are printed as integers by hand: util::JsonValue
 * writes a round number such as 100 as 1e+02, which JSON readers
 * take for a float.
 */
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
