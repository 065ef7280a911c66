/**
 * @file
 * Process-wide metrics registry: named counters, gauges and
 * fixed-bucket histograms.
 *
 * The registry is the always-on half of the observability layer (the
 * run-telemetry recorder in obs/telemetry.hh is the opt-in half).
 * Long-lived subsystems — the LambdaLut cache, the RSU pipeline, the
 * thread pool, the Gibbs solvers — register metrics by name once and
 * update them as they run, so any entry point (tests, benches, the
 * quality gate) can dump a consistent snapshot without wiring every
 * component to every sink.
 *
 * Concurrency contract: direct add()/set()/observe() calls lock the
 * registry mutex and are meant for cold paths (a temperature change, a
 * pipeline run boundary).  Hot loops record into a MetricShard — a
 * private, lock-free accumulator a worker owns for the duration of a
 * stripe — and fold() it back at the join barrier.  Counter and
 * histogram merges are plain sums, so folding is associative and
 * commutative: any shard/fold decomposition yields exactly the totals
 * of a serial run (asserted by obs_test.cc).  Gauges are last-write
 * values with no meaningful merge, so shards do not carry them.
 */

#ifndef RETSIM_OBS_METRICS_HH
#define RETSIM_OBS_METRICS_HH

#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

namespace retsim {
namespace obs {

enum class MetricKind { Counter, Gauge, Histogram };

/** Opaque handle to a registered metric; cheap to copy and store. */
struct MetricId
{
    std::uint32_t index = std::numeric_limits<std::uint32_t>::max();

    bool valid() const
    {
        return index != std::numeric_limits<std::uint32_t>::max();
    }
};

/**
 * Fixed-bucket histogram state: counts[i] holds observations with
 * value <= bounds[i]; the final slot is the overflow bucket.
 */
struct HistogramData
{
    std::vector<double> bounds;        ///< ascending upper bounds
    std::vector<std::uint64_t> counts; ///< size bounds.size() + 1
    double sum = 0.0;
    std::uint64_t count = 0;

    explicit HistogramData(std::vector<double> upper_bounds = {});

    void observe(double value);
    /** Sum another histogram with identical bounds into this one. */
    void merge(const HistogramData &other);
    void clear();
};

/** Point-in-time copy of one metric, for reporting sinks. */
struct MetricSnapshot
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::uint64_t counter = 0; ///< Counter kinds
    double gauge = 0.0;        ///< Gauge kinds
    HistogramData histogram;   ///< Histogram kinds
};

class Registry;

/**
 * Lock-free accumulator for one worker (stripe) thread.  Created from
 * a Registry, sized to the metrics registered at creation time;
 * recording is a plain array add with no synchronization.  Fold the
 * shard back into the registry at a join barrier, or merge shards
 * pairwise first — both orders produce identical totals.
 */
class MetricShard
{
  public:
    MetricShard() = default;

    void add(MetricId id, std::uint64_t delta = 1);
    void observe(MetricId id, double value);

    /** Current local counter value (reporting before a fold). */
    std::uint64_t counterValue(MetricId id) const;

    /** Sum @p other into this shard (same registry generation). */
    void merge(const MetricShard &other);

    /** Zero every local value, keeping the metric layout. */
    void clear();

    bool empty() const { return counters_.empty(); }

  private:
    friend class Registry;

    std::vector<std::uint64_t> counters_; ///< by metric index
    std::vector<HistogramData> histograms_;
    std::vector<std::uint32_t> histogramIndex_; ///< metric -> slot
};

class Registry
{
  public:
    /** The process-wide instance the subsystems register with. */
    static Registry &global();

    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /**
     * Register-or-look-up a metric.  Re-registering an existing name
     * with the same kind returns the original handle; a kind mismatch
     * is an internal error.
     */
    MetricId counter(const std::string &name);
    MetricId gauge(const std::string &name);
    MetricId histogram(const std::string &name,
                       std::vector<double> upper_bounds);

    // Cold-path direct updates (mutex-protected).
    void add(MetricId id, std::uint64_t delta = 1);
    void set(MetricId id, double value);
    void observe(MetricId id, double value);

    std::uint64_t counterValue(MetricId id) const;
    double gaugeValue(MetricId id) const;
    HistogramData histogramValue(MetricId id) const;

    /** Shard covering every metric registered so far. */
    MetricShard makeShard() const;

    /** Add a shard's contents to the registry and clear the shard. */
    void fold(MetricShard &shard);

    std::vector<MetricSnapshot> snapshot() const;

    /** Registry snapshot as a JSON object string. */
    std::string toJson() const;

    /** Zero every value; registrations (names, bounds) survive. */
    void reset();

    std::size_t size() const;

  private:
    struct Metric
    {
        std::string name;
        MetricKind kind;
        std::uint64_t counter = 0;
        double gauge = 0.0;
        HistogramData histogram;
    };

    MetricId registerMetric(const std::string &name, MetricKind kind,
                            std::vector<double> bounds);

    mutable std::mutex mutex_;
    std::vector<Metric> metrics_;
};

} // namespace obs
} // namespace retsim

#endif // RETSIM_OBS_METRICS_HH
