/**
 * @file
 * Internal per-sweep telemetry glue shared by the Gibbs solvers.
 *
 * Both GibbsSolver and CheckerboardGibbsSolver emit one telemetry
 * record per sweep: energy, temperature, acceptance / tie / no-sample
 * rates (differenced from the sampler's cumulative SamplerStats) and
 * the LambdaLut cache traffic observed during the sweep (differenced
 * from the process-wide registry counters the cache maintains — the
 * mrf layer never includes core headers, the coupling is by metric
 * name only).  All of it is gated on obs::activeRecorder(): with no
 * recorder installed the helper is a null pointer check per sweep.
 */

#ifndef RETSIM_MRF_SOLVER_TELEMETRY_HH
#define RETSIM_MRF_SOLVER_TELEMETRY_HH

#include <cstdint>
#include <string>

#include "mrf/energy_cache.hh"
#include "mrf/problem.hh"
#include "mrf/sampler.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"

namespace retsim {
namespace mrf {
namespace detail {

/** Registry handles the solvers update; registered once. */
struct SolverMetricIds
{
    obs::MetricId runs;
    obs::MetricId sweeps;
    obs::MetricId pixelUpdates;
    obs::MetricId labelChanges;
    obs::MetricId lutHits;   ///< maintained by core::LambdaLutCache
    obs::MetricId lutMisses; ///< maintained by core::LambdaLutCache
    obs::MetricId cacheHits;          ///< energy planes served clean
    obs::MetricId cacheRecomputed;    ///< energy planes recomputed
    obs::MetricId cacheInvalidations; ///< dirty marks written
    obs::MetricId cacheRebuilds;      ///< all-dirty plane resets
    obs::MetricId cacheShadowSyncs;   ///< full shadow-plane syncs

    static const SolverMetricIds &get()
    {
        static const SolverMetricIds ids = [] {
            obs::Registry &r = obs::Registry::global();
            return SolverMetricIds{
                r.counter("mrf.solver.runs"),
                r.counter("mrf.solver.sweeps"),
                r.counter("mrf.solver.pixel_updates"),
                r.counter("mrf.solver.label_changes"),
                r.counter("core.lambda_lut.hits"),
                r.counter("core.lambda_lut.misses"),
                r.counter("mrf.energy_cache.clean_hits"),
                r.counter("mrf.energy_cache.recomputed"),
                r.counter("mrf.energy_cache.invalidations"),
                r.counter("mrf.energy_cache.rebuilds"),
                r.counter("mrf.energy_cache.shadow_syncs"),
            };
        }();
        return ids;
    }
};

/**
 * Fold a finished run's energy-cache traffic into the registry.  With
 * @p perRun = false only the traffic counters (hits, recomputed,
 * invalidations) are folded: a sharded run keeps one cache per rank,
 * and only one rank may report the single rebuild and shadow sync a
 * one-cache run records, while the traffic partitions exactly across
 * ranks.
 */
inline void
foldCacheStats(const EnergyCacheStats &s, bool perRun = true)
{
    const SolverMetricIds &ids = SolverMetricIds::get();
    obs::Registry &reg = obs::Registry::global();
    reg.add(ids.cacheHits, s.cleanHits);
    reg.add(ids.cacheRecomputed, s.recomputed);
    reg.add(ids.cacheInvalidations, s.invalidations);
    if (!perRun)
        return;
    reg.add(ids.cacheRebuilds, s.rebuilds);
    reg.add(ids.cacheShadowSyncs, s.shadowSyncs);
}

/**
 * One instance per solver run; snapshots the cumulative counters at
 * construction and differences them at every recordSweep() call.
 */
class SweepTelemetry
{
  public:
    SweepTelemetry(const MrfProblem &problem,
                   const LabelSampler &sampler, const char *solver_kind)
        : rec_(obs::activeRecorder())
    {
        if (!rec_)
            return;
        const SolverMetricIds &ids = SolverMetricIds::get();
        obs::Registry &reg = obs::Registry::global();
        lastStats_ = sampler.stats();
        lastLutHits_ = reg.counterValue(ids.lutHits);
        lastLutMisses_ = reg.counterValue(ids.lutMisses);
        stream_ = std::string("sweep.") + problem.name() + '.' +
                  solver_kind;
    }

    /**
     * Baseline for the trace counters when the caller hands in a
     * trace that already holds totals from earlier runs.
     */
    void setTraceBaseline(std::uint64_t updates, std::uint64_t changes)
    {
        lastUpdates_ = updates;
        lastChanges_ = changes;
    }

    /** A recorder is installed; per-sweep bookkeeping is worth it. */
    bool active() const { return rec_ != nullptr; }

    /**
     * Emit the record for one completed sweep.  @p cum_updates /
     * @p cum_changes are the run-cumulative trace counters; @p cum is
     * the sampler's cumulative stats snapshot (already folded across
     * stripe clones by the caller where applicable).
     */
    void recordSweep(int sweep, double temperature, double energy,
                     std::uint64_t cum_updates,
                     std::uint64_t cum_changes,
                     const SamplerStats &cum,
                     const EnergyCacheStats *cache = nullptr)
    {
        if (!rec_)
            return;
        const SolverMetricIds &ids = SolverMetricIds::get();
        obs::Registry &reg = obs::Registry::global();
        SamplerStats d = cum - lastStats_;
        lastStats_ = cum;
        std::uint64_t updates = cum_updates - lastUpdates_;
        std::uint64_t changes = cum_changes - lastChanges_;
        lastUpdates_ = cum_updates;
        lastChanges_ = cum_changes;
        std::uint64_t lut_hits = reg.counterValue(ids.lutHits);
        std::uint64_t lut_misses = reg.counterValue(ids.lutMisses);
        std::uint64_t d_hits = lut_hits - lastLutHits_;
        std::uint64_t d_misses = lut_misses - lastLutMisses_;
        lastLutHits_ = lut_hits;
        lastLutMisses_ = lut_misses;

        double den = updates > 0 ? static_cast<double>(updates) : 1.0;
        double sden =
            d.samples > 0 ? static_cast<double>(d.samples) : 1.0;
        std::vector<obs::Field> fields{
            {"sweep", static_cast<double>(sweep)},
            {"temperature", temperature},
            {"energy", energy},
            {"pixel_updates", static_cast<double>(updates)},
            {"label_changes", static_cast<double>(changes)},
            {"accept_rate", static_cast<double>(changes) / den},
            {"no_sample_rate", static_cast<double>(d.noSample) / sden},
            {"tie_rate", static_cast<double>(d.ties) / sden},
            {"lut_hits", static_cast<double>(d_hits)},
            {"lut_misses", static_cast<double>(d_misses)}};
        if (cache) {
            // Per-sweep cache traffic, differenced like the sampler
            // counters; hit rate over the planes served this sweep.
            std::uint64_t ch = cache->cleanHits - lastCacheHits_;
            std::uint64_t cr = cache->recomputed - lastCacheRecomputed_;
            std::uint64_t ci =
                cache->invalidations - lastCacheInvalidations_;
            lastCacheHits_ = cache->cleanHits;
            lastCacheRecomputed_ = cache->recomputed;
            lastCacheInvalidations_ = cache->invalidations;
            double served = static_cast<double>(ch + cr);
            fields.push_back(
                {"energy_cache_hits", static_cast<double>(ch)});
            fields.push_back(
                {"energy_cache_recomputed", static_cast<double>(cr)});
            fields.push_back({"energy_cache_invalidations",
                              static_cast<double>(ci)});
            fields.push_back(
                {"energy_cache_hit_rate",
                 served > 0.0 ? static_cast<double>(ch) / served
                              : 0.0});
        }
        rec_->record(stream_, fields);
    }

  private:
    obs::TelemetryRecorder *rec_ = nullptr;
    std::string stream_;
    SamplerStats lastStats_;
    std::uint64_t lastUpdates_ = 0;
    std::uint64_t lastChanges_ = 0;
    std::uint64_t lastLutHits_ = 0;
    std::uint64_t lastLutMisses_ = 0;
    std::uint64_t lastCacheHits_ = 0;
    std::uint64_t lastCacheRecomputed_ = 0;
    std::uint64_t lastCacheInvalidations_ = 0;
};

} // namespace detail
} // namespace mrf
} // namespace retsim

#endif // RETSIM_MRF_SOLVER_TELEMETRY_HH
