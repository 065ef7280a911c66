/**
 * @file
 * The chromatic phase engine: the one implementation of the two-color
 * (checkerboard) Gibbs schedule.
 *
 * StripeEngine owns the executor state for a range [k0, k1) of global
 * row stripes — one row arena, trace counter pair, deferred-mark list
 * and metrics shard per stripe, the flip-aware energy-plane cache and
 * sampler key arena, and the thread pool — and runs one color phase
 * over them.  Every chromatic run is this engine:
 *
 *   - CheckerboardGibbsSolver striped: one engine over [0, S);
 *   - CheckerboardGibbsSolver serial (threads == 1, stripes == 0): one
 *     executor over every row that samples through the caller's
 *     sampler on the solver's persistent generator;
 *   - each shard::ShardedCheckerboardSolver rank: one engine over its
 *     TilePartition range, plus the rank's halo exchange.
 *
 * Because striped and sharded runs execute the SAME code for every
 * probabilistic step — the per-(seed, sweep, color, stripe) stream
 * derivation, the stripe-to-row mapping and the batched row update —
 * they stay byte-identical for the same (seed, stripe count), the
 * contract the CI shard-equivalence leg enforces.
 *
 * Nothing in this header is public API; it is included by the solver
 * translation units (and their tests) only.
 */

#ifndef RETSIM_MRF_CHECKERBOARD_DETAIL_HH
#define RETSIM_MRF_CHECKERBOARD_DETAIL_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "img/image.hh"
#include "mrf/energy_cache.hh"
#include "mrf/gibbs.hh"
#include "mrf/problem.hh"
#include "mrf/sampler.hh"
#include "mrf/solver_telemetry.hh"
#include "obs/metrics.hh"
#include "rng/rng.hh"
#include "util/thread_pool.hh"

namespace retsim {
namespace mrf {
namespace detail {

/**
 * Seed of the RNG stream that drives one (sweep, color, stripe)
 * phase.  Chained SplitMix64 mixes keep distinct coordinates
 * decorrelated, and the derivation depends only on the solver seed and
 * the stripe decomposition — never on which thread (or which shard
 * process) runs the stripe, which is exactly the partition-
 * independence property the sharded solver relies on.
 */
inline std::uint64_t
stripeStreamSeed(std::uint64_t seed, int sweep, int color, int stripe)
{
    std::uint64_t s =
        rng::streamSeed(seed, static_cast<std::uint64_t>(sweep));
    s = rng::streamSeed(s, static_cast<std::uint64_t>(color));
    return rng::streamSeed(s, static_cast<std::uint64_t>(stripe));
}

/** First row of stripe @p k in the canonical striped decomposition of
 *  @p height rows into @p stripes contiguous stripes.  Stripe k owns
 *  rows [stripeRowStart(k), stripeRowStart(k + 1)). */
inline int
stripeRowStart(int k, int height, int stripes)
{
    return static_cast<int>(static_cast<std::int64_t>(k) * height /
                            stripes);
}

/** Stripe count of the chromatic decomposition of @p height rows:
 *  config.stripes, or min(height, 16) when unset, clamped so no
 *  stripe is empty. */
inline int
effectiveStripes(const SolverConfig &config, int height)
{
    const int stripes =
        config.stripes > 0 ? config.stripes : std::min(height, 16);
    return std::min(stripes, height);
}

/** Per-stripe trace counters, merged into SolverTrace per sweep. */
struct StripeCounters
{
    std::uint64_t pixelUpdates = 0;
    std::uint64_t labelChanges = 0;
};

/**
 * Caller-owned buffers for one executor's row batches: the energy
 * plane the problem writes and the label vectors the sampler reads
 * and fills.  Sized once for the widest possible color-phase row.
 */
struct RowArena
{
    std::vector<float> energies;
    std::vector<int> current;
    std::vector<int> chosen;

    RowArena(int width, int m)
        : energies(static_cast<std::size_t>((width + 1) / 2) * m),
          current(static_cast<std::size_t>((width + 1) / 2)),
          chosen(static_cast<std::size_t>((width + 1) / 2))
    {
    }
};

/**
 * One executor's view of the flip-aware energy-plane cache: the
 * shared cache plus the sampler key-cache arena and this executor's
 * row-ownership range for the stripe-boundary mark exchange (see
 * energy_cache.hh).  Serial paths own the whole grid and never defer.
 */
struct CacheSlot
{
    EnergyPlaneCache *cache = nullptr;
    std::uint64_t *keys = nullptr; ///< all slabs; null if kcw == 0
    std::size_t kcw = 0;           ///< key words per pixel
    std::size_t keyStride = 0;     ///< key words per slab
    int rowLo = 0;
    int rowHi = 0;
    std::vector<std::uint64_t> *deferred = nullptr;
};

/**
 * Update one color-phase row through the batched sampler path and
 * return the per-row counter deltas.  Same-color pixels share no
 * edges, so gathering the whole row's conditionals before any write
 * is exactly what the scalar pixel loop computed.
 *
 * With a CacheSlot the row's conditionals come from the incremental
 * plane (only dirty pixels recomputed, via the shadow-label fused
 * kernel) and the sampler runs through sampleRowCached with the
 * slab's key arena and the dirty bitset — everything downstream is
 * bit-identical to the uncached path by the sampler contract.
 */
inline StripeCounters
updateRow(const MrfProblem &problem, LabelSampler &sampler,
          img::LabelMap &labels, int y, int color, double temperature,
          RowArena &arena, rng::Rng &gen, CacheSlot *cs)
{
    StripeCounters c;
    const int m = problem.numLabels();
    const int x0 = (y + color) % 2;
    int n;
    const float *eplane;
    if (cs) {
        n = cs->cache->refreshRow(problem, labels, y, color);
        eplane = cs->cache->plane(y, color);
    } else {
        n = problem.conditionalEnergiesRow(labels, y, x0, 2,
                                           arena.energies);
        eplane = arena.energies.data();
    }
    if (n == 0)
        return c;
    for (int i = 0; i < n; ++i)
        arena.current[static_cast<std::size_t>(i)] =
            labels(x0 + 2 * i, y);

    std::span<const int> current(arena.current.data(),
                                 static_cast<std::size_t>(n));
    std::span<int> chosen(arena.chosen.data(),
                          static_cast<std::size_t>(n));
    std::span<const float> energies(eplane,
                                    static_cast<std::size_t>(n) * m);
    if (cs) {
        std::span<std::uint64_t> keys;
        if (cs->keys)
            keys = std::span<std::uint64_t>(
                cs->keys +
                    (static_cast<std::size_t>(y) * 2 + color) *
                        cs->keyStride,
                static_cast<std::size_t>(n) * cs->kcw);
        sampler.sampleRowCached(energies, m, temperature, current,
                                chosen, gen, keys,
                                cs->cache->rowDirty(y, color));
        cs->cache->clearRow(y, color);
    } else {
        sampler.sampleRow(energies, m, temperature, current, chosen,
                          gen);
    }

    for (int i = 0; i < n; ++i) {
        const int x = x0 + 2 * i;
        const int pick = chosen[static_cast<std::size_t>(i)];
        labels(x, y) = pick;
        if (pick != current[static_cast<std::size_t>(i)]) {
            ++c.labelChanges;
            if (cs) {
                cs->cache->setShadow(x, y, pick);
                cs->cache->markFlip(x, y, Neighborhood::Four,
                                    cs->rowLo, cs->rowHi,
                                    cs->deferred);
            }
        }
    }
    c.pixelUpdates = static_cast<std::uint64_t>(n);
    return c;
}

/**
 * Executors for global stripes [k0, k1) of a chromatic decomposition
 * (see the file comment).  Within one color phase all same-color
 * pixels are conditionally independent (their neighbors all have the
 * other color), so the stripes run concurrently from a consistent
 * snapshot — the software analog of the paper's concurrent RSU-G
 * array — and any stripe order yields the same bytes.
 */
class StripeEngine
{
  public:
    /**
     * Stripes [k0, k1) of clones.size(): stripe k samples through
     * clones[k] on its own (seed, sweep, color, k) stream, so the
     * result is a function of (seed, stripe count) only, never of the
     * thread count or of which engine runs the stripe.
     */
    StripeEngine(const SolverConfig &config, const MrfProblem &problem,
                 img::LabelMap &labels,
                 const std::vector<std::unique_ptr<LabelSampler>> &clones,
                 int k0, int k1);

    /** The single-stream schedule: one executor over every row,
     *  sampling through @p sampler on the persistent @p gen. */
    StripeEngine(const SolverConfig &config, const MrfProblem &problem,
                 img::LabelMap &labels, LabelSampler &sampler,
                 rng::Xoshiro256 &gen);
    // Pool workers run stripes through `this`.
    StripeEngine(const StripeEngine &) = delete;
    StripeEngine &operator=(const StripeEngine &) = delete;

    /**
     * One color phase: every stripe, across the pool when there is
     * one, then the stripe-boundary dirty marks that land in the
     * engine's own rows.  Marks into rows outside them are dropped
     * uncounted; the sharded solver re-derives them on the owning rank
     * from its ghost-row diff.
     */
    void runPhase(int sweep, int color, double temperature);

    /** Sum and reset the per-stripe trace counters. */
    StripeCounters takeCounters();

    /** Fold the per-stripe metric shards into the registry. */
    void foldMetrics();

    /** Summed stats of the samplers the executors run. */
    SamplerStats samplerStats() const;

    /** Fold the cache traffic into the registry at run end;
     *  @p perRun = false leaves out the rebuild and shadow-sync counts
     *  (see foldCacheStats). */
    void foldCacheStats(bool perRun = true) const;

    /** The energy-plane cache, or null when it is off or the engine
     *  owns no stripes. */
    EnergyPlaneCache *cache() { return cache_.get(); }
    const EnergyCacheStats *
    cacheStats() const
    {
        return cache_ ? &cache_->stats() : nullptr;
    }

  private:
    /** One stripe's private state; executors never share one. */
    struct Executor
    {
        LabelSampler *sampler;
        RowArena arena;
        StripeCounters counters;
        /** Flips on a stripe-boundary row must dirty the neighbor
         *  pixel in the adjacent stripe, whose bitset words belong to
         *  another executor during the phase; they queue here and
         *  land at the phase join, before anyone reads those rows. */
        std::vector<std::uint64_t> deferred;
        /** Lock-free metrics, folded into the registry at the join. */
        obs::MetricShard metrics;
    };

    StripeEngine(const SolverConfig &config, const MrfProblem &problem,
                 img::LabelMap &labels,
                 std::vector<LabelSampler *> samplers, int stripes,
                 int k0, rng::Xoshiro256 *serialGen);

    void runStripe(std::size_t i, int sweep, int color,
                   double temperature);

    const SolverConfig &config_;
    const MrfProblem &problem_;
    img::LabelMap &labels_;
    /** Fetched before the metric shards are made: a shard covers only
     *  the metrics registered before it. */
    const SolverMetricIds &ids_ = SolverMetricIds::get();
    const int stripes_;
    const int k0_;
    int rowLo_ = 0, rowHi_ = 0;     ///< rows of stripes [k0, k1)
    rng::Xoshiro256 *serialGen_;    ///< null = per-phase streams
    std::vector<Executor> execs_;
    std::unique_ptr<EnergyPlaneCache> cache_;
    std::vector<std::uint64_t> keyArena_;
    std::size_t kcw_ = 0;
    std::size_t keyStride_ = 0;
    std::unique_ptr<util::ThreadPool> pool_;
};

} // namespace detail
} // namespace mrf
} // namespace retsim

#endif // RETSIM_MRF_CHECKERBOARD_DETAIL_HH
