/**
 * @file
 * The chromatic phase engine: the one implementation of the two-color
 * (checkerboard) Gibbs schedule.
 *
 * StripeEngine owns the executor state for the row stripes of one
 * run — one row arena, trace counter pair and metrics shard per
 * stripe, and the thread pool — and runs one color phase over them.
 * Every chromatic run is this engine:
 *
 *   - CheckerboardGibbsSolver striped: one executor per stripe, each on
 *     its own per-(seed, sweep, color, stripe) stream, so the result
 *     is a function of (seed, stripe count) only, never of the thread
 *     count;
 *   - CheckerboardGibbsSolver serial (threads == 1, stripes == 0): one
 *     executor over every row that samples through the caller's
 *     sampler on the solver's persistent generator.
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
 * the stripe decomposition — never on which thread runs the stripe.
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
 * Update one color-phase row through the batched sampler path and
 * return the per-row counter deltas.  Same-color pixels share no
 * edges, so gathering the whole row's conditionals before any write
 * is exactly what the scalar pixel loop computed.
 */
inline StripeCounters
updateRow(const MrfProblem &problem, LabelSampler &sampler,
          img::LabelMap &labels, int y, int color, double temperature,
          RowArena &arena, rng::Rng &gen)
{
    StripeCounters c;
    const int m = problem.numLabels();
    const int x0 = (y + color) % 2;
    const int n = problem.conditionalEnergiesRow(labels, y, x0, 2,
                                                 arena.energies);
    if (n == 0)
        return c;
    for (int i = 0; i < n; ++i)
        arena.current[static_cast<std::size_t>(i)] =
            labels(x0 + 2 * i, y);

    std::span<const int> current(arena.current.data(),
                                 static_cast<std::size_t>(n));
    std::span<int> chosen(arena.chosen.data(),
                          static_cast<std::size_t>(n));
    std::span<const float> energies(arena.energies.data(),
                                    static_cast<std::size_t>(n) * m);
    sampler.sampleRow(energies, m, temperature, current, chosen, gen);

    for (int i = 0; i < n; ++i) {
        const int pick = chosen[static_cast<std::size_t>(i)];
        labels(x0 + 2 * i, y) = pick;
        if (pick != current[static_cast<std::size_t>(i)])
            ++c.labelChanges;
    }
    c.pixelUpdates = static_cast<std::uint64_t>(n);
    return c;
}

/**
 * Executors for the stripes of a chromatic decomposition (see the file
 * comment).  Within one color phase all same-color pixels are
 * conditionally independent (their neighbors all have the other
 * color), so the stripes run concurrently from a consistent
 * snapshot — the software analog of the paper's concurrent RSU-G
 * array — and any stripe order yields the same bytes.
 */
class StripeEngine
{
  public:
    /**
     * One stripe per clone: stripe k samples through clones[k] on its
     * own (seed, sweep, color, k) stream.
     */
    StripeEngine(const SolverConfig &config, const MrfProblem &problem,
                 img::LabelMap &labels,
                 const std::vector<std::unique_ptr<LabelSampler>> &clones);

    /** The single-stream schedule: one executor over every row,
     *  sampling through @p sampler on the persistent @p gen. */
    StripeEngine(const SolverConfig &config, const MrfProblem &problem,
                 img::LabelMap &labels, LabelSampler &sampler,
                 rng::Xoshiro256 &gen);
    // Pool workers run stripes through `this`.
    StripeEngine(const StripeEngine &) = delete;
    StripeEngine &operator=(const StripeEngine &) = delete;

    /** One color phase: every stripe, across the pool when there is
     *  one. */
    void runPhase(int sweep, int color, double temperature);

    /** Sum and reset the per-stripe trace counters. */
    StripeCounters takeCounters();

    /** Fold the per-stripe metric shards into the registry. */
    void foldMetrics();

  private:
    /** One stripe's private state; executors never share one. */
    struct Executor
    {
        LabelSampler *sampler;
        RowArena arena;
        StripeCounters counters;
        /** Lock-free metrics, folded into the registry at the join. */
        obs::MetricShard metrics;
    };

    StripeEngine(const SolverConfig &config, const MrfProblem &problem,
                 img::LabelMap &labels,
                 std::vector<LabelSampler *> samplers,
                 rng::Xoshiro256 *serialGen);

    void runStripe(std::size_t i, int sweep, int color,
                   double temperature);

    const SolverConfig &config_;
    const MrfProblem &problem_;
    img::LabelMap &labels_;
    /** Fetched before the metric shards are made: a shard covers only
     *  the metrics registered before it. */
    const SolverMetricIds &ids_ = SolverMetricIds::get();
    rng::Xoshiro256 *serialGen_; ///< null = per-phase streams
    std::vector<Executor> execs_;
    std::unique_ptr<util::ThreadPool> pool_;
};

} // namespace detail
} // namespace mrf
} // namespace retsim

#endif // RETSIM_MRF_CHECKERBOARD_DETAIL_HH
