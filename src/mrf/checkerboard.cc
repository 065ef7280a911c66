#include "mrf/checkerboard.hh"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "mrf/checkerboard_detail.hh"
#include "mrf/energy_cache.hh"
#include "mrf/run_frame.hh"
#include "mrf/solver_telemetry.hh"
#include "obs/metrics.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace retsim {
namespace mrf {

namespace detail {

namespace {

std::vector<LabelSampler *>
stripeSamplers(const std::vector<std::unique_ptr<LabelSampler>> &clones,
               int k0, int k1)
{
    std::vector<LabelSampler *> out;
    for (int k = k0; k < k1; ++k)
        out.push_back(clones[static_cast<std::size_t>(k)].get());
    return out;
}

} // namespace

StripeEngine::StripeEngine(
    const SolverConfig &config, const MrfProblem &problem,
    img::LabelMap &labels,
    const std::vector<std::unique_ptr<LabelSampler>> &clones, int k0,
    int k1)
    : StripeEngine(config, problem, labels,
                   stripeSamplers(clones, k0, k1),
                   static_cast<int>(clones.size()), k0, nullptr)
{
}

StripeEngine::StripeEngine(const SolverConfig &config,
                           const MrfProblem &problem,
                           img::LabelMap &labels, LabelSampler &sampler,
                           rng::Xoshiro256 &gen)
    : StripeEngine(config, problem, labels, {&sampler}, 1, 0, &gen)
{
}

StripeEngine::StripeEngine(const SolverConfig &config,
                           const MrfProblem &problem,
                           img::LabelMap &labels,
                           std::vector<LabelSampler *> samplers,
                           int stripes, int k0,
                           rng::Xoshiro256 *serialGen)
    : config_(config), problem_(problem), labels_(labels),
      stripes_(stripes), k0_(k0), serialGen_(serialGen)
{
    RETSIM_ASSERT(problem.neighborhood() == Neighborhood::Four,
                  "the two-color chromatic schedule is only valid on "
                  "the 4-neighborhood (8-connectivity needs 4 colors)");
    if (samplers.empty())
        return;
    const int m = problem.numLabels();
    const int width = problem.width();
    const int height = problem.height();
    const int k1 = k0 + static_cast<int>(samplers.size());
    rowLo_ = stripeRowStart(k0, height, stripes);
    rowHi_ = stripeRowStart(k1, height, stripes);

    // Flip-aware energy-plane cache (see energy_cache.hh).  Per-run
    // state: fresh all-dirty planes plus a shadow-label sync at entry,
    // so resume replay stays byte-identical to the uninterrupted run.
    // The sampler key arena rides alongside, one slab per (row,
    // color), zero-filled (all invalid); slab ownership is fixed
    // across sweeps so per-slab bind-generation stamps stay coherent.
    // The cache spans the full grid, but only the engine's own rows
    // are ever refreshed.
    if (usesEnergyCache(config, m)) {
        cache_ = std::make_unique<EnergyPlaneCache>(width, height, m,
                                                    /*phases=*/2);
        cache_->syncShadow(labels);
        kcw_ = samplers.front()->rowCacheWords(m);
        if (kcw_ > 0)
            keyArena_.assign(static_cast<std::size_t>(height) * 2 *
                                 static_cast<std::size_t>(
                                     (width + 1) / 2) *
                                 kcw_,
                             0);
        keyStride_ = static_cast<std::size_t>((width + 1) / 2) * kcw_;
    }

    obs::Registry &reg = obs::Registry::global();
    execs_.reserve(samplers.size());
    for (LabelSampler *s : samplers)
        execs_.push_back(
            Executor{s, RowArena(width, m), {}, {}, reg.makeShard()});

    // parallelFor's caller participates, so a pool of threads-1
    // workers yields exactly `threads` concurrent executors.
    int threads = config.threads == 0
                      ? static_cast<int>(
                            util::ThreadPool::global().numThreads())
                      : config.threads;
    threads = std::min(threads, static_cast<int>(execs_.size()));
    if (threads > 1)
        pool_ = std::make_unique<util::ThreadPool>(
            static_cast<std::size_t>(threads - 1));
}

void
StripeEngine::runStripe(std::size_t i, int sweep, int color,
                        double temperature)
{
    Executor &e = execs_[i];
    const int k = k0_ + static_cast<int>(i);
    const int height = problem_.height();
    const int y0 = stripeRowStart(k, height, stripes_);
    const int y1 = stripeRowStart(k + 1, height, stripes_);
    rng::Xoshiro256 stripeGen(
        stripeStreamSeed(config_.seed, sweep, color, k));
    rng::Rng &gen = serialGen_ ? *serialGen_ : stripeGen;
    CacheSlot slot;
    CacheSlot *cs = nullptr;
    if (cache_) {
        slot = CacheSlot{cache_.get(),
                         keyArena_.empty() ? nullptr : keyArena_.data(),
                         kcw_,
                         keyStride_,
                         y0,
                         y1,
                         &e.deferred};
        cs = &slot;
    }
    for (int y = y0; y < y1; ++y) {
        const StripeCounters rc =
            updateRow(problem_, *e.sampler, labels_, y, color,
                      temperature, e.arena, gen, cs);
        e.counters.pixelUpdates += rc.pixelUpdates;
        e.counters.labelChanges += rc.labelChanges;
        e.metrics.add(ids_.pixelUpdates, rc.pixelUpdates);
        e.metrics.add(ids_.labelChanges, rc.labelChanges);
    }
}

void
StripeEngine::runPhase(int sweep, int color, double temperature)
{
    if (pool_)
        pool_->parallelFor(execs_.size(), [&](std::size_t i) {
            runStripe(i, sweep, color, temperature);
        });
    else
        for (std::size_t i = 0; i < execs_.size(); ++i)
            runStripe(i, sweep, color, temperature);
    if (!cache_)
        return;
    for (Executor &e : execs_) {
        std::size_t keep = 0;
        for (std::uint64_t p : e.deferred) {
            const int y = static_cast<int>(p & 0xffffffffu);
            if (y >= rowLo_ && y < rowHi_)
                e.deferred[keep++] = p;
        }
        e.deferred.resize(keep);
        cache_->applyDeferred(e.deferred);
    }
}

StripeCounters
StripeEngine::takeCounters()
{
    StripeCounters total;
    for (Executor &e : execs_) {
        total.pixelUpdates += e.counters.pixelUpdates;
        total.labelChanges += e.counters.labelChanges;
        e.counters = StripeCounters{};
    }
    return total;
}

void
StripeEngine::foldMetrics()
{
    // Shard merges are plain sums, so the totals equal a serial run's
    // regardless of stripe count or scheduling.
    obs::Registry &reg = obs::Registry::global();
    for (Executor &e : execs_)
        reg.fold(e.metrics);
}

SamplerStats
StripeEngine::samplerStats() const
{
    SamplerStats s;
    for (const Executor &e : execs_)
        s += e.sampler->stats();
    return s;
}

void
StripeEngine::foldCacheStats(bool perRun) const
{
    if (cache_)
        detail::foldCacheStats(cache_->stats(), perRun);
}

} // namespace detail

int
CheckerboardGibbsSolver::effectiveStripes(int height) const
{
    return detail::effectiveStripes(config_, height);
}

img::LabelMap
CheckerboardGibbsSolver::run(const MrfProblem &problem,
                             LabelSampler &sampler,
                             img::LabelMap &labels,
                             SolverTrace *caller_trace) const
{
    // threads == 1 && stripes == 0 keeps the historical single-stream
    // schedule: one executor, one RNG stream for every pixel, no
    // stripe clones (stripes == 0 in its snapshots).
    const bool serial = config_.threads == 1 && config_.stripes == 0;
    detail::RunFrame frame(
        "checkerboard", config_, problem, sampler, labels, caller_trace,
        serial ? 0 : effectiveStripes(problem.height()));
    detail::StripeEngine engine =
        serial ? detail::StripeEngine(config_, problem, labels, sampler,
                                      frame.gen)
               : detail::StripeEngine(config_, problem, labels,
                                      frame.clones, 0,
                                      static_cast<int>(
                                          frame.clones.size()));
    SolverTrace *trace = frame.trace;

    for (int s = frame.startSweep; s < config_.annealing.sweeps; ++s) {
        const double temperature = config_.annealing.temperature(s);
        for (int color = 0; color < 2; ++color)
            engine.runPhase(s, color, temperature);
        engine.foldMetrics();
        const detail::StripeCounters c = engine.takeCounters();
        if (trace) {
            trace->pixelUpdates += c.pixelUpdates;
            trace->labelChanges += c.labelChanges;
        }
        frame.endSweep(s, temperature,
                       trace ? problem.totalEnergy(labels) : 0.0,
                       frame.samplerStats(), engine.cacheStats());
        if (detail::shouldCheckpoint(config_, s + 1))
            frame.emitCheckpoint(s + 1, frame.cloneStates());
    }

    engine.foldCacheStats();
    frame.finish();
    return labels;
}

img::LabelMap
CheckerboardGibbsSolver::run(const MrfProblem &problem,
                             LabelSampler &sampler,
                             SolverTrace *trace) const
{
    img::LabelMap labels(problem.width(), problem.height(), 0);
    return run(problem, sampler, labels, trace);
}

} // namespace mrf
} // namespace retsim
