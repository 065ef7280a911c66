#include "mrf/checkerboard.hh"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "mrf/checkerboard_detail.hh"
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
stripeSamplers(const std::vector<std::unique_ptr<LabelSampler>> &clones)
{
    std::vector<LabelSampler *> out;
    for (const std::unique_ptr<LabelSampler> &c : clones)
        out.push_back(c.get());
    return out;
}

} // namespace

StripeEngine::StripeEngine(
    const SolverConfig &config, const MrfProblem &problem,
    img::LabelMap &labels,
    const std::vector<std::unique_ptr<LabelSampler>> &clones)
    : StripeEngine(config, problem, labels, stripeSamplers(clones),
                   nullptr)
{
}

StripeEngine::StripeEngine(const SolverConfig &config,
                           const MrfProblem &problem,
                           img::LabelMap &labels, LabelSampler &sampler,
                           rng::Xoshiro256 &gen)
    : StripeEngine(config, problem, labels, {&sampler}, &gen)
{
}

StripeEngine::StripeEngine(const SolverConfig &config,
                           const MrfProblem &problem,
                           img::LabelMap &labels,
                           std::vector<LabelSampler *> samplers,
                           rng::Xoshiro256 *serialGen)
    : config_(config), problem_(problem), labels_(labels),
      serialGen_(serialGen)
{
    RETSIM_ASSERT(problem.neighborhood() == Neighborhood::Four,
                  "the two-color chromatic schedule is only valid on "
                  "the 4-neighborhood (8-connectivity needs 4 colors)");
    if (samplers.empty())
        return;
    const int m = problem.numLabels();
    const int width = problem.width();

    obs::Registry &reg = obs::Registry::global();
    execs_.reserve(samplers.size());
    for (LabelSampler *s : samplers)
        execs_.push_back(
            Executor{s, RowArena(width, m), {}, reg.makeShard()});

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
    const int k = static_cast<int>(i);
    const int stripes = static_cast<int>(execs_.size());
    const int height = problem_.height();
    const int y0 = stripeRowStart(k, height, stripes);
    const int y1 = stripeRowStart(k + 1, height, stripes);
    rng::Xoshiro256 stripeGen(
        stripeStreamSeed(config_.seed, sweep, color, k));
    rng::Rng &gen = serialGen_ ? *serialGen_ : stripeGen;
    for (int y = y0; y < y1; ++y) {
        const StripeCounters rc =
            updateRow(problem_, *e.sampler, labels_, y, color,
                      temperature, e.arena, gen);
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
                                      frame.clones);
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
                       trace ? problem.totalEnergy(labels) : 0.0);
        if (detail::shouldCheckpoint(config_, s + 1))
            frame.emitCheckpoint(s + 1);
    }

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
