#include "mrf/gibbs.hh"

#include <algorithm>
#include <cmath>

#include "mrf/run_frame.hh"
#include "mrf/solver_telemetry.hh"
#include "obs/metrics.hh"
#include "util/logging.hh"

namespace retsim {
namespace mrf {

double
AnnealingSchedule::temperature(int s) const
{
    RETSIM_ASSERT(t0 > 0.0 && tEnd > 0.0 && tEnd <= t0,
                  "invalid annealing endpoints");
    RETSIM_ASSERT(sweeps >= 1, "need at least one sweep");
    if (sweeps == 1)
        return t0;
    double ratio = std::pow(tEnd / t0,
                            1.0 / static_cast<double>(sweeps - 1));
    return std::max(t0 * std::pow(ratio, static_cast<double>(s)), tEnd);
}

img::LabelMap
GibbsSolver::run(const MrfProblem &problem, LabelSampler &sampler,
                 img::LabelMap &labels, SolverTrace *caller_trace) const
{
    detail::RunFrame frame("gibbs", config_, problem, sampler, labels,
                           caller_trace, /*stripes=*/0);
    SolverTrace *trace = frame.trace;
    rng::Xoshiro256 &gen = frame.gen;
    const int m = problem.numLabels();

    std::vector<float> energies(m);
    const std::size_t pixels =
        static_cast<std::size_t>(problem.width()) * problem.height();
    // Filled lazily on the first random-scan sweep, then reshuffled in
    // place; pixel ids must narrow to 32 bits without loss.
    std::vector<std::uint32_t> &order = frame.scanOrder;
    if (config_.randomScan) {
        RETSIM_ASSERT(pixels <= UINT32_MAX,
                      "random-scan order buffer limited to 2^32 pixels");
    }

    const std::uint64_t start_updates = trace ? trace->pixelUpdates : 0;
    const std::uint64_t start_changes = trace ? trace->labelChanges : 0;

    auto update_pixel = [&](int x, int y, double temperature) {
        problem.conditionalEnergies(labels, x, y, energies);
        int current = labels(x, y);
        int chosen = sampler.sample(energies, temperature, current, gen);
        RETSIM_ASSERT(chosen >= 0 && chosen < m,
                      "sampler returned invalid label ", chosen);
        labels(x, y) = chosen;
        if (trace) {
            ++trace->pixelUpdates;
            if (chosen != current)
                ++trace->labelChanges;
        }
    };

    for (int s = frame.startSweep; s < config_.annealing.sweeps; ++s) {
        double temperature = config_.annealing.temperature(s);
        if (config_.randomScan) {
            if (order.empty()) {
                order.resize(pixels);
                for (std::size_t i = 0; i < pixels; ++i)
                    order[i] = static_cast<std::uint32_t>(i);
            }
            // Fisher-Yates with the solver's own generator keeps the
            // whole run deterministic per seed.
            for (std::size_t i = pixels; i > 1; --i) {
                std::size_t j = gen.nextBounded(i);
                std::swap(order[i - 1], order[j]);
            }
            for (std::uint32_t p : order)
                update_pixel(static_cast<int>(p % problem.width()),
                             static_cast<int>(p / problem.width()),
                             temperature);
        } else {
            for (int y = 0; y < problem.height(); ++y)
                for (int x = 0; x < problem.width(); ++x)
                    update_pixel(x, y, temperature);
        }
        frame.endSweep(s, temperature,
                       trace ? problem.totalEnergy(labels) : 0.0);
        if (detail::shouldCheckpoint(config_, s + 1))
            frame.emitCheckpoint(s + 1);
    }

    frame.finish();
    if (trace) {
        const auto &ids = detail::SolverMetricIds::get();
        obs::Registry &reg = obs::Registry::global();
        reg.add(ids.pixelUpdates, trace->pixelUpdates - start_updates);
        reg.add(ids.labelChanges, trace->labelChanges - start_changes);
    }
    return labels;
}

img::LabelMap
GibbsSolver::run(const MrfProblem &problem, LabelSampler &sampler,
                 SolverTrace *trace) const
{
    img::LabelMap labels(problem.width(), problem.height(), 0);
    return run(problem, sampler, labels, trace);
}

img::LabelMap
runSolver(const SolverConfig &config, const MrfProblem &problem,
          LabelSampler &sampler, img::LabelMap &labels,
          SolverTrace *trace)
{
    return GibbsSolver(config).run(problem, sampler, labels, trace);
}

img::LabelMap
runSolver(const SolverConfig &config, const MrfProblem &problem,
          LabelSampler &sampler, SolverTrace *trace)
{
    img::LabelMap labels(problem.width(), problem.height(), 0);
    return runSolver(config, problem, sampler, labels, trace);
}

} // namespace mrf
} // namespace retsim
