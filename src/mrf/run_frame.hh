/**
 * @file
 * The run frame every Gibbs solver shares.
 *
 * GibbsSolver, CheckerboardGibbsSolver and rank 0 of
 * shard::ShardedCheckerboardSolver differ only in how a sweep visits
 * the pixels.  Everything around the sweep loop is the same code and
 * lives here: the preamble checks, trace selection, the telemetry
 * baseline, label initialization or resume restore (labels, solver
 * generator, caller sampler, trace, start sweep, per-stripe clones),
 * the per-sweep trace/telemetry/observer tail, snapshot capture, and
 * the end-of-run counter adds.  Keeping one copy is what keeps a
 * snapshot from any of the three solvers resumable by the others
 * where their schedules agree.
 *
 * Nothing in this header is public API.
 */

#ifndef RETSIM_MRF_RUN_FRAME_HH
#define RETSIM_MRF_RUN_FRAME_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "img/image.hh"
#include "mrf/checkpoint.hh"
#include "mrf/gibbs.hh"
#include "mrf/problem.hh"
#include "mrf/sampler.hh"
#include "mrf/solver_telemetry.hh"
#include "rng/rng.hh"

namespace retsim {
namespace mrf {
namespace detail {

/** The flip-aware energy-plane cache runs when enabled and the labels
 *  fit its 8-bit shadow plane; otherwise solvers fall back to the
 *  uncached producers. */
inline bool
usesEnergyCache(const SolverConfig &config, int numLabels)
{
    return config.energyCache && numLabels <= 256;
}

class RunFrame
{
  public:
    /**
     * Check the run, pick the trace, then restore @p labels, the
     * solver generator, @p sampler and the trace from config.resume —
     * or initialize the labels — and create one clone of @p sampler
     * per stripe (none when @p stripes == 0), restoring their states
     * on resume.  @p kind names the solver in snapshots and telemetry.
     */
    RunFrame(const char *kind, const SolverConfig &config,
             const MrfProblem &problem, LabelSampler &sampler,
             img::LabelMap &labels, SolverTrace *callerTrace,
             int stripes);
    // trace may point at localTrace_.
    RunFrame(const RunFrame &) = delete;
    RunFrame &operator=(const RunFrame &) = delete;

    /** Caller sampler plus every stripe clone: the run-cumulative
     *  stats a telemetry record differences. */
    SamplerStats samplerStats() const;

    /**
     * Sweep tail: append @p energy and @p temperature to the trace
     * (when there is one; @p energy is ignored otherwise), emit the
     * telemetry record and call the sweep observer.
     */
    void endSweep(int sweep, double temperature, double energy,
                  const SamplerStats &cum,
                  const EnergyCacheStats *cache);

    /** Every stripe clone's saveState(), in stripe order. */
    std::vector<std::vector<std::uint64_t>> cloneStates() const;

    /** Capture the run after @p done sweeps, with @p stripeStates as
     *  the per-stripe clone states, and hand it to the sink. */
    void emitCheckpoint(
        int done,
        const std::vector<std::vector<std::uint64_t>> &stripeStates =
            {}) const;

    /** End-of-run counter adds, then fold every clone's stats into
     *  the caller sampler in stripe order. */
    void finish();

    rng::Xoshiro256 gen; ///< the solver's persistent stream
    SweepTelemetry telemetry;
    SolverTrace *trace = nullptr; ///< caller's, run-local, or none
    int startSweep = 0;
    /** Random-scan permutation (GibbsSolver only). */
    std::vector<std::uint32_t> scanOrder;
    /** One sampler clone per stripe, index = global stripe. */
    std::vector<std::unique_ptr<LabelSampler>> clones;

  private:
    const char *kind_;
    const SolverConfig &config_;
    const MrfProblem &problem_;
    LabelSampler &sampler_;
    img::LabelMap &labels_;
    int stripes_;
    SolverTrace localTrace_;
};

} // namespace detail
} // namespace mrf
} // namespace retsim

#endif // RETSIM_MRF_RUN_FRAME_HH
