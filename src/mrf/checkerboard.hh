/**
 * @file
 * Checkerboard (red-black) Gibbs solver.
 *
 * The paper's discrete accelerator runs 336 RSU-Gs concurrently
 * (Sec. II-C); on a 4-connected grid, pixels of the same parity have
 * no shared edges, so all "red" pixels can be updated in parallel
 * from a consistent snapshot, then all "black" pixels — the standard
 * chromatic Gibbs schedule.  This solver executes that schedule with
 * the exact parallel data dependences (within a half-sweep every
 * conditional is computed against the *other* color only), so its
 * output is what the real accelerator would produce.  An accelerator
 * with U units finishes a half-sweep in ceil(pixels/2/U) * M cycles —
 * the number hw::PerfModel uses.
 *
 * The schedule runs on the chromatic phase engine
 * (checkerboard_detail.hh), the same code the sharded solver's ranks
 * run.  With SolverConfig::threads != 1 (or stripes > 0) each color
 * phase is partitioned into contiguous row stripes executed
 * concurrently on a thread pool.  Every stripe draws from its own RNG
 * stream derived from (seed, sweep, color, stripe) and samples
 * through its own LabelSampler::clone(), so the result is
 * bit-deterministic for a fixed seed and stripe count, independent of
 * thread count and OS scheduling; the clones' instrumentation
 * counters are folded back into the caller's sampler
 * (LabelSampler::mergeStats) when the run finishes.
 * threads == 1 && stripes == 0 runs the historical single-stream
 * schedule: the same engine with one executor over every row,
 * sampling through the caller's sampler on the solver's persistent
 * generator.
 *
 * Both schedules sample through the batched row kernel: each
 * color-phase row's conditionals are produced into a per-executor
 * arena (MrfProblem::conditionalEnergiesRow) and handed to
 * LabelSampler::sampleRow in one call.  Batched kernels honor the
 * scalar RNG draw order, so both outputs are byte-identical to the
 * per-pixel implementation they replaced.
 */

#ifndef RETSIM_MRF_CHECKERBOARD_HH
#define RETSIM_MRF_CHECKERBOARD_HH

#include "mrf/gibbs.hh"
#include "mrf/problem.hh"
#include "mrf/sampler.hh"

namespace retsim {
namespace mrf {

class CheckerboardGibbsSolver
{
  public:
    explicit CheckerboardGibbsSolver(SolverConfig config)
        : config_(config)
    {
    }

    img::LabelMap run(const MrfProblem &problem, LabelSampler &sampler,
                      img::LabelMap &labels,
                      SolverTrace *trace = nullptr) const;

    img::LabelMap run(const MrfProblem &problem, LabelSampler &sampler,
                      SolverTrace *trace = nullptr) const;

    const SolverConfig &config() const { return config_; }

    /**
     * Stripe count actually used for a problem of the given height:
     * the configured count, or min(height, 16) when unset, clamped so
     * no stripe is empty.
     */
    int effectiveStripes(int height) const;

  private:
    SolverConfig config_;
};

} // namespace mrf
} // namespace retsim

#endif // RETSIM_MRF_CHECKERBOARD_HH
