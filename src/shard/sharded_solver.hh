/**
 * @file
 * ShardedCheckerboardSolver: the striped checkerboard solver under the
 * name the end-to-end benchmark's stereo16-sharded workload still
 * constructs.
 *
 * The in-process shard layer (rank threads, each with a private label
 * copy, exchanging ghost rows at every color phase) was removed: its
 * runs were byte-identical to CheckerboardGibbsSolver's striped runs
 * by contract, and it never beat them.  This class only forwards to
 * that solver.  It exists for perfbench alone; delete it once that
 * workload calls CheckerboardGibbsSolver with 2 threads directly.
 */

#ifndef RETSIM_SHARD_SHARDED_SOLVER_HH
#define RETSIM_SHARD_SHARDED_SOLVER_HH

#include <utility>

#include "img/image.hh"
#include "mrf/gibbs.hh"
#include "mrf/problem.hh"
#include "mrf/sampler.hh"

namespace retsim {
namespace shard {

struct ShardOptions
{
    /**
     * <= 1 runs CheckerboardGibbsSolver with the config unchanged.
     * N > 1 runs its striped schedule (stripes = the effective stripe
     * count) with N times config.threads workers, capped at the stripe
     * count; threads = 0 (one per core) stays 0.
     */
    int shards = 1;
};

class ShardedCheckerboardSolver
{
  public:
    ShardedCheckerboardSolver(mrf::SolverConfig config,
                              ShardOptions options)
        : config_(std::move(config)), options_(options)
    {
    }

    img::LabelMap run(const mrf::MrfProblem &problem,
                      mrf::LabelSampler &sampler, img::LabelMap &labels,
                      mrf::SolverTrace *trace = nullptr) const;

    img::LabelMap run(const mrf::MrfProblem &problem,
                      mrf::LabelSampler &sampler,
                      mrf::SolverTrace *trace = nullptr) const;

  private:
    mrf::SolverConfig config_;
    ShardOptions options_;
};

} // namespace shard
} // namespace retsim

#endif // RETSIM_SHARD_SHARDED_SOLVER_HH
