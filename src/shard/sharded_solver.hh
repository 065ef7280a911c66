/**
 * @file
 * Sharded checkerboard Gibbs solver: rank threads exchanging messages.
 *
 * Each rank runs the chromatic phase engine
 * (mrf/checkerboard_detail.hh) over its TilePartition range of global
 * stripes — the very code the striped CheckerboardGibbsSolver runs
 * over all of them, so the per-(seed, sweep, color, stripe) RNG
 * streams, the per-stripe sampler clones and the batched row kernel
 * are shared, not mirrored.  On top of the engine a rank adds only
 * what sharding needs: a private label map whose one-row ghost zones
 * are refreshed by a synchronous exchange over an in-process
 * LoopbackMesh (shard/transport.hh) at every color-phase boundary,
 * the re-derivation of the cross-rank dirty marks from that ghost
 * diff, and the per-sweep JOIN (counter and SamplerStats folds, plain
 * sums, so every total equals the striped run's) and GATHER frames.
 *
 * Determinism contract (enforced by tools/shard_check + the CI
 * shard-equivalence leg): for ANY shard count N and intra-rank thread
 * count, the labels, the SolverTrace (including the FP energy series,
 * which is reduced from per-row partials in row order exactly like
 * MrfProblem::totalEnergy), and the final SOLVERCP snapshot are
 * byte-identical to a serial striped run with the same (seed,
 * stripes).  Checkpointing composes: snapshots are written by rank 0
 * with solverKind "checkerboard", so a sharded run can resume a
 * serial or sharded snapshot and vice versa, byte-identically.
 *
 * Division of labor: rank 0 is the caller's thread and owns
 * everything stateful a caller can observe — the run frame shared
 * with the single-process solvers (init/resume, the caller's sampler
 * and label map, trace, telemetry, sweep observers, checkpoint
 * emission) — while workers own only their tile's row range.  Within
 * a rank, stripes dispatch across SolverConfig::threads (capped at
 * the rank's stripe count); the thread count is schedule-only and
 * never changes the result.
 */

#ifndef RETSIM_SHARD_SHARDED_SOLVER_HH
#define RETSIM_SHARD_SHARDED_SOLVER_HH

#include "img/image.hh"
#include "mrf/gibbs.hh"
#include "mrf/problem.hh"
#include "mrf/sampler.hh"

namespace retsim {
namespace shard {

struct ShardOptions
{
    /**
     * Shard (rank) count.  <= 1 runs CheckerboardGibbsSolver with the
     * same config — with the default threads = 1, stripes = 0 that is
     * its single-stream serial schedule, whose RNG streams differ from
     * every sharded run; set stripes (or threads != 1) to get the
     * striped schedule sharded runs reproduce.
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

    const mrf::SolverConfig &config() const { return config_; }
    const ShardOptions &options() const { return options_; }

  private:
    mrf::SolverConfig config_;
    ShardOptions options_;
};

/**
 * A SolverBackend (see mrf/gibbs.hh) routing any runSolver() call
 * through a ShardedCheckerboardSolver with these options — how the
 * CLI layer turns `--shards=N` on for an app without the app knowing.
 */
mrf::SolverBackend makeShardBackend(const ShardOptions &options);

} // namespace shard
} // namespace retsim

#endif // RETSIM_SHARD_SHARDED_SOLVER_HH
