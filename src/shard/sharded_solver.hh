/**
 * @file
 * Sharded checkerboard Gibbs solver: rank threads exchanging messages.
 *
 * Runs the EXACT stripe schedule of the striped
 * CheckerboardGibbsSolver — same per-(seed, sweep, color, stripe)
 * RNG streams, same per-stripe sampler clones indexed by GLOBAL
 * stripe id, same batched row kernel (mrf/checkerboard_detail.hh) —
 * but splits the stripes across N shard ranks by a TilePartition.
 * Each rank is a thread with a private label map; shared memory is
 * replaced by explicit messages over an in-process LoopbackMesh
 * (shard/transport.hh): one-row ghost zones refreshed by a
 * synchronous exchange at every color-phase boundary, and per-shard
 * counter / SamplerStats folds at the sweep join (plain sums, so
 * every total equals the serial run's).
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
 * everything stateful a caller can observe — init/resume, the
 * caller's sampler and label map, trace, telemetry, sweep observers,
 * checkpoint emission — while workers own only their tile's row
 * range.  Within a rank, stripes dispatch across
 * SolverConfig::threads (the single-process solver's sizing rule,
 * capped at the rank's stripe count); the thread count is
 * schedule-only and never changes the result.
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
    /** Shard (rank) count; <= 1 delegates to the striped
     *  single-process CheckerboardGibbsSolver. */
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
