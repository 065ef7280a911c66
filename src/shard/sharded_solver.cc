#include "shard/sharded_solver.hh"

#include <algorithm>

#include "mrf/checkerboard.hh"
#include "mrf/checkerboard_detail.hh"

namespace retsim {
namespace shard {

img::LabelMap
ShardedCheckerboardSolver::run(const mrf::MrfProblem &problem,
                               mrf::LabelSampler &sampler,
                               img::LabelMap &labels,
                               mrf::SolverTrace *trace) const
{
    mrf::SolverConfig config = config_;
    if (options_.shards > 1) {
        config.stripes =
            mrf::detail::effectiveStripes(config_, problem.height());
        if (config.threads > 0)
            config.threads = static_cast<int>(std::min<long long>(
                static_cast<long long>(options_.shards) * config.threads,
                config.stripes));
    }
    return mrf::CheckerboardGibbsSolver(std::move(config))
        .run(problem, sampler, labels, trace);
}

img::LabelMap
ShardedCheckerboardSolver::run(const mrf::MrfProblem &problem,
                               mrf::LabelSampler &sampler,
                               mrf::SolverTrace *trace) const
{
    img::LabelMap labels(problem.width(), problem.height(), 0);
    return run(problem, sampler, labels, trace);
}

} // namespace shard
} // namespace retsim
