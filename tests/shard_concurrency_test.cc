/**
 * @file
 * ThreadSanitizer coverage for the sharded solver: the rank threads
 * exchange ghost rows and sweep results through the in-memory mesh
 * while rank 0 folds traces, telemetry and sampler stats, and each
 * rank may dispatch its stripes across its own thread pool, so a full
 * sharded anneal under TSan exercises every cross-rank and intra-rank
 * synchronization point.  Runs in the "concurrency" ctest label
 * alongside the striped-solver suite.
 */

#include <string>

#include <gtest/gtest.h>

#include "core/sampler_software.hh"
#include "img/image.hh"
#include "mrf/checkerboard.hh"
#include "mrf/problem.hh"
#include "shard/sharded_solver.hh"

namespace {

using namespace retsim;

mrf::MrfProblem
makeProblem(int width, int height, int num_labels)
{
    mrf::MrfProblem p(
        width, height,
        mrf::PairwiseTable(mrf::DistanceKind::Absolute, num_labels,
                           1.5),
        "shard-concurrency-test");
    for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
            for (int l = 0; l < num_labels; ++l)
                p.singleton(x, y, l) = static_cast<float>(
                    ((x * 3 + y * 17 + l * 13) % 23) * 0.25);
    return p;
}

TEST(ShardedSolverConcurrency, LoopbackRanksRaceFreeAndDeterministic)
{
    const mrf::MrfProblem problem = makeProblem(24, 20, 4);
    mrf::SolverConfig cfg;
    cfg.annealing.t0 = 10.0;
    cfg.annealing.tEnd = 0.9;
    cfg.annealing.sweeps = 6;
    cfg.seed = 1234;
    cfg.stripes = 5;

    mrf::SolverTrace refTrace;
    core::SoftwareSampler refSampler;
    img::LabelMap ref = mrf::CheckerboardGibbsSolver(cfg).run(
        problem, refSampler, &refTrace);

    for (int shards : {2, 4}) {
        for (int threads : {1, 2}) {
            SCOPED_TRACE("shards=" + std::to_string(shards) +
                         " threads=" + std::to_string(threads));
            cfg.threads = threads;
            shard::ShardOptions options;
            options.shards = shards;
            mrf::SolverTrace trace;
            core::SoftwareSampler sampler;
            img::LabelMap got =
                shard::ShardedCheckerboardSolver(cfg, options)
                    .run(problem, sampler, &trace);
            EXPECT_EQ(got.data(), ref.data());
            EXPECT_EQ(trace.energyPerSweep, refTrace.energyPerSweep);
            EXPECT_EQ(trace.labelChanges, refTrace.labelChanges);
            EXPECT_EQ(trace.pixelUpdates, refTrace.pixelUpdates);
        }
    }
}

} // namespace
