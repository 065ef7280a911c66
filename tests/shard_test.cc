/**
 * @file
 * ShardedCheckerboardSolver forwards to the striped
 * CheckerboardGibbsSolver: for any shard and thread count its labels,
 * trace, final snapshot and folded sampler stats are byte-identical to
 * the 1-thread striped run, and a single shard leaves the config
 * untouched.
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rsu_config.hh"
#include "core/sampler_rsu.hh"
#include "core/sampler_software.hh"
#include "img/image.hh"
#include "mrf/checkerboard.hh"
#include "mrf/checkpoint.hh"
#include "mrf/problem.hh"
#include "shard/sharded_solver.hh"

namespace {

using namespace retsim;

mrf::MrfProblem
makeProblem()
{
    const int width = 14, height = 11, num_labels = 5;
    mrf::MrfProblem p(
        width, height,
        mrf::PairwiseTable(mrf::DistanceKind::Absolute, num_labels,
                           2.0),
        "shard-test");
    for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
            for (int l = 0; l < num_labels; ++l)
                p.singleton(x, y, l) = static_cast<float>(
                    ((x * 5 + y * 11 + l * 23) % 19) * 0.5);
    return p;
}

mrf::SolverConfig
solverConfig(int stripes, int threads)
{
    mrf::SolverConfig cfg;
    cfg.annealing.t0 = 12.0;
    cfg.annealing.tEnd = 0.8;
    cfg.annealing.sweeps = 8;
    cfg.seed = 99;
    cfg.stripes = stripes;
    cfg.threads = threads;
    cfg.checkpointEvery = 3; // final sweep always snapshots
    return cfg;
}

struct RunResult
{
    img::LabelMap labels;
    mrf::SolverTrace trace;
    std::vector<unsigned char> snapshot;
    mrf::SamplerStats stats;
};

/** Solve with the RSU sampler, whose ties and no-sample events make
 *  the folded stats worth comparing; @p shards == 0 runs
 *  CheckerboardGibbsSolver itself. */
RunResult
run(const mrf::MrfProblem &problem, int stripes, int threads,
    int shards)
{
    RunResult r;
    mrf::SolverConfig cfg = solverConfig(stripes, threads);
    cfg.checkpointSink = [&r](const mrf::SolverCheckpoint &cp) {
        if (cp.sweepsDone == cp.sweepsTotal)
            r.snapshot = cp.serialize();
    };
    core::RsuSampler sampler(core::RsuConfig::newDesign());
    if (shards == 0) {
        r.labels = mrf::CheckerboardGibbsSolver(cfg).run(problem, sampler,
                                                         &r.trace);
    } else {
        shard::ShardOptions options;
        options.shards = shards;
        r.labels = shard::ShardedCheckerboardSolver(cfg, options)
                       .run(problem, sampler, &r.trace);
    }
    r.stats = sampler.stats();
    return r;
}

void
expectSameRun(const RunResult &ref, const RunResult &got)
{
    EXPECT_EQ(got.labels.data(), ref.labels.data());
    EXPECT_EQ(got.trace.energyPerSweep, ref.trace.energyPerSweep);
    EXPECT_EQ(got.trace.temperaturePerSweep,
              ref.trace.temperaturePerSweep);
    EXPECT_EQ(got.trace.labelChanges, ref.trace.labelChanges);
    EXPECT_EQ(got.trace.pixelUpdates, ref.trace.pixelUpdates);
    EXPECT_EQ(got.snapshot, ref.snapshot);
    EXPECT_EQ(got.stats.samples, ref.stats.samples);
    EXPECT_EQ(got.stats.noSample, ref.stats.noSample);
    EXPECT_EQ(got.stats.ties, ref.stats.ties);
}

TEST(ShardedSolver, ForwardsToStripedSolverByteForByte)
{
    const mrf::MrfProblem problem = makeProblem();
    // stripes = 0 takes the striped default, min(height, 16) = 11.
    for (int stripes : {4, 0}) {
        const RunResult ref =
            run(problem, stripes ? stripes : problem.height(), 1, 0);
        ASSERT_GT(ref.stats.samples, 0u);
        for (int shards : {2, 3, 4})
            for (int threads : {0, 1, 2}) {
                SCOPED_TRACE("stripes=" + std::to_string(stripes) +
                             " shards=" + std::to_string(shards) +
                             " threads=" + std::to_string(threads));
                expectSameRun(ref, run(problem, stripes, threads, shards));
            }
    }
}

TEST(ShardedSolver, SingleShardDelegatesToSerialSolver)
{
    // stripes = 0 at 1 thread is the single-stream serial schedule,
    // which a single shard keeps.
    const mrf::MrfProblem problem = makeProblem();
    expectSameRun(run(problem, 0, 1, 0), run(problem, 0, 1, 1));
}

TEST(ShardedSolverDeathTest, RejectsOutOfRangeInitialLabels)
{
    const mrf::MrfProblem problem = makeProblem();
    mrf::SolverConfig cfg = solverConfig(4, 1);
    cfg.checkpointEvery = 0;
    cfg.randomInit = false;
    img::LabelMap labels(problem.width(), problem.height(), 0);
    labels(3, 2) = 1000000;
    shard::ShardOptions options;
    options.shards = 2;
    core::SoftwareSampler sampler;
    EXPECT_DEATH(shard::ShardedCheckerboardSolver(cfg, options)
                     .run(problem, sampler, labels),
                 "initial label 1000000 out of range");
}

} // namespace
