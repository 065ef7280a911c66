/**
 * @file
 * Sharded-solver layer tests: TilePartition edge cases (1-row tiles,
 * more shards than stripes, non-divisible heights, halo indexing at
 * the grid boundary), partition-independence of the per-stripe RNG
 * stream keys, the loopback mesh's matched receive, and the headline
 * equivalence contract — a run sharded N ways at any intra-rank
 * thread count is byte-identical (labels, trace, final snapshot) to
 * the serial striped run, also when it resumes a mid-anneal snapshot —
 * and folds every mrf.* registry counter, the caller sampler's stats
 * and the per-sweep telemetry exactly like the striped run.
 */

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rsu_config.hh"
#include "core/sampler_rsu.hh"
#include "core/sampler_software.hh"
#include "img/image.hh"
#include "mrf/checkerboard.hh"
#include "mrf/checkerboard_detail.hh"
#include "mrf/checkpoint.hh"
#include "mrf/problem.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "shard/shard_cli.hh"
#include "shard/sharded_solver.hh"
#include "shard/tile_partition.hh"
#include "shard/transport.hh"

namespace {

using namespace retsim;

// ------------------------------------------------------------------
// TilePartition

/** Structural invariants every partition must satisfy: stripe-aligned
 *  contiguous coverage, consistent inverses, correct halo owners. */
void
expectWellFormed(const shard::TilePartition &p)
{
    const int H = p.height(), S = p.stripes(), N = p.shards();
    int stripe = 0, row = 0;
    for (int j = 0; j < N; ++j) {
        EXPECT_EQ(p.stripeBegin(j), stripe) << "shard " << j;
        EXPECT_LE(p.stripeBegin(j), p.stripeEnd(j));
        stripe = p.stripeEnd(j);
        EXPECT_EQ(p.rowBegin(j),
                  mrf::detail::stripeRowStart(p.stripeBegin(j), H, S));
        EXPECT_EQ(p.rowEnd(j),
                  mrf::detail::stripeRowStart(p.stripeEnd(j), H, S));
        EXPECT_EQ(p.rowBegin(j), row);
        row = p.rowEnd(j);
        EXPECT_EQ(p.empty(j), p.rowBegin(j) == p.rowEnd(j));
    }
    EXPECT_EQ(stripe, S) << "stripes not fully covered";
    EXPECT_EQ(row, H) << "rows not fully covered";

    for (int y = 0; y < H; ++y) {
        const int k = p.stripeOfRow(y);
        ASSERT_GE(k, 0);
        ASSERT_LT(k, S);
        EXPECT_GE(y, mrf::detail::stripeRowStart(k, H, S));
        EXPECT_LT(y, mrf::detail::stripeRowStart(k + 1, H, S));
        const int j = p.ownerOfRow(y);
        ASSERT_GE(j, 0);
        ASSERT_LT(j, N);
        EXPECT_GE(y, p.rowBegin(j));
        EXPECT_LT(y, p.rowEnd(j));
    }

    for (int j = 0; j < N; ++j) {
        if (p.empty(j)) {
            EXPECT_EQ(p.neighborAbove(j), -1);
            EXPECT_EQ(p.neighborBelow(j), -1);
            continue;
        }
        if (p.rowBegin(j) == 0)
            EXPECT_EQ(p.neighborAbove(j), -1);
        else
            EXPECT_EQ(p.neighborAbove(j),
                      p.ownerOfRow(p.rowBegin(j) - 1));
        if (p.rowEnd(j) == H)
            EXPECT_EQ(p.neighborBelow(j), -1);
        else
            EXPECT_EQ(p.neighborBelow(j), p.ownerOfRow(p.rowEnd(j)));
    }
}

TEST(TilePartition, OneRowTilesChainTheirHalos)
{
    // height == stripes == shards: every tile is a single row, every
    // interior tile has both halo neighbors.
    shard::TilePartition p(6, 6, 6);
    expectWellFormed(p);
    for (int j = 0; j < 6; ++j) {
        EXPECT_EQ(p.rowBegin(j), j);
        EXPECT_EQ(p.rowEnd(j), j + 1);
        EXPECT_EQ(p.neighborAbove(j), j == 0 ? -1 : j - 1);
        EXPECT_EQ(p.neighborBelow(j), j == 5 ? -1 : j + 1);
    }
}

TEST(TilePartition, MoreShardsThanStripesLeavesSurplusEmpty)
{
    shard::TilePartition p(5, 3, 5);
    expectWellFormed(p);
    int nonEmpty = 0;
    for (int j = 0; j < 5; ++j)
        nonEmpty += p.empty(j) ? 0 : 1;
    EXPECT_EQ(nonEmpty, 3);
}

TEST(TilePartition, NonDivisibleHeightsStayWellFormed)
{
    for (int height : {1, 2, 7, 13, 48, 97})
        for (int stripes : {1, 2, 3, 5, 8, 16}) {
            if (stripes > height)
                continue;
            for (int shards : {1, 2, 3, 4, 7, 19}) {
                SCOPED_TRACE("h=" + std::to_string(height) +
                             " S=" + std::to_string(stripes) +
                             " N=" + std::to_string(shards));
                expectWellFormed(
                    shard::TilePartition(height, stripes, shards));
            }
        }
}

TEST(TilePartition, HaloIndexingAtGridBoundary)
{
    shard::TilePartition p(48, 8, 3);
    expectWellFormed(p);
    // Top tile has no upper ghost, bottom tile no lower ghost.
    EXPECT_EQ(p.neighborAbove(0), -1);
    EXPECT_EQ(p.neighborBelow(2), -1);
    // Interior boundaries resolve to the adjacent rank.
    EXPECT_EQ(p.neighborBelow(0), 1);
    EXPECT_EQ(p.neighborAbove(1), 0);
    EXPECT_EQ(p.neighborBelow(1), 2);
    EXPECT_EQ(p.neighborAbove(2), 1);
}

TEST(TilePartition, StripeStreamKeysAreShardCountIndependent)
{
    // The determinism argument: stripe k's RNG stream key is a
    // function of the GLOBAL stripe id only, and every shard count
    // assigns the same global ids, so the executed streams are
    // identical no matter how many shards run them.
    const int height = 48, stripes = 8;
    const std::uint64_t seed = 0x5eed;
    std::vector<std::uint64_t> serialKeys;
    for (int k = 0; k < stripes; ++k)
        serialKeys.push_back(
            mrf::detail::stripeStreamSeed(seed, 3, 1, k));

    for (int shards : {1, 2, 3, 4, 8, 11}) {
        shard::TilePartition p(height, stripes, shards);
        std::vector<std::uint64_t> keys;
        for (int j = 0; j < shards; ++j)
            for (int k = p.stripeBegin(j); k < p.stripeEnd(j); ++k)
                keys.push_back(
                    mrf::detail::stripeStreamSeed(seed, 3, 1, k));
        EXPECT_EQ(keys, serialKeys) << "shards=" << shards;
    }
}

// ------------------------------------------------------------------
// Loopback mesh

TEST(LoopbackMesh, MatchedRecvDeliversInOrderAndRejectsWrongTag)
{
    shard::LoopbackMesh mesh(2);
    shard::LoopbackMesh::Endpoint tx = mesh.endpoint(0);
    shard::LoopbackMesh::Endpoint rx = mesh.endpoint(1);
    tx.send(1, shard::tag::kHalo, {0xaa, 0xbb});
    tx.send(1, shard::tag::kJoin, {});
    EXPECT_EQ(rx.recv(0, shard::tag::kHalo),
              (std::vector<unsigned char>{0xaa, 0xbb}));
    EXPECT_TRUE(rx.recv(0, shard::tag::kJoin).empty());

    // A desynchronized protocol is a named diagnostic, not misread
    // bytes.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    tx.send(1, shard::tag::kHalo, {0x01});
    EXPECT_DEATH(rx.recv(0, shard::tag::kGather),
                 "rank 1 expected tag 3 from rank 0, got 1");
}

// ------------------------------------------------------------------
// Loopback equivalence

mrf::MrfProblem
makeProblem(int width = 14, int height = 11, int num_labels = 5)
{
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

struct RunResult
{
    img::LabelMap labels;
    mrf::SolverTrace trace;
    std::vector<unsigned char> snapshot;
};

mrf::SolverConfig
solverConfig(int stripes)
{
    mrf::SolverConfig cfg;
    cfg.annealing.t0 = 12.0;
    cfg.annealing.tEnd = 0.8;
    cfg.annealing.sweeps = 8;
    cfg.seed = 99;
    cfg.stripes = stripes;
    cfg.checkpointEvery = 3; // final sweep always snapshots
    return cfg;
}

RunResult
runReference(const mrf::MrfProblem &problem, int stripes)
{
    RunResult r;
    mrf::SolverConfig cfg = solverConfig(stripes);
    cfg.checkpointSink = [&](const mrf::SolverCheckpoint &cp) {
        if (cp.sweepsDone == cp.sweepsTotal)
            r.snapshot = cp.serialize();
    };
    core::SoftwareSampler sampler;
    r.labels = mrf::CheckerboardGibbsSolver(cfg).run(problem, sampler,
                                                     &r.trace);
    return r;
}

/** Sharded solve; @p resume, when set, is the snapshot it starts
 *  from, and @p midpoint, when set, receives the first snapshot at or
 *  past mid-anneal. */
RunResult
runLoopback(const mrf::MrfProblem &problem, int stripes, int shards,
            int threads = 1,
            std::shared_ptr<const mrf::SolverCheckpoint> resume = nullptr,
            std::shared_ptr<mrf::SolverCheckpoint> *midpoint = nullptr)
{
    RunResult r;
    mrf::SolverConfig cfg = solverConfig(stripes);
    cfg.threads = threads;
    cfg.resume = std::move(resume);
    cfg.checkpointSink = [&r, midpoint](const mrf::SolverCheckpoint &cp) {
        if (cp.sweepsDone == cp.sweepsTotal)
            r.snapshot = cp.serialize();
        else if (midpoint && !*midpoint &&
                 2 * cp.sweepsDone >= cp.sweepsTotal)
            *midpoint = std::make_shared<mrf::SolverCheckpoint>(cp);
    };
    shard::ShardOptions options;
    options.shards = shards;
    core::SoftwareSampler sampler;
    r.labels = shard::ShardedCheckerboardSolver(cfg, options)
                   .run(problem, sampler, &r.trace);
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
}

TEST(ShardedSolver, LoopbackMatchesSerialStripedByteForByte)
{
    // The headline contract at every shards x threads combination,
    // plus one-row tiles (height == stripes == shards: every tile is
    // a single row with a ghost row on each side).
    const mrf::MrfProblem problem = makeProblem();
    const RunResult ref = runReference(problem, 4);
    for (int shards : {2, 3, 4}) {
        for (int threads : {1, 2, 4}) {
            SCOPED_TRACE("shards=" + std::to_string(shards) +
                         " threads=" + std::to_string(threads));
            expectSameRun(ref,
                          runLoopback(problem, 4, shards, threads));
        }
    }
    const mrf::MrfProblem rows = makeProblem(12, 6);
    const RunResult rowsRef = runReference(rows, 6);
    for (int threads : {1, 2}) {
        SCOPED_TRACE("one-row tiles, threads=" +
                     std::to_string(threads));
        expectSameRun(rowsRef, runLoopback(rows, 6, 6, threads));
    }
}

TEST(ShardedSolver, EmptyRanksDoNotPerturbTheResult)
{
    // More shards than stripes: the surplus ranks own nothing, take
    // no part in the halo exchange, and the result must still be
    // identical.
    const mrf::MrfProblem problem = makeProblem(10, 9);
    const RunResult ref = runReference(problem, 3);
    for (int threads : {1, 2}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectSameRun(ref, runLoopback(problem, 3, 5, threads));
    }
}

TEST(ShardedSolver, SingleShardDelegatesToSerialSolver)
{
    const mrf::MrfProblem problem = makeProblem();
    const RunResult ref = runReference(problem, 4);
    expectSameRun(ref, runLoopback(problem, 4, 1));
}

TEST(ShardedSolver, ResumesMidAnnealSnapshotByteForByte)
{
    const mrf::MrfProblem problem = makeProblem();
    const RunResult ref = runReference(problem, 4);

    // Serial -> sharded: the striped solver's mid-anneal snapshot.
    std::shared_ptr<mrf::SolverCheckpoint> serialMid;
    {
        mrf::SolverConfig cfg = solverConfig(4);
        cfg.checkpointSink = [&](const mrf::SolverCheckpoint &cp) {
            if (!serialMid && 2 * cp.sweepsDone >= cp.sweepsTotal)
                serialMid = std::make_shared<mrf::SolverCheckpoint>(cp);
        };
        core::SoftwareSampler sampler;
        mrf::CheckerboardGibbsSolver(cfg).run(problem, sampler);
    }
    ASSERT_TRUE(serialMid);
    ASSERT_LT(serialMid->sweepsDone, serialMid->sweepsTotal);

    for (int shards : {2, 4}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        expectSameRun(ref, runLoopback(problem, 4, shards, 1, serialMid));

        // Sharded -> sharded, at this shard count and at the other.
        std::shared_ptr<mrf::SolverCheckpoint> mid;
        runLoopback(problem, 4, shards, 1, nullptr, &mid);
        ASSERT_TRUE(mid);
        EXPECT_EQ(mid->serialize(), serialMid->serialize());
        for (int resumeShards : {shards, 6 - shards}) {
            SCOPED_TRACE("resumed at shards=" +
                         std::to_string(resumeShards));
            expectSameRun(ref,
                          runLoopback(problem, 4, resumeShards, 1, mid));
        }
    }
}

// ------------------------------------------------------------------
// Counter folds

/** Everything a run reports besides its labels, trace and snapshot. */
struct RunCounters
{
    std::map<std::string, std::uint64_t> registryDelta; ///< mrf.* only
    mrf::SamplerStats samplerStats;
    /** Per-sweep telemetry as `stream,record,field,value` rows. */
    std::vector<std::string> telemetry;
};

std::map<std::string, std::uint64_t>
mrfCounters()
{
    std::map<std::string, std::uint64_t> out;
    for (const obs::MetricSnapshot &m : obs::Registry::global().snapshot())
        if (m.kind == obs::MetricKind::Counter &&
            m.name.rfind("mrf.", 0) == 0)
            out[m.name] = m.counter;
    return out;
}

/** Runs the striped solver (@p shards == 0) or the sharded one with a
 *  telemetry recorder installed and collects its counters. */
RunCounters
runCounted(const mrf::MrfProblem &problem, bool rsu, int shards,
           int threads)
{
    mrf::SolverConfig cfg = solverConfig(4);
    cfg.checkpointEvery = 0;
    cfg.threads = threads;
    std::unique_ptr<mrf::LabelSampler> sampler;
    if (rsu)
        sampler = std::make_unique<core::RsuSampler>(
            core::RsuConfig::newDesign());
    else
        sampler = std::make_unique<core::SoftwareSampler>();

    obs::TelemetryRecorder recorder("counters");
    obs::setActiveRecorder(&recorder);
    const std::map<std::string, std::uint64_t> before = mrfCounters();
    if (shards == 0) {
        mrf::CheckerboardGibbsSolver(cfg).run(problem, *sampler);
    } else {
        shard::ShardOptions options;
        options.shards = shards;
        shard::ShardedCheckerboardSolver(cfg, options)
            .run(problem, *sampler);
    }
    obs::setActiveRecorder(nullptr);

    RunCounters r;
    for (const auto &[name, value] : mrfCounters()) {
        const auto it = before.find(name);
        r.registryDelta[name] =
            value - (it == before.end() ? 0 : it->second);
    }
    r.samplerStats = sampler->stats();
    // lut_hits / lut_misses difference process-wide LambdaLut counters:
    // their split depends on how warm the LUT cache already is, and in
    // sharded runs workers start the next sweep while rank 0 records,
    // so only the run totals would agree.
    std::istringstream csv(recorder.toCsv());
    for (std::string line; std::getline(csv, line);)
        if (line.find(",lut_hits,") == std::string::npos &&
            line.find(",lut_misses,") == std::string::npos)
            r.telemetry.push_back(line);
    return r;
}

TEST(ShardedSolver, FoldsCountersExactlyLikeStripedRuns)
{
    const mrf::MrfProblem problem = makeProblem();
    for (bool rsu : {false, true}) {
        const RunCounters ref = runCounted(problem, rsu, 0, 1);
        ASSERT_GT(ref.registryDelta.at("mrf.solver.pixel_updates"), 0u);
        ASSERT_GT(ref.telemetry.size(), 1u);
        // Shards = 5 > 4 stripes leaves a rank empty.
        for (int shards : {2, 3, 5}) {
            for (int threads : {1, 2}) {
                SCOPED_TRACE(std::string(rsu ? "rsu" : "software") +
                             " shards=" + std::to_string(shards) +
                             " threads=" + std::to_string(threads));
                const RunCounters got =
                    runCounted(problem, rsu, shards, threads);
                EXPECT_EQ(got.registryDelta, ref.registryDelta);
                EXPECT_EQ(got.samplerStats.samples,
                          ref.samplerStats.samples);
                EXPECT_EQ(got.samplerStats.noSample,
                          ref.samplerStats.noSample);
                EXPECT_EQ(got.samplerStats.ties, ref.samplerStats.ties);
                EXPECT_EQ(got.telemetry, ref.telemetry);
            }
        }
    }
}

// ------------------------------------------------------------------
// Input validation

TEST(ShardedSolverDeathTest, RejectsOutOfRangeInitialLabels)
{
    const mrf::MrfProblem problem = makeProblem();
    mrf::SolverConfig cfg = solverConfig(4);
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

// ------------------------------------------------------------------
// Command-line parsing (no solve, no threads)

util::CliArgs
cliOf(const char *flag)
{
    const char *argv[] = {"prog", flag};
    return util::CliArgs(2, argv);
}

TEST(ShardCli, ParsesInRangeCounts)
{
    EXPECT_EQ(shard::shardOptionsFromCli(cliOf("--shards=3")).shards, 3);
    EXPECT_EQ(shard::shardOptionsFromCli(cliOf("--other=1")).shards, 1);
    EXPECT_EQ(shard::threadsFromCli(cliOf("--threads=0")), 0);
    EXPECT_EQ(shard::threadsFromCli(cliOf("--threads=2147483647")),
              2147483647);
    EXPECT_EQ(shard::threadsFromCli(cliOf("--other=1")), -1);
}

TEST(ShardCliDeathTest, CountsBeyondIntAreFatalNotWrapped)
{
    // 2^32 + 2 and 2^32 + 1 would narrow to 2 shards and 1 thread.
    EXPECT_DEATH(shard::shardOptionsFromCli(cliOf("--shards=4294967298")),
                 "--shards=4294967298 is out of range");
    EXPECT_DEATH(shard::threadsFromCli(cliOf("--threads=4294967297")),
                 "--threads=4294967297 is out of range");
}

TEST(ShardCliDeathTest, CountsBelowTheirMinimumAreFatal)
{
    EXPECT_DEATH(shard::shardOptionsFromCli(cliOf("--shards=0")),
                 "--shards=0 is out of range");
    EXPECT_DEATH(shard::threadsFromCli(cliOf("--threads=-1")),
                 "--threads=-1 is out of range");
}

} // namespace
