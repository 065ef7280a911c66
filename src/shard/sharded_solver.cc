#include "shard/sharded_solver.hh"

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "mrf/checkerboard.hh"
#include "mrf/checkerboard_detail.hh"
#include "mrf/checkpoint.hh"
#include "mrf/energy_cache.hh"
#include "mrf/run_frame.hh"
#include "obs/metrics.hh"
#include "shard/tile_partition.hh"
#include "shard/transport.hh"
#include "util/checkpoint.hh"
#include "util/logging.hh"

namespace retsim {
namespace shard {

namespace {

using mrf::detail::StripeCounters;

/** Transport-behavior counters, folded per rank at the sweep join
 *  (same static-registration pattern as SolverMetricIds). */
struct ShardMetricIds
{
    obs::MetricId haloBytesSent; ///< ghost-row payload bytes posted
    obs::MetricId haloSendNs;    ///< time spent posting ghost rows
    obs::MetricId haloWaitNs;    ///< time blocked on inbound ghosts
    obs::MetricId interiorNs;    ///< per-phase stripe compute time

    static const ShardMetricIds &
    get()
    {
        static const ShardMetricIds ids = [] {
            obs::Registry &r = obs::Registry::global();
            return ShardMetricIds{
                r.counter("shard.halo.bytes_sent"),
                r.counter("shard.halo.send_ns"),
                r.counter("shard.halo.wait_ns"),
                r.counter("shard.phase.interior_ns"),
            };
        }();
        return ids;
    }
};

/** Monotonic nanoseconds since @p t0 (counter accumulation only —
 *  results never depend on time). */
std::uint64_t
nsSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

/** Flags every rank must agree on, computed by rank 0 before the
 *  worker threads start so both sides of every conditional message
 *  derive the same frame sequence. */
struct ShardSpec
{
    int startSweep = 0;
    bool wantEnergy = false; ///< rank 0 keeps a SolverTrace
    bool wantStats = false;  ///< telemetry recorder active on rank 0
    bool gatherObserver = false; ///< sweepObserver needs labels/sweep
};

/** Both sides of the GATHER exchange must evaluate this identically:
 *  rank 0 needs the full label field (and per-stripe sampler states)
 *  on observer sweeps, checkpoint sweeps, and the final sweep. */
bool
gatherNeeded(const ShardSpec &spec, const mrf::SolverConfig &config,
             int sweep)
{
    return spec.gatherObserver ||
           sweep + 1 == config.annealing.sweeps ||
           mrf::detail::shouldCheckpoint(config, sweep + 1);
}

/** The rank that folds the full cache stats (including the one
 *  rebuild + one shadow sync a serial run records).  Usually rank 0;
 *  rank 0 can be empty (and cache-less) when shards > stripes. */
int
firstNonEmptyRank(const TilePartition &part)
{
    for (int j = 0; j < part.shards(); ++j)
        if (!part.empty(j))
            return j;
    return 0;
}

/**
 * One rank: the phase engine over its contiguous run of global
 * stripes, a PRIVATE full-size label map whose ghost rows are
 * refreshed by message, and the halo exchange between phases.
 */
struct RankWork
{
    const mrf::MrfProblem &problem;
    LoopbackMesh::Endpoint tr;
    img::LabelMap &labels;
    const std::vector<std::unique_ptr<mrf::LabelSampler>> &clones;

    int rank;
    int k0, k1;  ///< global stripe range [k0, k1)
    int lo, hi;  ///< owned row range [lo, hi)
    int up, down; ///< neighbor ranks (-1 = grid boundary)

    mrf::detail::StripeEngine engine;

    // Transport-behavior tallies, folded by foldShards() per sweep.
    std::uint64_t haloBytesSent = 0;
    std::uint64_t haloSendNs = 0;
    std::uint64_t haloWaitNs = 0;
    std::uint64_t interiorNs = 0;

    RankWork(const mrf::SolverConfig &config,
             const mrf::MrfProblem &prob, const TilePartition &p,
             LoopbackMesh::Endpoint transport, img::LabelMap &lab,
             const std::vector<std::unique_ptr<mrf::LabelSampler>> &cl,
             int r)
        : problem(prob), tr(transport), labels(lab), clones(cl),
          rank(r), k0(p.stripeBegin(r)), k1(p.stripeEnd(r)),
          lo(p.rowBegin(r)), hi(p.rowEnd(r)),
          up(p.neighborAbove(r)), down(p.neighborBelow(r)),
          engine(config, prob, lab, cl, k0, k1)
    {
    }

    bool empty() const { return k0 == k1; }

    void
    postBoundaryRow(int peer, int y)
    {
        util::ByteWriter w;
        w.u32(static_cast<std::uint32_t>(y));
        for (int x = 0; x < problem.width(); ++x)
            w.i32(labels(x, y));
        haloBytesSent += w.bytes().size();
        const auto t0 = std::chrono::steady_clock::now();
        tr.send(peer, tag::kHalo, w.take());
        haloSendNs += nsSince(t0);
    }

    /**
     * Land one received ghost row: refresh the ghost labels and mark
     * the adjacent inner row — the only row of ours whose planes
     * depend on ghost labels — once per changed ghost pixel.  This
     * re-derives the stripe-boundary marks the sending rank's engine
     * dropped, one mark per flip as in a single-process run, so the
     * process-wide invalidation total equals a striped run's.  The
     * change test reads the cache's SHADOW plane, which is what the
     * cached planes were computed against.
     */
    void
    recvGhostRow(int peer, int yg)
    {
        const auto t0 = std::chrono::steady_clock::now();
        const std::vector<unsigned char> payload =
            tr.recv(peer, tag::kHalo);
        haloWaitNs += nsSince(t0);
        util::ByteReader rd(payload);
        const int y = static_cast<int>(rd.u32());
        RETSIM_ASSERT(y == yg, "halo: rank ", rank, " expected row ",
                      yg, " from rank ", peer, ", got ", y);
        const int inner = yg < lo ? lo : hi - 1;
        mrf::EnergyPlaneCache *cache = engine.cache();
        const std::uint8_t *shadow =
            cache ? cache->shadow() +
                        static_cast<std::size_t>(yg) * problem.width()
                  : nullptr;
        for (int x = 0; x < problem.width(); ++x) {
            const int nv = rd.i32();
            labels(x, yg) = nv;
            if (shadow &&
                shadow[x] != static_cast<std::uint8_t>(nv)) {
                cache->setShadow(x, yg, nv);
                cache->mark(x, inner);
            }
        }
        RETSIM_ASSERT(rd.ok() && rd.atEnd(),
                      "halo: malformed payload");
    }

    /** Synchronous ghost-row refresh at a color-phase boundary.
     *  Sends complete before receives and channels are unbounded, so
     *  the symmetric exchange cannot deadlock. */
    void
    haloExchange()
    {
        if (up >= 0)
            postBoundaryRow(up, lo);
        if (down >= 0)
            postBoundaryRow(down, hi - 1);
        if (up >= 0)
            recvGhostRow(up, lo - 1);
        if (down >= 0)
            recvGhostRow(down, hi);
    }

    /** One color phase of this rank's stripes, then the halo
     *  exchange; within the phase every neighbor read is a frozen
     *  other-color pixel. */
    void
    runPhase(int sweep, int color, double temperature)
    {
        if (empty())
            return;
        const auto t0 = std::chrono::steady_clock::now();
        engine.runPhase(sweep, color, temperature);
        interiorNs += nsSince(t0);
        haloExchange();
    }

    void
    foldShards()
    {
        engine.foldMetrics();
        obs::Registry &reg = obs::Registry::global();
        const ShardMetricIds &sids = ShardMetricIds::get();
        reg.add(sids.haloBytesSent, haloBytesSent);
        reg.add(sids.haloSendNs, haloSendNs);
        reg.add(sids.haloWaitNs, haloWaitNs);
        reg.add(sids.interiorNs, interiorNs);
        haloBytesSent = haloSendNs = haloWaitNs = interiorNs = 0;
    }
};

// ------------------------------------------------------------------
// Message payloads

std::vector<unsigned char>
buildJoin(RankWork &work, const ShardSpec &spec,
          const StripeCounters &tot)
{
    util::ByteWriter w;
    w.u64(tot.pixelUpdates);
    w.u64(tot.labelChanges);
    if (spec.wantStats) {
        mrf::SamplerStats s = work.engine.samplerStats();
        w.u64(s.samples);
        w.u64(s.noSample);
        w.u64(s.ties);
        const mrf::EnergyCacheStats *c = work.engine.cacheStats();
        w.u64(c ? c->cleanHits.load() : 0);
        w.u64(c ? c->recomputed.load() : 0);
        w.u64(c ? c->invalidations.load() : 0);
    }
    if (spec.wantEnergy) {
        w.u32(static_cast<std::uint32_t>(work.hi - work.lo));
        for (int y = work.lo; y < work.hi; ++y)
            w.f64(work.problem.rowEnergy(work.labels, y));
    }
    return w.take();
}

std::vector<unsigned char>
buildGather(RankWork &work)
{
    util::ByteWriter w;
    w.u32(static_cast<std::uint32_t>(work.lo));
    w.u32(static_cast<std::uint32_t>(work.hi - work.lo));
    for (int y = work.lo; y < work.hi; ++y)
        for (int x = 0; x < work.problem.width(); ++x)
            w.i32(work.labels(x, y));
    w.u32(static_cast<std::uint32_t>(work.k1 - work.k0));
    std::vector<std::uint64_t> state;
    for (int k = work.k0; k < work.k1; ++k) {
        state.clear();
        work.clones[static_cast<std::size_t>(k)]->saveState(state);
        w.words(state);
    }
    return w.take();
}

// ------------------------------------------------------------------
// Worker rank

/**
 * The full life of a worker rank thread: run the sweep loop over its
 * tile, JOIN every sweep, GATHER when rank 0 needs the labels, and
 * fold its metrics into the process registry.
 */
void
runWorkerRank(const mrf::SolverConfig &config, const ShardSpec &spec,
              const TilePartition &part,
              const mrf::MrfProblem &problem, LoopbackMesh::Endpoint tr,
              img::LabelMap &labels,
              const std::vector<std::unique_ptr<mrf::LabelSampler>> &clones)
{
    RankWork work(config, problem, part, tr, labels, clones,
                  tr.rank());
    if (!work.empty()) {
        for (int s = spec.startSweep; s < config.annealing.sweeps;
             ++s) {
            const double temperature =
                config.annealing.temperature(s);
            for (int color = 0; color < 2; ++color)
                work.runPhase(s, color, temperature);
            work.foldShards();
            StripeCounters tot = work.engine.takeCounters();
            tr.send(0, tag::kJoin, buildJoin(work, spec, tot));
            if (gatherNeeded(spec, config, s))
                tr.send(0, tag::kGather, buildGather(work));
        }
    }
    work.engine.foldCacheStats(tr.rank() == firstNonEmptyRank(part));
}

} // namespace

// ------------------------------------------------------------------
// Coordinator (rank 0) + public entry points

img::LabelMap
ShardedCheckerboardSolver::run(const mrf::MrfProblem &problem,
                               mrf::LabelSampler &sampler,
                               img::LabelMap &labels,
                               mrf::SolverTrace *caller_trace) const
{
    if (options_.shards <= 1)
        return mrf::CheckerboardGibbsSolver(config_).run(
            problem, sampler, labels, caller_trace);

    const int m = problem.numLabels();
    const int height = problem.height();
    const int width = problem.width();
    // Sharded runs ALWAYS use the striped decomposition (the
    // single-stream serial schedule has no partition identity), so
    // snapshots and results interchange with striped runs.
    const int stripes = mrf::detail::effectiveStripes(config_, height);
    const TilePartition part(height, stripes, options_.shards);

    // Rank 0 owns everything stateful a caller can observe: init or
    // resume, the caller's sampler and label map, all S stripe clones
    // (made in ascending stripe order before the workers start, each
    // rank using only its own), trace, telemetry, sweep observers and
    // snapshots.
    mrf::detail::RunFrame frame("checkerboard", config_, problem,
                                sampler, labels, caller_trace, stripes);
    mrf::SolverTrace *trace = frame.trace;
    const std::vector<std::unique_ptr<mrf::LabelSampler>> &clones =
        frame.clones;

    ShardSpec spec;
    spec.startSweep = frame.startSweep;
    spec.wantEnergy = trace != nullptr;
    spec.wantStats = frame.telemetry.active();
    spec.gatherObserver = static_cast<bool>(config_.sweepObserver);

    const int N = options_.shards;

    // ---- start the worker ranks -----------------------------------
    LoopbackMesh mesh(N);
    LoopbackMesh::Endpoint tr = mesh.endpoint(0);
    RankWork work(config_, problem, part, tr, labels, clones, 0);
    std::vector<img::LabelMap> workerLabels(
        static_cast<std::size_t>(N - 1), labels);
    std::vector<std::thread> workerThreads;
    for (int r = 1; r < N; ++r)
        workerThreads.emplace_back([&, r] {
            runWorkerRank(config_, spec, part, problem,
                          mesh.endpoint(r),
                          workerLabels[static_cast<std::size_t>(r - 1)],
                          clones);
        });

    // ---- rank 0 ---------------------------------------------------
    // Latest per-stripe sampler states: remote stripes refreshed on
    // every GATHER sweep, local ones from the live clones just before
    // a snapshot.
    std::vector<std::vector<std::uint64_t>> stripeState(
        static_cast<std::size_t>(stripes));
    std::vector<double> rowEnergies(
        static_cast<std::size_t>(height), 0.0);
    // Cumulative cache stats over all ranks, rebuilt each sweep from
    // the JOIN frames (telemetry runs only); the telemetry record sees
    // one cache's totals as in a striped run.
    mrf::EnergyCacheStats aggCache;

    for (int s = frame.startSweep; s < config_.annealing.sweeps; ++s) {
        const double temperature = config_.annealing.temperature(s);
        for (int color = 0; color < 2; ++color)
            work.runPhase(s, color, temperature);

        // ---- sweep join ------------------------------------------
        StripeCounters tot = work.engine.takeCounters();
        if (spec.wantEnergy)
            for (int y = work.lo; y < work.hi; ++y)
                rowEnergies[static_cast<std::size_t>(y)] =
                    problem.rowEnergy(labels, y);
        mrf::SamplerStats cum = sampler.stats();
        cum += work.engine.samplerStats();
        const mrf::EnergyCacheStats *own = work.engine.cacheStats();
        aggCache.cleanHits = own ? own->cleanHits.load() : 0;
        aggCache.recomputed = own ? own->recomputed.load() : 0;
        aggCache.invalidations = own ? own->invalidations.load() : 0;
        for (int r = 1; r < N; ++r) {
            if (part.empty(r))
                continue;
            std::vector<unsigned char> payload =
                tr.recv(r, tag::kJoin);
            util::ByteReader rd(payload);
            tot.pixelUpdates += rd.u64();
            tot.labelChanges += rd.u64();
            if (spec.wantStats) {
                cum += mrf::SamplerStats{rd.u64(), rd.u64(), rd.u64()};
                aggCache.cleanHits += rd.u64();
                aggCache.recomputed += rd.u64();
                aggCache.invalidations += rd.u64();
            }
            if (spec.wantEnergy) {
                const int rows = static_cast<int>(rd.u32());
                RETSIM_ASSERT(rows == part.rowEnd(r) -
                                          part.rowBegin(r),
                              "shard: JOIN row count mismatch");
                for (int i = 0; i < rows; ++i)
                    rowEnergies[static_cast<std::size_t>(
                        part.rowBegin(r) + i)] = rd.f64();
            }
            RETSIM_ASSERT(rd.ok() && rd.atEnd(),
                          "shard: malformed JOIN from rank ", r);
        }
        // Reduced in row order, exactly like totalEnergy(): the
        // folded sum is bit-identical to the striped value.
        double energy = 0.0;
        if (trace) {
            trace->pixelUpdates += tot.pixelUpdates;
            trace->labelChanges += tot.labelChanges;
            for (double p : rowEnergies)
                energy += p;
        }
        work.foldShards();
        if (gatherNeeded(spec, config_, s)) {
            for (int r = 1; r < N; ++r) {
                if (part.empty(r))
                    continue;
                std::vector<unsigned char> payload =
                    tr.recv(r, tag::kGather);
                util::ByteReader rd(payload);
                const int glo = static_cast<int>(rd.u32());
                const int rows = static_cast<int>(rd.u32());
                RETSIM_ASSERT(glo == part.rowBegin(r) &&
                                  rows == part.rowEnd(r) - glo,
                              "shard: GATHER row range mismatch");
                for (int y = glo; y < glo + rows; ++y)
                    for (int x = 0; x < width; ++x)
                        labels(x, y) = rd.i32();
                const int nk = static_cast<int>(rd.u32());
                RETSIM_ASSERT(nk == part.stripeEnd(r) -
                                        part.stripeBegin(r),
                              "shard: GATHER stripe count mismatch");
                for (int j = 0; j < nk; ++j)
                    stripeState[static_cast<std::size_t>(
                        part.stripeBegin(r) + j)] = rd.words();
                RETSIM_ASSERT(rd.ok() && rd.atEnd(),
                              "shard: malformed GATHER from rank ",
                              r);
            }
        }
        frame.endSweep(s, temperature, energy, cum,
                       mrf::detail::usesEnergyCache(config_, m)
                           ? &aggCache
                           : nullptr);
        if (mrf::detail::shouldCheckpoint(config_, s + 1)) {
            for (int k = work.k0; k < work.k1; ++k) {
                std::vector<std::uint64_t> &state =
                    stripeState[static_cast<std::size_t>(k)];
                state.clear();
                clones[static_cast<std::size_t>(k)]->saveState(state);
            }
            frame.emitCheckpoint(s + 1, stripeState);
        }
    }

    work.engine.foldCacheStats(firstNonEmptyRank(part) == 0);

    for (std::thread &t : workerThreads)
        t.join();

    // Restore every remote stripe clone to its final worker-side
    // state (the final sweep always GATHERs) before the frame folds
    // all S clones into the caller's sampler in ascending stripe
    // order — the striped run's exact mergeStats sequence.  A resume
    // from an already-complete snapshot runs zero sweeps, so no
    // GATHER fired; the clones keep the state restored from the
    // snapshot, exactly as the striped solver's do.
    if (frame.startSweep < config_.annealing.sweeps) {
        for (int k = 0; k < stripes; ++k) {
            if (k >= work.k0 && k < work.k1)
                continue;
            if (!clones[static_cast<std::size_t>(k)]->loadState(
                    stripeState[static_cast<std::size_t>(k)]))
                RETSIM_FATAL("shard: stripe ", k,
                             " final sampler state does not fit");
        }
    }
    frame.finish();
    return labels;
}

img::LabelMap
ShardedCheckerboardSolver::run(const mrf::MrfProblem &problem,
                               mrf::LabelSampler &sampler,
                               mrf::SolverTrace *trace) const
{
    img::LabelMap labels(problem.width(), problem.height(), 0);
    return run(problem, sampler, labels, trace);
}

mrf::SolverBackend
makeShardBackend(const ShardOptions &options)
{
    return [options](const mrf::SolverConfig &config,
                     const mrf::MrfProblem &problem,
                     mrf::LabelSampler &sampler,
                     img::LabelMap &labels,
                     mrf::SolverTrace *trace) {
        return ShardedCheckerboardSolver(config, options)
            .run(problem, sampler, labels, trace);
    };
}

} // namespace shard
} // namespace retsim
