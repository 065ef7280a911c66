/**
 * @file
 * Gibbs-sampling MCMC solver with simulated annealing.
 *
 * Implements the outer loops of Fig. 1: sweep the grid pixel by pixel,
 * compute the conditional energies of every label, and sample a new
 * label from exp(-E/T).  Temperature follows a geometric annealing
 * schedule (Sec. III-A, Barnard-style SA for stereo).  The solver is
 * deterministic given (problem, sampler, seed).
 */

#ifndef RETSIM_MRF_GIBBS_HH
#define RETSIM_MRF_GIBBS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "img/image.hh"
#include "mrf/problem.hh"
#include "mrf/sampler.hh"

namespace retsim {
namespace mrf {

struct SolverCheckpoint;
struct SolverConfig;
struct SolverTrace;
class LabelSampler;

/**
 * Pluggable solver entry point: runs a full anneal of @p problem into
 * @p labels and returns the final labeling.  When a SolverConfig
 * carries a non-empty backend, mrf::runSolver() routes the solve
 * through it instead of the default raster GibbsSolver — the hook the
 * shard layer uses to swap in the sharded checkerboard solver without
 * the apps (or mrf itself) linking against it.
 */
using SolverBackend = std::function<img::LabelMap(
    const SolverConfig &config, const MrfProblem &problem,
    LabelSampler &sampler, img::LabelMap &labels, SolverTrace *trace)>;

/** Geometric annealing: T(s) = t0 * ratio^s, floored at tEnd. */
struct AnnealingSchedule
{
    double t0 = 48.0;
    double tEnd = 0.6;
    int sweeps = 300;

    /** Temperature used during 0-based sweep @p s. */
    double temperature(int s) const;
};

struct SolverConfig
{
    AnnealingSchedule annealing{};
    std::uint64_t seed = 1;
    /** Initialize labels uniformly at random; else keep as passed. */
    bool randomInit = true;
    /**
     * Visit pixels in a fresh random permutation each sweep instead
     * of raster order.  Random-scan Gibbs mixes slightly better on
     * strongly coupled fields and removes the raster direction bias;
     * the hardware pipeline streams raster order, so this is a
     * software-side option.
     */
    bool randomScan = false;
    /**
     * Worker-thread count for solvers with a chromatic schedule
     * (CheckerboardGibbsSolver).  1 = the serial reference path, 0 =
     * one thread per hardware core, N > 1 = exactly N concurrent
     * executors.  Sharded runs (shard::ShardedCheckerboardSolver)
     * apply it per rank, capped at the rank's stripe count.  The
     * raster/random-scan GibbsSolver is sequentially dependent pixel
     * to pixel and ignores this knob (it must still be >= 0).
     */
    int threads = 1;
    /**
     * Row-stripe count of the chromatic decomposition; each stripe
     * draws from its own RNG stream derived from (seed, sweep, color,
     * stripe), so the result is a function of (seed, stripes) only —
     * never of the thread count or OS scheduling.  0 = serial legacy
     * behavior when threads <= 1, otherwise an automatic
     * problem-dependent stripe count (min(height, 16)).
     */
    int stripes = 0;
    /**
     * Flip-aware incremental energy-plane cache: keep every pixel's
     * conditional-energy plane across sweeps and recompute only
     * pixels whose neighborhood changed (a label write dirties itself
     * and its 4/8 neighbors at write time).  Results are byte-
     * identical to the uncached path — energies are deterministic,
     * recomputation is bit-exact and the RNG draw order is untouched
     * — so this is purely a throughput knob; it pays off whenever the
     * per-sweep flip rate is below ~100%, i.e. on every annealing
     * run past the first few sweeps.  The cache is per-run state
     * (reset all-dirty at run start, never checkpointed), so resume
     * replay is unaffected.
     */
    bool energyCache = true;
    /**
     * Called after every completed sweep with the sweep index, its
     * temperature and the labeling at that point — the hook the apps
     * use to stream per-outer-iteration quality metrics into the
     * telemetry recorder.  Read-only observation: the labeling, RNG
     * streams and solver result are exactly those of an unobserved
     * run.  Empty (the default) costs one branch per sweep.
     */
    std::function<void(int sweep, double temperature,
                       const img::LabelMap &labels)>
        sweepObserver;
    /**
     * Crash-safe checkpointing: when > 0, the solver captures its
     * complete state (labels, RNG streams, sampler counters and
     * entropy positions, annealing position, trace) after every
     * checkpointEvery-th sweep — and always after the final sweep —
     * and hands it to checkpointSink, or writes it atomically to
     * checkpointPath when no sink is set.  A run killed between
     * checkpoints loses at most checkpointEvery - 1 sweeps; resuming
     * from the snapshot replays the remaining sweeps bit-exactly
     * (byte-identical labels and final RNG/sampler state versus the
     * uninterrupted run).  0 disables checkpointing entirely.
     */
    int checkpointEvery = 0;
    /**
     * Snapshot destination for the default sink: written via temp
     * file + atomic rename, so a crash mid-write preserves the
     * previous snapshot.  Required when checkpointEvery > 0 unless a
     * checkpointSink is installed.
     */
    std::string checkpointPath;
    /**
     * Checkpoint hook alongside sweepObserver: receives every
     * captured snapshot instead of the default file writer.  The
     * snapshot is self-contained (the solver's buffers are copied),
     * so the sink may keep it beyond the call.
     */
    std::function<void(const SolverCheckpoint &checkpoint)>
        checkpointSink;
    /**
     * Resume a previous run from this snapshot (see
     * SolverCheckpoint::readFile).  The snapshot must match this
     * configuration — solver kind, seed, annealing schedule, problem
     * dimensions, label count, stripe decomposition, sampler — or the
     * solver exits with a diagnostic naming the mismatch.  When set,
     * randomInit is skipped, the label field / RNG streams / sampler
     * state / trace are restored, and sweeps continue from where the
     * snapshot was taken.  A caller-passed trace is overwritten with
     * the restored trace.
     */
    std::shared_ptr<const SolverCheckpoint> resume;
    /**
     * Optional replacement solver (see SolverBackend above).  Empty =
     * the caller's solver choice runs unchanged.  mrf::runSolver()
     * clears this field on the config it forwards, so a backend can
     * itself call runSolver without recursing.
     */
    SolverBackend solverBackend;
};

struct SolverTrace
{
    std::vector<double> energyPerSweep;   ///< total energy after sweep
    std::vector<double> temperaturePerSweep;
    std::uint64_t labelChanges = 0;       ///< accepted label flips
    std::uint64_t pixelUpdates = 0;       ///< total sample() calls
};

class GibbsSolver
{
  public:
    explicit GibbsSolver(SolverConfig config) : config_(config) {}

    /**
     * Anneal @p labels toward a low-energy labeling of @p problem
     * using @p sampler for every probabilistic choice.
     *
     * @param trace Optional per-sweep statistics sink.
     * @return The final labeling (also left in @p labels).
     */
    img::LabelMap run(const MrfProblem &problem, LabelSampler &sampler,
                      img::LabelMap &labels,
                      SolverTrace *trace = nullptr) const;

    /** Convenience: allocate and initialize the label map internally. */
    img::LabelMap run(const MrfProblem &problem, LabelSampler &sampler,
                      SolverTrace *trace = nullptr) const;

    const SolverConfig &config() const { return config_; }

  private:
    SolverConfig config_;
};

/**
 * Run a solve through config.solverBackend when one is installed,
 * else through the default raster GibbsSolver.  Applications call
 * this instead of constructing a GibbsSolver directly so that CLI
 * layers (shard/shard_cli.hh) can reroute the whole solve without the
 * app knowing about the backend.
 */
img::LabelMap runSolver(const SolverConfig &config,
                        const MrfProblem &problem, LabelSampler &sampler,
                        img::LabelMap &labels,
                        SolverTrace *trace = nullptr);

/** Convenience overload: allocate and initialize the label map. */
img::LabelMap runSolver(const SolverConfig &config,
                        const MrfProblem &problem, LabelSampler &sampler,
                        SolverTrace *trace = nullptr);

} // namespace mrf
} // namespace retsim

#endif // RETSIM_MRF_GIBBS_HH
