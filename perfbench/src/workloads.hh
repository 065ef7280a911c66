/**
 * @file
 * The benchmark's closed-loop workloads.
 *
 * Each workload drives retsim only through its public entry points
 * (apps::run*, mrf::runSolver, mrf::CheckerboardGibbsSolver::run,
 * shard::ShardedCheckerboardSolver::run, hw::CostModel) and leaves
 * every solver option at its default except the ones that define the
 * workload (checkpoint settings, race mode, threads, shards).  One
 * operation is one complete solve; a solve fails when an output
 * check fails.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mrf/sampler.hh"
#include "trace.hh"

namespace perfbench {

/** What one solve produced. */
struct SolveRecord
{
    std::string key;          ///< same key = same inputs = same output
    double seconds = 0.0;     ///< wall time of the whole solve
    double labelEvals = 0.0;  ///< pixels x sweeps x labels
    std::uint64_t digest = 0; ///< output labels + per-sweep energies
    double quality = 0.0;     ///< the app's quality metric, when it has one
    std::string failure;      ///< empty when every output check passed
};

/** Per-layer figures of the traced solves, summed over them. */
struct LayerTotals
{
    std::uint64_t solves = 0;
    double workerSolveSeconds = 0.0; ///< executors x mrf.solve wall
    double rankSolveSeconds = 0.0;   ///< shard ranks x mrf.solve wall
    double sweepHeadMs = 0.0;        ///< per-solve means, summed
    double sweepTailMs = 0.0;
    std::uint64_t pixelUpdates = 0;
    std::uint64_t labelChanges = 0;
    retsim::mrf::SamplerStats stats;
    std::uint64_t samplerBusyNs = 0;
    std::uint64_t samplerCalls = 0;
    std::uint64_t samplerLabelEvals = 0;
    std::uint64_t cloneNs = 0;
    std::uint64_t clones = 0;
    std::uint64_t checkpointEmits = 0;
    std::uint64_t checkpointBytes = 0;
};

/** Present only while the traced phase runs. */
struct Tracer
{
    SpanRecorder spans;
    std::mutex mutex;
    LayerTotals totals; ///< guarded by mutex
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Builds every input and warms the process: scene synthesis,
     * sampler construction, reference solves and a warm-up solve.
     * main() times it once in its own process and once in each of a
     * few forked children.  Returns a failure message, or "" when
     * its checks pass.
     */
    virtual std::string setup() = 0;

    /** Runs solve @p index, traced when @p tracer is set. */
    virtual SolveRecord solve(std::size_t index, Tracer *tracer) = 0;

    /** Solves in flight at once (one closed loop per executor). */
    virtual int executors() const { return 1; }

    /** Solves in one fixed cycle of inputs, or 0 when every solve is
     *  its own; such workloads only stop at the end of a cycle. */
    virtual std::size_t passLength() const { return 0; }
};

/** The workload called @p name, or null when there is none. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

/** Seconds spent constructing RsuSamplers so far, and how many. */
double samplerConstructSeconds();
std::uint64_t samplerConstructs();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
