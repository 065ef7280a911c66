/**
 * @file
 * Shared --shards / --threads wiring for the example binaries and
 * tools, so every runner exposes the same sharded-run interface
 * (header-only like core/race_cli.hh — the caller already links util):
 *
 *   --shards=N    split the lattice across N shard ranks (rank
 *                 threads exchanging ghost rows in memory; default
 *                 1 = the single-process solver)
 *   --threads=N   worker threads for the chromatic stripe dispatch,
 *                 per rank when sharded (0 = one per hardware core;
 *                 default 1)
 *
 * shardOptionsFromCli() parses --shards; applyShardBackend() installs
 * a makeShardBackend() on the SolverConfig when shards > 1, so any app
 * that solves through mrf::runSolver() gains sharding without knowing
 * this layer exists.  Sharding implies the chromatic checkerboard
 * schedule — apps defaulting to the raster GibbsSolver produce their
 * serial results only at --shards=1.  The thread count is
 * schedule-only: every {shards} x {threads} combination yields the
 * byte-identical labels, trace and final snapshot.
 */

#ifndef RETSIM_SHARD_SHARD_CLI_HH
#define RETSIM_SHARD_SHARD_CLI_HH

#include <limits>

#include "shard/sharded_solver.hh"
#include "util/cli.hh"
#include "util/logging.hh"

namespace retsim {
namespace shard {

/** --@p flag as an int in [@p lo, INT_MAX]; anything outside is fatal
 *  and names the flag and the value, so a huge count can never wrap
 *  into a small valid one on the narrowing. */
inline int
intFlagFromCli(const util::CliArgs &args, const char *flag, long def,
               int lo, const char *meaning)
{
    const long v = args.getInt(flag, def);
    if (v < lo || v > std::numeric_limits<int>::max())
        RETSIM_FATAL("--", flag, "=", v, " is out of range: ", meaning);
    return static_cast<int>(v);
}

inline ShardOptions
shardOptionsFromCli(const util::CliArgs &args)
{
    ShardOptions options;
    options.shards = intFlagFromCli(args, "shards", 1, 1,
                                    "expected a positive shard count");
    return options;
}

/** --threads=N, or -1 when the flag is absent (leave the app's
 *  default untouched). */
inline int
threadsFromCli(const util::CliArgs &args)
{
    if (!args.has("threads"))
        return -1;
    return intFlagFromCli(args, "threads", 1, 0,
                          "expected >= 0 (0 = one per core)");
}

inline void
applyThreads(int threads, mrf::SolverConfig *config)
{
    if (threads >= 0)
        config->threads = threads;
}

/** Route the config's solves through the sharded solver when the
 *  options ask for more than one shard. */
inline void
applyShardBackend(const ShardOptions &options,
                  mrf::SolverConfig *config)
{
    if (options.shards > 1)
        config->solverBackend = makeShardBackend(options);
}

/** Parse-and-install in one step; returns the parsed options so the
 *  caller can record the shard count in its own output. */
inline ShardOptions
shardFromCli(const util::CliArgs &args, mrf::SolverConfig *config)
{
    applyThreads(threadsFromCli(args), config);
    ShardOptions options = shardOptionsFromCli(args);
    applyShardBackend(options, config);
    return options;
}

} // namespace shard
} // namespace retsim

#endif // RETSIM_SHARD_SHARD_CLI_HH
