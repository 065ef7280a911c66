/**
 * @file
 * Differential validator for the sharded checkerboard solver (the CI
 * shard-equivalence leg).
 *
 * For each of the four quality-gate miniature problems (stereo,
 * denoising, motion, segmentation — same scenes, seeds and schedules
 * as tools/quality_gate) it runs the serial striped
 * CheckerboardGibbsSolver as the reference and then the
 * ShardedCheckerboardSolver at {2, 4} shards, and requires
 * BYTE-IDENTICAL results across all of them:
 *
 *   - the final label field,
 *   - the full SolverTrace (FP energy series, temperatures, counters),
 *   - the final SOLVERCP snapshot payload (labels + RNG streams +
 *     caller/stripe sampler states + trace),
 *   - the caller sampler's stats() after the run and the run's delta
 *     of every mrf.* registry counter.
 *
 * Each sharded run also keeps its first snapshot at or past
 * mid-anneal.  A fresh sharded run at the other shard count resumes
 * from that snapshot, and its labels, trace and final snapshot must
 * match the uninterrupted serial reference byte for byte too; its
 * counter deltas, which cover only the resumed sweeps, must match a
 * serial run resumed from the same snapshot.  Exit 0 only if every
 * comparison holds; a counter mismatch names the first counter that
 * differs.
 *
 * --threads=N (shard/shard_cli.hh) applies to every SHARDED run while
 * the serial reference stays the 1-thread striped solver, so a
 * `--threads=2` invocation proves the threaded ranks byte-identical
 * to the very same serial goldens.
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/denoising.hh"
#include "apps/motion.hh"
#include "apps/segmentation.hh"
#include "apps/stereo.hh"
#include "core/rsu_config.hh"
#include "core/sampler_rsu.hh"
#include "img/synthetic.hh"
#include "mrf/checkerboard.hh"
#include "mrf/checkpoint.hh"
#include "obs/metrics.hh"
#include "shard/shard_cli.hh"
#include "shard/sharded_solver.hh"
#include "util/cli.hh"
#include "util/logging.hh"

namespace {

using namespace retsim;

/** --threads=, applied to sharded runs only (-1 = absent). */
int g_threads = -1;

core::RsuSampler
makeSampler()
{
    return core::RsuSampler(core::RsuConfig::newDesign());
}

/** Everything the equivalence contract covers, from one run. */
struct RunResult
{
    img::LabelMap labels;
    mrf::SolverTrace trace;
    std::vector<unsigned char> snapshot; ///< final SOLVERCP payload
    /** Caller sampler's stats() after the run, then the run's delta
     *  of every mrf.* registry counter, by name. */
    std::map<std::string, std::uint64_t> counters;
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

/** Record @p sampler's stats and the mrf.* deltas since @p before. */
void
takeCounters(RunResult &r, const mrf::LabelSampler &sampler,
             const std::map<std::string, std::uint64_t> &before)
{
    const mrf::SamplerStats st = sampler.stats();
    r.counters["sampler.samples"] = st.samples;
    r.counters["sampler.no_sample"] = st.noSample;
    r.counters["sampler.ties"] = st.ties;
    for (const auto &[name, value] : mrfCounters()) {
        const auto it = before.find(name);
        r.counters[name] = value - (it == before.end() ? 0 : it->second);
    }
}

/** Miniature problem + the solver schedule the gate runs it under. */
struct Miniature
{
    std::string name;
    mrf::MrfProblem problem;
    mrf::SolverConfig config;
};

std::vector<Miniature>
buildMiniatures()
{
    std::vector<Miniature> minis;
    {
        img::StereoSceneSpec spec;
        spec.name = "gate";
        spec.width = 64;
        spec.height = 48;
        spec.numLabels = 12;
        spec.numObjects = 4;
        auto scene = img::makeStereoScene(spec, 5);
        minis.push_back({"stereo", apps::buildStereoProblem(scene),
                         apps::defaultStereoSolver(60, 9)});
    }
    {
        img::ImageU8 clean(56, 48);
        for (int y = 0; y < clean.height(); ++y)
            for (int x = 0; x < clean.width(); ++x)
                clean(x, y) = static_cast<std::uint8_t>(
                    x < 19 ? 40 : (x < 38 ? 150 : 210));
        auto noisy = apps::addGaussianNoise(clean, 20.0, 7);
        apps::DenoisingParams params;
        params.levels = 16;
        minis.push_back({"denoising",
                         apps::buildDenoisingProblem(noisy, params),
                         apps::defaultDenoisingSolver(30, 11)});
    }
    {
        img::MotionSceneSpec spec;
        spec.name = "gate";
        spec.width = 48;
        spec.height = 40;
        spec.windowRadius = 2;
        spec.numObjects = 3;
        auto scene = img::makeMotionScene(spec, 17);
        minis.push_back({"motion", apps::buildMotionProblem(scene),
                         apps::defaultMotionSolver(40, 13)});
    }
    {
        img::SegmentationSceneSpec spec;
        spec.name = "gate";
        spec.width = 48;
        spec.height = 48;
        spec.numSegments = 4;
        spec.numRegions = 10;
        auto scene = img::makeSegmentationScene(spec, 23);
        minis.push_back({"segmentation",
                         apps::buildSegmentationProblem(scene),
                         apps::defaultSegmentationSolver(30, 19)});
    }
    for (Miniature &m : minis) {
        // Sharded runs always use the striped decomposition; pin an
        // explicit stripe count so the serial reference takes the
        // identical (seed, stripes) schedule.
        m.config.stripes = 8;
        // Checkpoint through a sink so every run yields its final
        // SOLVERCP payload for the byte comparison (the final sweep
        // always snapshots).
        m.config.checkpointEvery = 5;
    }
    return minis;
}

/** Serial striped solve of @p m, from @p resume when set. */
RunResult
runSerial(const Miniature &m,
          std::shared_ptr<const mrf::SolverCheckpoint> resume = nullptr)
{
    RunResult r;
    mrf::SolverConfig cfg = m.config;
    cfg.resume = std::move(resume);
    cfg.checkpointSink = [&r](const mrf::SolverCheckpoint &cp) {
        r.snapshot = cp.serialize();
    };
    auto sampler = makeSampler();
    const auto before = mrfCounters();
    r.labels =
        mrf::CheckerboardGibbsSolver(cfg).run(m.problem, sampler,
                                              &r.trace);
    takeCounters(r, sampler, before);
    return r;
}

/**
 * Sharded solve of @p m at @p shards ranks.  With @p midpoint set, the
 * run also keeps its first snapshot at or past mid-anneal there; with
 * @p resume set, it starts from that snapshot instead of sweep 0.
 */
RunResult
runSharded(const Miniature &m, int shards,
           std::shared_ptr<const mrf::SolverCheckpoint> resume = nullptr,
           std::shared_ptr<mrf::SolverCheckpoint> *midpoint = nullptr)
{
    RunResult r;
    mrf::SolverConfig cfg = m.config;
    shard::applyThreads(g_threads, &cfg);
    cfg.resume = std::move(resume);
    const int mid = m.config.annealing.sweeps / 2;
    cfg.checkpointSink = [&r, midpoint,
                          mid](const mrf::SolverCheckpoint &cp) {
        r.snapshot = cp.serialize();
        if (midpoint && !*midpoint && cp.sweepsDone >= mid &&
            cp.sweepsDone < cp.sweepsTotal) {
            // Round-trip through the serialized form, as a resume
            // from disk would.
            auto copy = std::make_shared<mrf::SolverCheckpoint>();
            std::string error;
            if (!mrf::SolverCheckpoint::deserialize(r.snapshot,
                                                    copy.get(), &error))
                RETSIM_FATAL("shard_check: snapshot unreadable: ",
                             error);
            *midpoint = std::move(copy);
        }
    };
    shard::ShardOptions options;
    options.shards = shards;
    auto sampler = makeSampler();
    const auto before = mrfCounters();
    r.labels = shard::ShardedCheckerboardSolver(cfg, options)
                   .run(m.problem, sampler, &r.trace);
    takeCounters(r, sampler, before);
    return r;
}

bool
sameTrace(const mrf::SolverTrace &a, const mrf::SolverTrace &b)
{
    return a.energyPerSweep == b.energyPerSweep &&
           a.temperaturePerSweep == b.temperaturePerSweep &&
           a.labelChanges == b.labelChanges &&
           a.pixelUpdates == b.pixelUpdates;
}

int g_failures = 0;

/** Name of the first counter that differs, or "" when all agree. */
std::string
firstCounterMismatch(const RunResult &ref, const RunResult &got)
{
    for (const auto &[name, value] : ref.counters) {
        const auto it = got.counters.find(name);
        if (it == got.counters.end() || it->second != value)
            return name;
    }
    for (const auto &[name, value] : got.counters)
        if (!ref.counters.count(name))
            return name;
    return "";
}

/** @p counterRef, when set, replaces @p ref for the counter check. */
void
compareRuns(const std::string &what, const RunResult &ref,
            const RunResult &got, const RunResult *counterRef = nullptr)
{
    bool ok = true;
    if (got.labels.data() != ref.labels.data()) {
        std::fprintf(stderr, "FAIL %s: labels differ\n", what.c_str());
        ok = false;
    }
    if (!sameTrace(got.trace, ref.trace)) {
        std::fprintf(stderr, "FAIL %s: trace differs\n", what.c_str());
        ok = false;
    }
    if (got.snapshot != ref.snapshot) {
        std::fprintf(stderr, "FAIL %s: final snapshot differs\n",
                     what.c_str());
        ok = false;
    }
    const RunResult &cref = counterRef ? *counterRef : ref;
    const std::string bad = firstCounterMismatch(cref, got);
    if (!bad.empty()) {
        const auto r = cref.counters.find(bad);
        const auto g = got.counters.find(bad);
        std::fprintf(stderr,
                     "FAIL %s: counter %s differs (reference %" PRIu64
                     ", got %" PRIu64 ")\n",
                     what.c_str(), bad.c_str(),
                     r == cref.counters.end() ? 0 : r->second,
                     g == got.counters.end() ? 0 : g->second);
        ok = false;
    }
    if (ok)
        std::printf("ok   %s\n", what.c_str());
    else
        ++g_failures;
}

} // namespace

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    g_threads = shard::threadsFromCli(args);
    if (g_threads >= 0)
        std::printf("shard_check: sharded runs use threads=%d\n",
                    g_threads);

    for (const Miniature &m : buildMiniatures()) {
        RunResult ref = runSerial(m);
        std::printf("ref  %s: %d sweeps, stripes=%d\n",
                    m.name.c_str(), m.config.annealing.sweeps,
                    m.config.stripes);
        for (int shards : {2, 4}) {
            std::shared_ptr<mrf::SolverCheckpoint> midpoint;
            compareRuns(m.name + " shards=" + std::to_string(shards),
                        ref, runSharded(m, shards, nullptr, &midpoint));
            RETSIM_ASSERT(midpoint, "shard_check: ", m.name,
                          " emitted no mid-anneal snapshot");
            const int resumeShards = shards == 2 ? 4 : 2;
            const int done = midpoint->sweepsDone;
            const RunResult serialResumed = runSerial(m, midpoint);
            compareRuns(m.name + " shards=" + std::to_string(shards) +
                            " snapshot@" + std::to_string(done) +
                            " resumed at shards=" +
                            std::to_string(resumeShards),
                        ref,
                        runSharded(m, resumeShards, std::move(midpoint)),
                        &serialResumed);
        }
    }

    if (g_failures > 0) {
        std::fprintf(stderr, "shard_check: %d comparison(s) FAILED\n",
                     g_failures);
        return 1;
    }
    std::printf("shard_check: all sharded runs byte-identical to "
                "serial, counters included\n");
    return 0;
}
