/**
 * @file
 * Quality-regression gate over the four vision applications.
 *
 * Runs miniature, pinned-seed configurations of stereo, denoising,
 * motion and segmentation through the new-design RSU sampler and
 * compares each app's quality metric against the checked-in baselines
 * (tests/golden/quality_baselines.json).  Every baseline entry states
 * an explicit tolerance and which direction is better, so the gate
 * fails (exit 1) only on a genuine regression beyond tolerance —
 * improvements just print.  `--update-baselines` rewrites the file
 * from the current run; `--telemetry-out=<path>` additionally dumps
 * the full run telemetry for CI artifacts.
 *
 * Everything here is deterministic per (seed, binary): the solvers
 * consume only their own RNG streams.  The tolerances exist to absorb
 * cross-toolchain libm differences, not run-to-run noise.
 *
 * Checkpoint/resume drill (the CI resume-equivalence leg):
 *
 *   --checkpoint-dir=D     each app snapshots to D/<app>.ckpt
 *   --checkpoint-every=N   snapshot cadence in sweeps (default 5)
 *   --resume               restore any app whose snapshot exists
 *   --die-at-sweep=K       simulated crash: exit 17 right after the
 *                          first snapshot at or past sweep K (only in
 *                          runs that started before K)
 *   --values-out=P         dump the observed metric values as JSON
 *
 * Sharded runs (--shards=N) additionally honor the schedule knob
 * --threads= (shard/shard_cli.hh); the CI leg proves the values file
 * stays byte-identical across every combination.
 *
 * Looping "run until exit 0" with --resume and --die-at-sweep kills
 * and resumes each app in turn; because resume is bit-exact, the
 * final --values-out file is byte-identical to an uninterrupted run's.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/denoising.hh"
#include "apps/motion.hh"
#include "apps/segmentation.hh"
#include "apps/stereo.hh"
#include "core/race_cli.hh"
#include "core/rsu_config.hh"
#include "core/sampler_rsu.hh"
#include "img/synthetic.hh"
#include "mrf/checkpoint.hh"
#include "obs/telemetry_cli.hh"
#include "shard/shard_cli.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace {

using namespace retsim;

/** One gated quantity: where better lies and how much slack. */
struct MetricDef
{
    const char *name;
    const char *better; ///< "lower" or "higher"
    double tolerance;   ///< absolute slack beyond the baseline
};

/**
 * The gated metrics.  Tolerances absorb discrete label flips from
 * libm differences on the miniature scenes; they are far tighter than
 * any real quality regression (e.g. a sampler bug typically moves
 * stereo BP by tens of points).
 */
constexpr MetricDef kMetrics[] = {
    {"stereo.bad_pixel_percent", "lower", 6.0},
    {"stereo.rms_error", "lower", 1.0},
    {"denoising.psnr_restored_db", "higher", 1.5},
    {"motion.end_point_error", "lower", 0.35},
    {"segmentation.voi", "lower", 0.30},
    {"segmentation.pri", "higher", 0.05},
};

/** `--race-mode=` selection; the gated metrics must stay within the
 *  pinned tolerances in every mode (the fast path draws a different
 *  but identically distributed stream — the CI race-equivalence leg
 *  runs the gate under fastpath against the same baselines). */
core::RaceMode g_race_mode = core::RaceMode::Race;

/** `--shards=`: when shards > 1 every app solves through the sharded
 *  checkerboard solver.  Sharding implies the chromatic schedule, so
 *  the pinned raster baselines do not apply — sharded runs skip the
 *  baseline comparison and are validated by comparing --values-out
 *  files across runs instead (the CI shard-equivalence leg). */
shard::ShardOptions g_shard_options;

/** `--threads=` (-1 = absent): schedule-only solver knob applied to
 *  every app config; results are byte-identical for any setting, so
 *  the gated metrics must not move. */
int g_threads = -1;

core::RsuSampler
makeSampler()
{
    core::RsuConfig cfg = core::RsuConfig::newDesign();
    cfg.raceMode = g_race_mode;
    return core::RsuSampler(cfg);
}

/** Crash-drill options for the CI resume-equivalence leg. */
struct CheckpointDrill
{
    std::string dir;    ///< empty = checkpointing disabled
    int every = 5;      ///< snapshot cadence in sweeps
    bool resume = false;
    int dieAtSweep = -1; ///< exit 17 after this sweep's snapshot
};

/**
 * Arm one app's solver config for the drill: snapshot to
 * <dir>/<app>.ckpt, restore from it when resuming, and simulate a
 * crash (exit 17) right after the first snapshot at or past
 * dieAtSweep — but only in runs that started before that sweep, so a
 * resumed run continues to completion instead of dying again.
 */
void
armCheckpointing(mrf::SolverConfig &cfg, const CheckpointDrill &drill,
                 const std::string &app)
{
    shard::applyThreads(g_threads, &cfg);
    shard::applyShardBackend(g_shard_options, &cfg);
    if (drill.dir.empty())
        return;
    const std::string path = drill.dir + "/" + app + ".ckpt";
    cfg.checkpointEvery = drill.every;
    cfg.checkpointPath = path;
    if (drill.resume) {
        std::ifstream probe(path, std::ios::binary);
        if (probe) {
            probe.close();
            auto cp = std::make_shared<mrf::SolverCheckpoint>();
            std::string error;
            if (!mrf::SolverCheckpoint::readFile(path, cp.get(),
                                                 &error))
                RETSIM_FATAL(error);
            cfg.resume = std::move(cp);
        }
    }
    if (drill.dieAtSweep > 0) {
        const int die = drill.dieAtSweep;
        const int started_at =
            cfg.resume ? cfg.resume->sweepsDone : 0;
        cfg.checkpointSink = [path, app, die, started_at](
                                 const mrf::SolverCheckpoint &cp) {
            std::string error;
            if (!cp.writeFile(path, &error))
                RETSIM_FATAL("checkpoint write failed: ", error);
            if (cp.sweepsDone >= die && started_at < die &&
                cp.sweepsDone < cp.sweepsTotal) {
                std::fprintf(stderr,
                             "quality_gate: simulated crash in %s "
                             "after sweep %d (snapshot %s)\n",
                             app.c_str(), cp.sweepsDone,
                             path.c_str());
                // The sink runs on the solver's thread, and a sharded
                // solve still has live rank threads: std::exit would
                // run static destructors under them.  The snapshot is
                // already on disk, so flush stdio and leave at once.
                std::fflush(nullptr);
                std::_Exit(17);
            }
        };
    }
}

/** Pinned miniature configs; one map entry per gated metric. */
std::map<std::string, double>
runMiniatureApps(const CheckpointDrill &drill)
{
    std::map<std::string, double> values;

    {
        img::StereoSceneSpec spec;
        spec.name = "gate";
        spec.width = 64;
        spec.height = 48;
        spec.numLabels = 12;
        spec.numObjects = 4;
        auto scene = img::makeStereoScene(spec, 5);
        auto sampler = makeSampler();
        auto cfg = apps::defaultStereoSolver(60, 9);
        armCheckpointing(cfg, drill, "stereo");
        auto result = apps::runStereo(scene, sampler, cfg);
        values["stereo.bad_pixel_percent"] = result.badPixelPercent;
        values["stereo.rms_error"] = result.rmsError;
        std::printf("stereo        BP %.2f%%  RMS %.3f\n",
                    result.badPixelPercent, result.rmsError);
    }

    {
        // Piecewise-constant texture card, the denoising test idiom.
        img::ImageU8 clean(56, 48);
        for (int y = 0; y < clean.height(); ++y)
            for (int x = 0; x < clean.width(); ++x)
                clean(x, y) = static_cast<std::uint8_t>(
                    x < 19 ? 40 : (x < 38 ? 150 : 210));
        auto noisy = apps::addGaussianNoise(clean, 20.0, 7);
        auto sampler = makeSampler();
        apps::DenoisingParams params;
        params.levels = 16;
        auto cfg = apps::defaultDenoisingSolver(30, 11);
        armCheckpointing(cfg, drill, "denoising");
        auto result =
            apps::runDenoising(clean, noisy, sampler, cfg, params);
        values["denoising.psnr_restored_db"] = result.psnrRestored;
        std::printf("denoising     PSNR %.2f dB (noisy %.2f dB)\n",
                    result.psnrRestored, result.psnrNoisy);
    }

    {
        img::MotionSceneSpec spec;
        spec.name = "gate";
        spec.width = 48;
        spec.height = 40;
        spec.windowRadius = 2;
        spec.numObjects = 3;
        auto scene = img::makeMotionScene(spec, 17);
        auto sampler = makeSampler();
        auto cfg = apps::defaultMotionSolver(40, 13);
        armCheckpointing(cfg, drill, "motion");
        auto result = apps::runMotion(scene, sampler, cfg);
        values["motion.end_point_error"] = result.endPointError;
        std::printf("motion        EPE %.4f px\n",
                    result.endPointError);
    }

    {
        img::SegmentationSceneSpec spec;
        spec.name = "gate";
        spec.width = 48;
        spec.height = 48;
        spec.numSegments = 4;
        spec.numRegions = 10;
        auto scene = img::makeSegmentationScene(spec, 23);
        auto sampler = makeSampler();
        auto cfg = apps::defaultSegmentationSolver(30, 19);
        armCheckpointing(cfg, drill, "segmentation");
        auto result = apps::runSegmentation(scene, sampler, cfg);
        values["segmentation.voi"] = result.voi;
        values["segmentation.pri"] = result.pri;
        std::printf("segmentation  VoI %.4f  PRI %.4f\n", result.voi,
                    result.pri);
    }

    return values;
}

util::JsonValue
baselinesToJson(const std::map<std::string, double> &values)
{
    util::JsonValue metrics = util::JsonValue::object();
    for (const MetricDef &def : kMetrics) {
        auto it = values.find(def.name);
        if (it == values.end())
            continue;
        util::JsonValue entry = util::JsonValue::object();
        entry.set("value", util::JsonValue(it->second));
        entry.set("tolerance", util::JsonValue(def.tolerance));
        entry.set("better", util::JsonValue(std::string(def.better)));
        metrics.set(def.name, std::move(entry));
    }
    util::JsonValue root = util::JsonValue::object();
    root.set("metrics", std::move(metrics));
    return root;
}

int
updateBaselines(const std::string &path,
                const std::map<std::string, double> &values)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "quality_gate: cannot write %s\n",
                     path.c_str());
        return 2;
    }
    out << baselinesToJson(values).dump(2);
    std::printf("baselines written to %s\n", path.c_str());
    return 0;
}

int
compareAgainst(const std::string &path,
               const std::map<std::string, double> &values)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr,
                     "quality_gate: cannot read baselines %s "
                     "(run with --update-baselines to create)\n",
                     path.c_str());
        return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    util::JsonValue root;
    std::string error;
    if (!util::JsonValue::parse(buf.str(), &root, &error)) {
        std::fprintf(stderr, "quality_gate: %s: %s\n", path.c_str(),
                     error.c_str());
        return 2;
    }
    const util::JsonValue *metrics = root.find("metrics");
    if (!metrics || !metrics->isObject()) {
        std::fprintf(stderr,
                     "quality_gate: %s has no \"metrics\" object\n",
                     path.c_str());
        return 2;
    }

    int regressions = 0;
    std::printf("\n%-30s %10s %10s %10s  %s\n", "metric", "baseline",
                "observed", "delta", "status");
    for (const auto &[name, entry] : metrics->members()) {
        const util::JsonValue *value = entry.find("value");
        const util::JsonValue *tolerance = entry.find("tolerance");
        const util::JsonValue *better = entry.find("better");
        if (!value || !value->isNumber() || !tolerance ||
            !tolerance->isNumber() || !better || !better->isString()) {
            std::fprintf(stderr,
                         "quality_gate: malformed baseline entry "
                         "\"%s\"\n",
                         name.c_str());
            return 2;
        }
        auto it = values.find(name);
        if (it == values.end()) {
            std::fprintf(stderr,
                         "quality_gate: no observed value for "
                         "baseline \"%s\"\n",
                         name.c_str());
            return 2;
        }
        double base = value->asNumber();
        double tol = tolerance->asNumber();
        double observed = it->second;
        double delta = observed - base;
        bool lower_better = better->asString() == "lower";
        bool regressed = lower_better ? observed > base + tol
                                      : observed < base - tol;
        if (regressed)
            ++regressions;
        std::printf("%-30s %10.4f %10.4f %+10.4f  %s\n", name.c_str(),
                    base, observed, delta,
                    regressed ? "REGRESSED" : "ok");
    }
    if (regressions > 0) {
        std::fprintf(stderr,
                     "\nquality_gate: %d metric(s) regressed beyond "
                     "tolerance\n",
                     regressions);
        return 1;
    }
    std::printf("\nquality_gate: all metrics within tolerance\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    g_race_mode = core::raceModeFromCli(args);
    g_shard_options = shard::shardOptionsFromCli(args);
    g_threads = shard::threadsFromCli(args);
    const bool sharded = g_shard_options.shards > 1;
    const std::string baselines = args.getString(
        "baselines", "tests/golden/quality_baselines.json");

    // Installs a recorder for the whole run when --telemetry-out is
    // given; every solver sweep and app quality sample lands in it.
    obs::TelemetryScope telemetry =
        obs::telemetryFromCli(args, "quality_gate");

    CheckpointDrill drill;
    drill.dir = args.getString("checkpoint-dir", "");
    drill.every = args.getIntIn("checkpoint-every", 5, 1);
    drill.resume = args.getBool("resume", false);
    drill.dieAtSweep = args.getIntIn("die-at-sweep", -1, -1);
    if (drill.dir.empty() &&
        (drill.resume || drill.dieAtSweep > 0 ||
         args.has("checkpoint-every")))
        RETSIM_FATAL("--resume/--die-at-sweep/--checkpoint-every "
                     "require --checkpoint-dir");

    std::map<std::string, double> values = runMiniatureApps(drill);

    const std::string values_out = args.getString("values-out", "");
    if (!values_out.empty()) {
        std::ofstream out(values_out);
        if (!out) {
            std::fprintf(stderr, "quality_gate: cannot write %s\n",
                         values_out.c_str());
            return 2;
        }
        util::JsonValue root = util::JsonValue::object();
        for (const auto &[name, value] : values)
            root.set(name, util::JsonValue(value));
        out << root.dump(2) << "\n";
    }

    if (args.getBool("update-baselines", false))
        return updateBaselines(baselines, values);
    if (sharded) {
        // The baselines pin the raster solver's output; sharded runs
        // use the chromatic schedule, so equivalence is proven by
        // byte-comparing --values-out files across shard counts and
        // thread counts instead (the CI shard-equivalence leg).
        std::printf("quality_gate: sharded run (--shards=%d), "
                    "skipping raster baseline comparison\n",
                    g_shard_options.shards);
        return 0;
    }
    return compareAgainst(baselines, values);
}
