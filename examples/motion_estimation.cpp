/**
 * @file
 * Motion estimation end to end: solve a synthetic optical-flow scene
 * (49-label search window, the paper's motion workload) with the new
 * RSU-G vs software, print end-point error and write the flow
 * magnitude maps as PGMs.
 *
 *   ./motion_estimation [--scene=venus|rubberwhale|dimetrodon]
 *                       [--sweeps=150] [--outdir=.]
 *
 * Sharded runs (shard/shard_cli.hh) take [--shards=N] [--threads=N];
 * every combination produces the byte-identical result.
 */

#include <cmath>
#include <cstdio>
#include <string>

#include "apps/motion.hh"
#include "core/race_cli.hh"
#include "core/sampler_rsu.hh"
#include "core/sampler_software.hh"
#include "img/pgm_io.hh"
#include "mrf/checkpoint_cli.hh"
#include "obs/telemetry_cli.hh"
#include "img/synthetic.hh"
#include "shard/shard_cli.hh"
#include "util/cli.hh"

using namespace retsim;

namespace {

img::ImageU8
flowMagnitude(const img::Image<img::Vec2i> &flow, int radius)
{
    img::ImageU8 out(flow.width(), flow.height());
    double max_mag = std::sqrt(2.0) * radius;
    for (int y = 0; y < flow.height(); ++y) {
        for (int x = 0; x < flow.width(); ++x) {
            double m = std::hypot(flow(x, y).x, flow(x, y).y);
            out(x, y) = static_cast<std::uint8_t>(
                std::min(255.0, 255.0 * m / max_mag));
        }
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    obs::TelemetryScope telemetry =
        obs::telemetryFromCli(args, "motion_estimation");
    const std::string which = args.getString("scene", "venus");
    const int sweeps = args.getIntIn("sweeps", 150, 1);
    const std::string outdir = args.getString("outdir", ".");

    auto suite = img::standardMotionSuite();
    const img::MotionScene *scene = nullptr;
    for (const auto &s : suite)
        if (s.name == which)
            scene = &s;
    if (!scene) {
        std::fprintf(stderr, "unknown scene '%s'\n", which.c_str());
        return 1;
    }
    int labels = (2 * scene->windowRadius + 1) *
                 (2 * scene->windowRadius + 1);
    std::printf("Scene %s: %dx%d, %d motion labels (radius %d)\n",
                scene->name.c_str(), scene->frame0.width(),
                scene->frame0.height(), labels, scene->windowRadius);

    auto solver = apps::defaultMotionSolver(sweeps, 42);
    core::SoftwareSampler sw;
    core::RsuConfig rsu_cfg = core::RsuConfig::newDesign();
    rsu_cfg.raceMode = core::raceModeFromCli(args);
    core::RsuSampler rsu(rsu_cfg);

    auto cfg_sw = solver;
    mrf::checkpointFromCli(args, &cfg_sw, "software");
    shard::shardFromCli(args, &cfg_sw);
    auto cfg_rsu = solver;
    mrf::checkpointFromCli(args, &cfg_rsu, "new_rsug");
    shard::shardFromCli(args, &cfg_rsu);

    auto r_sw = apps::runMotion(*scene, sw, cfg_sw);
    auto r_rsu = apps::runMotion(*scene, rsu, cfg_rsu);

    std::printf("\n%-14s %10s\n", "sampler", "EPE (px)");
    std::printf("-------------------------\n");
    std::printf("%-14s %10.3f\n", "software", r_sw.endPointError);
    std::printf("%-14s %10.3f\n", "new RSU-G", r_rsu.endPointError);

    auto prefix = outdir + "/" + scene->name;
    img::writePgm(scene->frame0, prefix + "_frame0.pgm");
    img::writePgm(flowMagnitude(scene->gtMotion,
                                scene->windowRadius),
                  prefix + "_gt_flow.pgm");
    img::writePgm(flowMagnitude(r_rsu.flow, scene->windowRadius),
                  prefix + "_rsug_flow.pgm");
    std::printf("\nWrote %s_{frame0,gt_flow,rsug_flow}.pgm\n",
                prefix.c_str());
    return 0;
}
