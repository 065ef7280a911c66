/**
 * @file
 * Image segmentation end to end: Potts-model MCMC segmentation of a
 * synthetic BSD-analog image with the new RSU-G vs software, scored
 * with all four BISIP-style metrics (VoI, PRI, GCE, BDE), writing
 * the segment maps as PGMs.
 *
 *   ./image_segmentation [--segments=4] [--sweeps=30] [--seed=9001]
 *                        [--outdir=.]
 *
 * Sharded runs (shard/shard_cli.hh) take [--shards=N] [--threads=N];
 * every combination produces the byte-identical result.
 */

#include <cstdio>
#include <string>

#include "apps/segmentation.hh"
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

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    obs::TelemetryScope telemetry =
        obs::telemetryFromCli(args, "image_segmentation");
    const int segments = args.getIntIn("segments", 4, 1);
    const int sweeps = args.getIntIn("sweeps", 30, 1);
    const std::uint64_t seed = args.getIntIn<std::uint64_t>("seed", 9001, 0);
    const std::string outdir = args.getString("outdir", ".");

    img::SegmentationSceneSpec spec;
    spec.name = "bsd_analog";
    spec.numSegments = segments;
    auto scene = img::makeSegmentationScene(spec, seed);
    std::printf("Scene %s: %dx%d, %d segments\n", scene.name.c_str(),
                scene.image.width(), scene.image.height(), segments);

    auto solver = apps::defaultSegmentationSolver(sweeps, 42);
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

    auto r_sw = apps::runSegmentation(scene, sw, cfg_sw);
    auto r_rsu = apps::runSegmentation(scene, rsu, cfg_rsu);

    std::printf("\n%-12s %8s %8s %8s %8s\n", "sampler", "VoI", "PRI",
                "GCE", "BDE");
    std::printf("------------------------------------------------\n");
    std::printf("%-12s %8.3f %8.3f %8.3f %8.3f\n", "software",
                r_sw.voi, r_sw.pri, r_sw.gce, r_sw.bde);
    std::printf("%-12s %8.3f %8.3f %8.3f %8.3f\n", "new RSU-G",
                r_rsu.voi, r_rsu.pri, r_rsu.gce, r_rsu.bde);
    std::printf("(VoI/GCE/BDE: lower better; PRI: higher better)\n");

    auto prefix = outdir + "/" + scene.name;
    img::writePgm(scene.image, prefix + "_input.pgm");
    img::writePgm(img::labelMapToGray(scene.gtSegments, segments),
                  prefix + "_gt.pgm");
    img::writePgm(img::labelMapToGray(r_rsu.segments, segments),
                  prefix + "_rsug.pgm");
    std::printf("\nWrote %s_{input,gt,rsug}.pgm\n", prefix.c_str());
    return 0;
}
