/**
 * @file
 * MRF image denoising end to end — a fourth application showing the
 * RSU-G on the classic Geman-Geman restoration workload: corrupt a
 * synthetic image with Gaussian noise, restore it by annealed MCMC
 * over 32 intensity levels, and compare software vs new RSU-G PSNR.
 *
 *   ./denoising [--sigma=25] [--levels=32] [--sweeps=40] [--outdir=.]
 *
 * Sharded runs (shard/shard_cli.hh) take [--shards=N] [--threads=N];
 * every combination produces the byte-identical result.
 */

#include <cstdio>
#include <string>

#include "apps/denoising.hh"
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

/** A synthetic test card: segmentation scene + smooth gradient. */
img::ImageU8
makeCleanImage(std::uint64_t seed)
{
    img::SegmentationSceneSpec spec;
    spec.width = 96;
    spec.height = 80;
    spec.numSegments = 4;
    spec.noiseSigma = 0.0;
    auto scene = img::makeSegmentationScene(spec, seed);
    img::ImageU8 image = scene.image;
    // Overlay a mild illumination ramp so the restorer must preserve
    // gradients, not just flat regions.
    for (int y = 0; y < image.height(); ++y)
        for (int x = 0; x < image.width(); ++x) {
            int v = image(x, y) + 20 * x / image.width();
            image(x, y) =
                static_cast<std::uint8_t>(std::min(v, 255));
        }
    return image;
}

} // namespace

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    obs::TelemetryScope telemetry =
        obs::telemetryFromCli(args, "denoising");
    const double sigma = args.getDouble("sigma", 25.0);
    const int sweeps = args.getIntIn("sweeps", 40, 1);
    const std::string outdir = args.getString("outdir", ".");

    apps::DenoisingParams params;
    params.levels = args.getIntIn("levels", 32, 1);

    img::ImageU8 clean = makeCleanImage(0xfeed);
    img::ImageU8 noisy = apps::addGaussianNoise(clean, sigma, 7);

    auto solver = apps::defaultDenoisingSolver(sweeps, 42);
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

    auto r_sw = apps::runDenoising(clean, noisy, sw, cfg_sw, params);
    auto r_rsu =
        apps::runDenoising(clean, noisy, rsu, cfg_rsu, params);

    std::printf("Noise sigma %.1f, %d levels, %d sweeps\n", sigma,
                params.levels, sweeps);
    std::printf("\n%-12s %12s\n", "image", "PSNR (dB)");
    std::printf("---------------------------\n");
    std::printf("%-12s %12.2f\n", "noisy", r_sw.psnrNoisy);
    std::printf("%-12s %12.2f\n", "software", r_sw.psnrRestored);
    std::printf("%-12s %12.2f\n", "new RSU-G", r_rsu.psnrRestored);

    img::writePgm(clean, outdir + "/denoise_clean.pgm");
    img::writePgm(noisy, outdir + "/denoise_noisy.pgm");
    img::writePgm(r_rsu.restored, outdir + "/denoise_rsug.pgm");
    std::printf("\nWrote denoise_{clean,noisy,rsug}.pgm to %s\n",
                outdir.c_str());
    return 0;
}
