/**
 * @file
 * Design-space explorer: configure every RSU-G design parameter from
 * the command line, evaluate the resulting quality on a stereo scene
 * and the resulting hardware cost from the analytic model — the tool
 * a designer would use to walk the Fig. 8 iso-quality diagonal.
 *
 *   ./design_space --energy-bits=8 --lambda-bits=4 --time-bits=5 \
 *                  --truncation=0.5 --scaling=true --cutoff=true \
 *                  --pow2=true [--sweeps=150] [--scene=poster]
 */

#include <cstdio>
#include <string>

#include "apps/stereo.hh"
#include "core/sampler_rsu.hh"
#include "core/sampler_software.hh"
#include "hw/cost_model.hh"
#include "img/synthetic.hh"
#include "ret/truncation.hh"
#include "util/cli.hh"

using namespace retsim;

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);

    core::RsuConfig cfg = core::RsuConfig::newDesign();
    if (args.has("config")) {
        // Whole-manifest form, e.g. from a previous run's output:
        //   --config="lambda_bits=6 truncation=0.3"
        cfg = core::RsuConfig::fromString(
            args.getString("config", ""));
    }
    // Individual flags override the manifest (or the defaults).
    if (args.has("energy-bits"))
        cfg.energyBits = args.getIntIn<unsigned>("energy-bits", 8, 0);
    if (args.has("lambda-bits"))
        cfg.lambdaBits = args.getIntIn<unsigned>("lambda-bits", 4, 0);
    if (args.has("time-bits"))
        cfg.timeBits = args.getIntIn<unsigned>("time-bits", 5, 0);
    if (args.has("truncation"))
        cfg.truncation = args.getDouble("truncation", 0.5);
    if (args.has("scaling"))
        cfg.decayRateScaling = args.getBool("scaling", true);
    if (args.has("cutoff"))
        cfg.probabilityCutoff = args.getBool("cutoff", true);
    if (args.has("pow2"))
        cfg.lambdaQuant = args.getBool("pow2", true)
                              ? core::LambdaQuant::Pow2
                              : core::LambdaQuant::Integer;
    cfg.validate();

    const int sweeps = args.getIntIn("sweeps", 150, 1);
    const std::string which = args.getString("scene", "poster");
    args.rejectUnread();

    img::StereoSceneSpec spec = which == "teddy"
                                    ? img::stereoTeddySpec()
                                : which == "art" ? img::stereoArtSpec()
                                                 : img::stereoPosterSpec();
    auto scene = img::makeStereoScene(spec, 0x905712ULL);

    std::printf("Design point: %s\n", cfg.describe().c_str());
    std::printf("Manifest: %s\n", cfg.toString().c_str());
    std::printf("Scene: %s (%d labels), %d annealing sweeps\n\n",
                scene.name.c_str(), scene.numLabels, sweeps);

    // ---- quality ----------------------------------------------------
    auto solver = apps::defaultStereoSolver(sweeps, 42);
    core::RsuSampler rsu(cfg);
    core::SoftwareSampler sw;
    auto r_rsu = apps::runStereo(scene, rsu, solver);
    auto r_sw = apps::runStereo(scene, sw, solver);
    std::printf("Quality:  RSU-G BP %.2f%%  (software %.2f%%, "
                "delta %+.2f)\n",
                r_rsu.badPixelPercent, r_sw.badPixelPercent,
                r_rsu.badPixelPercent - r_sw.badPixelPercent);

    // ---- cost --------------------------------------------------------
    hw::CostModel cost;
    auto breakdown = cost.newDesign(cfg);
    auto total = breakdown.total();
    unsigned replica_sets =
        ret::replicasForReuseSafety(cfg.truncation);
    std::printf("\nCost model:\n");
    std::printf("  unique decay rates      : %u\n",
                cfg.uniqueLambdas());
    std::printf("  RET network replica sets: %u (reuse safety "
                ">= 99.6%%)\n",
                replica_sets);
    std::printf("  RET circuit             : %7.0f um^2  %6.3f mW\n",
                breakdown.retCircuit.areaUm2,
                breakdown.retCircuit.powerMw);
    std::printf("  CMOS circuitry          : %7.0f um^2  %6.3f mW\n",
                breakdown.cmosCircuitry.areaUm2,
                breakdown.cmosCircuitry.powerMw);
    std::printf("  label LUT               : %7.0f um^2  %6.3f mW\n",
                breakdown.labelLut.areaUm2,
                breakdown.labelLut.powerMw);
    std::printf("  total                   : %7.0f um^2  %6.3f mW\n",
                total.areaUm2, total.powerMw);

    std::printf("\nRSU-G internals: %llu no-sample fallbacks / %llu "
                "samples, %llu ties\n",
                (unsigned long long)rsu.noSampleEvents(),
                (unsigned long long)rsu.totalSamples(),
                (unsigned long long)rsu.tieEvents());
    return 0;
}
