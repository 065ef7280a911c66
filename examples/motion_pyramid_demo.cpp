/**
 * @file
 * Coarse-to-fine motion estimation beyond the 64-label budget.
 *
 * Generates a scene with motions up to radius 7 (a 15x15 = 225-label
 * search window — far over the RSU-G's 64-label limit), then shows
 * that a 2-level pyramid of 49-label problems recovers it while a
 * direct 49-label window cannot (the paper's "image pyramid method",
 * Sec. III-D.2).
 *
 *   ./motion_pyramid_demo [--levels=2] [--radius=3] [--sweeps=100]
 */

#include <cstdio>

#include "apps/motion_pyramid.hh"
#include "core/sampler_rsu.hh"
#include "core/sampler_software.hh"
#include "img/synthetic.hh"
#include "util/cli.hh"

using namespace retsim;

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    apps::PyramidParams params;
    params.levels = args.getIntIn("levels", 2, 1);
    params.windowRadius = args.getIntIn("radius", 3, 0);
    const int sweeps = args.getIntIn("sweeps", 100, 1);
    args.rejectUnread();

    img::MotionSceneSpec spec;
    spec.name = "large-motion";
    spec.width = 96;
    spec.height = 80;
    spec.windowRadius = 7; // true motions up to (+-7, +-7)
    spec.numObjects = 5;
    auto scene = img::makeMotionScene(spec, 0x600d);

    int direct_labels = (2 * spec.windowRadius + 1) *
                        (2 * spec.windowRadius + 1);
    int level_labels = (2 * params.windowRadius + 1) *
                       (2 * params.windowRadius + 1);
    std::printf("Scene: %dx%d, true motions within radius %d "
                "(%d labels if searched directly)\n",
                spec.width, spec.height, spec.windowRadius,
                direct_labels);
    std::printf("Pyramid: %d levels x radius %d = %d labels per "
                "RSU-G evaluation (limit 64)\n\n",
                params.levels, params.windowRadius, level_labels);

    auto solver = apps::defaultMotionSolver(sweeps, 42);
    core::SoftwareSampler sw;
    core::RsuSampler rsu(core::RsuConfig::newDesign());

    // In-budget direct window for reference (radius 3: cannot even
    // represent the larger motions).
    img::MotionScene clipped = scene;
    clipped.windowRadius = params.windowRadius;
    auto direct = apps::runMotion(clipped, sw, solver);

    auto pyr_sw = apps::runMotionPyramid(scene.frame0, scene.frame1,
                                         sw, solver, params,
                                         &scene.gtMotion);
    auto pyr_rsu = apps::runMotionPyramid(scene.frame0, scene.frame1,
                                          rsu, solver, params,
                                          &scene.gtMotion);

    std::printf("%-28s %10s\n", "estimator", "EPE (px)");
    std::printf("----------------------------------------\n");
    std::printf("%-28s %10.3f\n", "direct 7x7 window (software)",
                direct.endPointError);
    std::printf("%-28s %10.3f\n", "pyramid (software)",
                pyr_sw.endPointError);
    std::printf("%-28s %10.3f\n", "pyramid (new RSU-G)",
                pyr_rsu.endPointError);
    std::printf("\nEffective search radius of the pyramid: %d px\n",
                pyr_sw.effectiveRadius);
    return 0;
}
