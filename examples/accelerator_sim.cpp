/**
 * @file
 * Discrete RSU-G accelerator exploration (Sec. II-C).
 *
 * Sweeps the unit count of a discrete accelerator on an HD stereo
 * workload, printing when the part crosses from compute-bound to
 * bandwidth-bound, and demonstrates that the chromatic (checkerboard)
 * Gibbs schedule such a part must run matches raster-scan Gibbs
 * quality on a real stereo problem.
 *
 *   ./accelerator_sim [--labels=64] [--bandwidth-gbps=336]
 */

#include <cstdio>

#include "apps/stereo.hh"
#include "core/sampler_software.hh"
#include "hw/accelerator.hh"
#include "hw/system_sim.hh"
#include "img/synthetic.hh"
#include "metrics/stereo_metrics.hh"
#include "mrf/checkerboard.hh"
#include "util/cli.hh"

using namespace retsim;

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    hw::AcceleratorConfig cfg;
    cfg.memBandwidthBytes =
        args.getDouble("bandwidth-gbps", 336.0) * 1e9;

    hw::FrameWorkload w;
    w.width = 1920;
    w.height = 1080;
    w.labels = args.getIntIn("labels", 64, 1);
    w.iterations = 100;
    const int sys_sweeps = args.getIntIn("sys-sweeps", 80, 1);
    args.rejectUnread();

    std::printf("Workload: %dx%d, %d labels, %d iterations, "
                "%.0f GB/s\n\n",
                w.width, w.height, w.labels, w.iterations,
                cfg.memBandwidthBytes / 1e9);

    std::printf("%8s %12s %12s %12s %8s %6s\n", "units",
                "compute (s)", "memory (s)", "total (s)", "util",
                "bound");
    std::printf("---------------------------------------------------"
                "----------\n");
    for (unsigned units : {16u, 64u, 168u, 336u, 672u, 1344u}) {
        cfg.units = units;
        hw::AcceleratorModel model(cfg);
        auto r = model.evaluate(w);
        std::printf("%8u %12.4f %12.4f %12.4f %7.1f%% %6s\n", units,
                    r.computeSeconds, r.memorySeconds, r.totalSeconds,
                    100.0 * r.utilization,
                    r.memoryBound ? "mem" : "comp");
    }
    cfg.units = 336;
    hw::AcceleratorModel model(cfg);
    std::printf("\nSaturation point: %u units (adding more buys "
                "nothing at this bandwidth)\n",
                model.saturationUnits(w));
    auto cost = model.evaluate(w).totalCost;
    std::printf("336-unit part (4-way light sharing): %.2f mm^2, "
                "%.2f W\n",
                cost.areaUm2 / 1e6, cost.powerMw / 1e3);

    // ---- schedule validity -------------------------------------------
    std::printf("\nChromatic schedule quality check (poster analog, "
                "software sampler):\n");
    auto scene = img::makeStereoScene(img::stereoPosterSpec(),
                                      0x905712ULL);
    auto problem = apps::buildStereoProblem(scene);
    auto solver = apps::defaultStereoSolver(150, 42);

    core::SoftwareSampler s1, s2;
    auto raster = mrf::GibbsSolver(solver).run(problem, s1);
    auto checker =
        mrf::CheckerboardGibbsSolver(solver).run(problem, s2);
    std::printf("  raster-scan Gibbs BP: %.2f%%\n",
                metrics::badPixelPercent(raster, scene.gtDisparity));
    std::printf("  checkerboard Gibbs BP: %.2f%% (the schedule the "
                "parallel part runs)\n",
                metrics::badPixelPercent(checker,
                                         scene.gtDisparity));

    // ---- executed system simulation ----------------------------------
    // Run the same problem through the cycle-level system simulator:
    // every pixel update flows through an RSU-G pipeline, so we get
    // the silicon's labeling AND its cycle count in one run.
    hw::SystemConfig sys_cfg;
    sys_cfg.units = 16;
    mrf::AnnealingSchedule sched;
    sched.t0 = 48.0;
    sched.tEnd = 0.8;
    sched.sweeps = sys_sweeps;
    hw::SystemSimulator sim(sys_cfg);
    auto sys = sim.run(problem, sched, 42);
    std::printf("\nExecuted system simulation (16 units, %d sweeps "
                "on %dx%d/%d labels):\n",
                sys_sweeps, problem.width(), problem.height(),
                problem.numLabels());
    std::printf("  BP: %.2f%%  |  %llu label evals in %llu cycles "
                "(%.2f evals/cycle) -> %.3f ms at 1 GHz, %s-bound\n",
                metrics::badPixelPercent(sys.labels,
                                         scene.gtDisparity),
                (unsigned long long)sys.labelEvaluations,
                (unsigned long long)sys.totalCycles,
                sys.labelsPerCycle, sys.seconds() * 1e3,
                sys.memoryBound ? "memory" : "compute");
    return 0;
}
