/**
 * @file
 * Table II: stereo vision execution time (seconds) for GPU_float,
 * GPU_int8 and the RSU-G-augmented GPU on SD (320x320) and HD
 * (1920x1080) at 10 and 64 labels, plus the speedup rows.
 *
 * The GPU side is a calibrated analytic throughput model (we have no
 * GPU here — see hw/perf_model.hh); the RSU side follows from the
 * one-label-per-cycle pipeline plus the residual GPU work.  The
 * reproduced shape: speedups of ~3-6x that grow with label count and
 * resolution.  The cycle-level pipeline model independently verifies
 * the 1 label/cycle RSU assumption at the end.
 */

#include "bench_common.hh"
#include "core/rsu_pipeline.hh"
#include "hw/perf_model.hh"

using namespace retsim;
using namespace retsim::bench;

int
main(int argc, char **argv)
{
    util::CliArgs(argc, argv).rejectUnread();
    printHeader("Table II — stereo vision execution time (seconds)",
                "Tab. II (Sec. IV-C): RSU-G augmented GPU, speedups "
                "2.8-6.1x growing with labels and resolution");

    hw::PerfModel model;
    const hw::StereoWorkload workloads[] = {
        {320, 320, 10}, {320, 320, 64},
        {1920, 1080, 10}, {1920, 1080, 64}};

    util::TextTable t({"", "320x320 SD 10-label", "SD 64-label",
                       "1920x1080 HD 10-label", "HD 64-label"});
    t.newRow().cell("GPU_float");
    for (const auto &w : workloads)
        t.cell(model.gpuFloatSeconds(w), 3);
    t.newRow().cell("GPU_int8");
    for (const auto &w : workloads)
        t.cell(model.gpuInt8Seconds(w), 3);
    t.newRow().cell("RSUG_aug");
    for (const auto &w : workloads)
        t.cell(model.rsuAugmentedSeconds(w), 3);
    t.newRow().cell("Speedup_flt");
    for (const auto &w : workloads)
        t.cell(model.speedupFloat(w), 3);
    t.newRow().cell("Speedup_int8");
    for (const auto &w : workloads)
        t.cell(model.speedupInt8(w), 3);
    t.print(std::cout);

    std::printf("\nPaper reference rows: GPU_float 0.078/0.401/0.894/"
                "6.522, RSUG_aug 0.025/0.071/0.220/1.067,\n"
                "Speedup_flt 3.125/5.652/4.058/6.115 "
                "(%u augmenting RSU-G units assumed).\n",
                model.augmentingUnits());

    // Independent check of the 1 label/cycle assumption with the
    // cycle-accurate pipeline model.
    core::PipelineConfig pcfg;
    pcfg.rsu = core::RsuConfig::newDesign();
    core::RsuPipeline pipeline(pcfg, 8.0);
    std::vector<core::PixelRequest> reqs(512);
    for (auto &r : reqs) {
        r.energies.resize(64);
        for (int l = 0; l < 64; ++l)
            r.energies[l] = float((l * 29) % 200);
    }
    rng::Xoshiro256 gen(7);
    auto res = pipeline.run(reqs, gen);
    std::printf("\nPipeline check (512 pixels x 64 labels): %.4f "
                "label evaluations per cycle (target 1.0)\n",
                res.stats.throughputLabelsPerCycle);

    // Discrete accelerator corner (Sec. II-C bandwidth bound).
    printHeader("Discrete accelerator (336 units, 336 GB/s)",
                "Sec. II-C: memory-bandwidth-limited speedups");
    util::TextTable d({"workload", "RSUG_discrete (s)",
                       "vs GPU_float"});
    for (const auto &w : workloads) {
        double td = model.discreteAcceleratorSeconds(w);
        d.newRow()
            .cell(std::to_string(w.width) + "x" +
                  std::to_string(w.height) + "/" +
                  std::to_string(w.labels))
            .cell(td, 4)
            .cell(model.gpuFloatSeconds(w) / td, 1);
    }
    d.print(std::cout);
    return 0;
}
