/**
 * @file
 * Pipeline characterization (Sec. II-C and IV-B): steady-state
 * throughput of one label evaluation per cycle for both designs,
 * per-pixel latency (previous: 7 + (M-1); new: larger due to the
 * FIFO decoupling), temperature-update stall costs (previous LUT
 * rewrite vs. double-buffered boundary registers), FIFO occupancy,
 * RET-circuit reuse safety, and the entropy generation rate.
 */

#include <cmath>

#include "bench_common.hh"
#include "core/rsu_pipeline.hh"
#include "hw/cost_model.hh"
#include "core/ttf_race.hh"
#include "rng/distributions.hh"

using namespace retsim;
using namespace retsim::bench;

namespace {

std::vector<core::PixelRequest>
workload(int pixels, int labels, bool with_temp_updates)
{
    std::vector<core::PixelRequest> reqs(pixels);
    for (int v = 0; v < pixels; ++v) {
        reqs[v].energies.resize(labels);
        for (int l = 0; l < labels; ++l)
            reqs[v].energies[l] =
                float((l * 37 + v * 11) % 200);
        if (with_temp_updates && v > 0 && v % 50 == 0)
            reqs[v].newTemperature = 48.0 / (1.0 + v / 50.0);
    }
    return reqs;
}

} // namespace

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    const int pixels = args.getIntIn("pixels", 2000, 1);
    args.rejectUnread();

    printHeader("RSU-G pipeline characterization",
                "Sec. II-C (1 label/cycle, latency 7+(M-1)) and "
                "Sec. IV-B (decoupled pipeline, stall-free "
                "temperature updates)");

    util::TextTable t({"design", "labels", "labels/cycle",
                       "avg pixel latency", "stall cycles",
                       "max FIFO", "temp updates"});

    for (int labels : {10, 32, 64}) {
        for (bool new_design : {false, true}) {
            core::PipelineConfig cfg;
            cfg.newDesign = new_design;
            cfg.rsu = new_design ? core::RsuConfig::newDesign()
                                 : core::RsuConfig::previousDesign();
            core::RsuPipeline pipeline(cfg, 48.0);
            rng::Xoshiro256 gen(5);
            auto res =
                pipeline.run(workload(pixels, labels, true), gen);
            t.newRow()
                .cell(new_design ? "new (Fig. 10)" : "prev (Fig. 2b)")
                .cell(labels)
                .cell(res.stats.throughputLabelsPerCycle, 4)
                .cell(res.stats.avgPixelLatency, 1)
                .cell(res.stats.stallCycles)
                .cell(std::uint64_t(res.stats.maxFifoOccupancy))
                .cell(res.stats.temperatureUpdates);
        }
    }
    t.print(std::cout, "per-design steady state (" +
                           std::to_string(pixels) + " pixels)");

    std::printf("\nKey rows: the previous design stalls 128 cycles "
                "per temperature update (1 Kbit LUT over an\n8-bit "
                "interface); the new design's double-buffered "
                "boundary registers stall 0 cycles.\n");

    // RET circuit health at the chosen point.
    {
        core::PipelineConfig cfg;
        cfg.rsu = core::RsuConfig::newDesign();
        core::RsuPipeline pipeline(cfg, 8.0);
        rng::Xoshiro256 gen(11);
        auto res = pipeline.run(workload(pixels, 32, false), gen);
        double safety =
            1.0 - double(res.stats.retBleedThrough) /
                      std::max<std::uint64_t>(res.stats.retSamples, 1);
        std::printf("\nRET reuse safety at Truncation=0.5 with 8 "
                    "replica sets: %.4f (target 0.996)\n",
                    safety);
        std::printf("Truncated samples: %.1f%% of %llu issued\n",
                    100.0 * double(res.stats.retTruncated) /
                        std::max<std::uint64_t>(res.stats.retSamples,
                                                1),
                    static_cast<unsigned long long>(
                        res.stats.retSamples));
    }

    // Entropy generation rate (Sec. II-C: the previous RSU-G
    // generates entropy at 2.89 Gb/s): one TTF sample retires per
    // cycle at 1 GHz, and each quantized sample (bin index or
    // "no fire") carries the entropy of the truncated binned
    // exponential.  Measure it for both designs at their slowest
    // rate (the entropy-richest case).
    {
        hw::CostModel cost;
        for (bool new_design : {false, true}) {
            core::RsuConfig rsu =
                new_design ? core::RsuConfig::newDesign()
                           : core::RsuConfig::previousDesign();
            unsigned bins = rsu.tMaxBins();
            std::vector<std::uint64_t> counts(bins + 1, 0);
            rng::Xoshiro256 gen(13);
            core::RsuConfig race_cfg = rsu;
            std::vector<double> rates = {rsu.lambda0()};
            for (int i = 0; i < 60000; ++i) {
                auto out = core::runTtfRace(rates, race_cfg, gen);
                counts[out.winner < 0 ? 0 : out.winningBin]++;
            }
            double bits = rng::empiricalEntropyBits(counts);
            std::printf("%s design: %.2f bits per TTF sample -> "
                        "%.2f Gb/s at one sample/cycle, 1 GHz\n",
                        new_design ? "\nnew" : "\nprev", bits,
                        cost.entropyRateGbps(bits));
        }
        std::printf("(paper cites 2.89 Gb/s for the previous "
                    "design)\n");
    }
    return 0;
}
