/**
 * @file
 * Figure 5: result quality vs. exponential decay-rate precision.
 *
 * 5a — average stereo BP while sweeping Lambda_bits 3..7 for the
 * precision-technique ladder: the previous design's plain integer
 * lambda, + decay-rate scaling, + probability cut-off, + 2^n
 * truncation, and cut-off *without* scaling (the paper's cautionary
 * line).  Time measurement stays at float precision, matching the
 * paper's sequential methodology.
 *
 * 5b — per-dataset BP at Lambda_bits = 4 (scaling + cut-off + 2^n)
 * against the software baseline.
 */

#include "bench_common.hh"

using namespace retsim;
using namespace retsim::bench;

namespace {

struct Line
{
    const char *name;
    bool scaling;
    bool cutoff;
    core::LambdaQuant quant;
};

core::RsuConfig
lineConfig(const Line &line, unsigned lambda_bits)
{
    core::RsuConfig cfg = core::RsuConfig::newDesign();
    cfg.lambdaBits = lambda_bits;
    cfg.decayRateScaling = line.scaling;
    cfg.probabilityCutoff = line.cutoff;
    cfg.lambdaQuant = line.quant;
    cfg.timeQuant = core::TimeQuant::Float; // isolate lambda precision
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    const int sweeps = args.getIntIn("sweeps", 150, 1);
    const std::uint64_t seed = args.getIntIn<std::uint64_t>("seed", 42, 0);

    printHeader("Figure 5a — average stereo BP vs Lambda_bits",
                "Fig. 5a (Sec. III-C.2): scaling + cut-off recover "
                "quality; naive integer lambda stays > 90%");

    const std::vector<Line> lines = {
        {"int lambda (prev RSU-G)", false, false,
         core::LambdaQuant::Integer},
        {"int lambda scaled", true, false, core::LambdaQuant::Integer},
        {"scaled + cutoff", true, true, core::LambdaQuant::Integer},
        {"scaled + cutoff + 2^n", true, true, core::LambdaQuant::Pow2},
        {"cutoff w/o scaling", false, true,
         core::LambdaQuant::Integer},
    };
    const std::vector<unsigned> bits = {3, 4, 5, 6, 7};

    auto scenes = img::standardStereoSuite();

    util::TextTable t5a({"configuration", "L=3", "L=4", "L=5", "L=6",
                         "L=7"});
    for (const Line &line : lines) {
        t5a.newRow().cell(line.name);
        for (unsigned b : bits) {
            auto r = runStereoSuite(
                scenes, rsuFactory(lineConfig(line, b)), sweeps, seed);
            t5a.cell(r.avgBp, 1);
        }
    }
    t5a.print(std::cout, "avg BP% across teddy/poster/art");

    printHeader("Figure 5b — per-dataset BP at Lambda_bits = 4",
                "Fig. 5b: the full technique ladder matches "
                "software-only quality");

    auto sw = runStereoSuite(scenes, softwareFactory(), sweeps, seed);
    auto full = runStereoSuite(
        scenes, rsuFactory(lineConfig(lines[3], 4)), sweeps, seed);

    util::TextTable t5b(
        {"dataset", "software BP%", "RSU-G (L=4,2^n) BP%", "delta"});
    for (std::size_t i = 0; i < scenes.size(); ++i) {
        t5b.newRow()
            .cell(scenes[i].name)
            .cell(sw.bp[i], 2)
            .cell(full.bp[i], 2)
            .cell(full.bp[i] - sw.bp[i], 2);
    }
    t5b.print(std::cout);
    return 0;
}
