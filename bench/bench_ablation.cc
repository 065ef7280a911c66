/**
 * @file
 * Ablations of the new RSU-G design choices (Sec. IV-A trade-offs):
 * each technique removed in isolation from the chosen design point,
 * plus tie-break policy and the truncation/replica trade-off, on one
 * stereo scene.  Quantifies which choices are load-bearing for
 * quality and which for cost.
 */

#include "bench_common.hh"
#include "hw/cost_model.hh"
#include "ret/truncation.hh"

using namespace retsim;
using namespace retsim::bench;

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    const int sweeps = args.getIntIn("sweeps", 150, 1);
    const std::uint64_t seed = args.getIntIn<std::uint64_t>("seed", 42, 0);

    printHeader("Ablation — removing each new-design technique",
                "Sec. IV-A: scaling and cut-off are load-bearing; "
                "2^n approximation and tie policy are free");

    auto scene = img::makeStereoScene(img::stereoPosterSpec(),
                                      0x905712ULL);
    std::vector<img::StereoScene> scenes = {scene};
    auto base = core::RsuConfig::newDesign();

    struct Variant
    {
        std::string name;
        core::RsuConfig cfg;
    };
    std::vector<Variant> variants;
    variants.push_back({"full new design", base});
    {
        auto c = base;
        c.decayRateScaling = false;
        c.probabilityCutoff = false; // cut-off alone self-destructs
        variants.push_back({"- scaling (and cut-off)", c});
    }
    {
        auto c = base;
        c.probabilityCutoff = false;
        variants.push_back({"- probability cut-off", c});
    }
    {
        auto c = base;
        c.lambdaQuant = core::LambdaQuant::Integer;
        variants.push_back({"- 2^n approximation", c});
    }
    {
        auto c = base;
        c.tieBreak = core::TieBreak::First;
        variants.push_back({"tie-break: first (comparator)", c});
    }
    {
        auto c = base;
        c.tieBreak = core::TieBreak::Last;
        variants.push_back({"tie-break: last", c});
    }
    {
        auto c = base;
        c.truncationPolicy = core::TruncationPolicy::ClampToLastBin;
        variants.push_back({"truncation: clamp to t_max", c});
    }
    {
        auto c = base;
        c.truncation = 0.05;
        variants.push_back({"truncation 0.05", c});
    }
    {
        auto c = base;
        c.truncation = 0.9;
        variants.push_back({"truncation 0.9", c});
    }

    hw::CostModel cost;
    util::TextTable t({"variant", "poster BP%", "unique lambdas",
                       "replica sets", "RET area (um^2)"});
    for (const auto &v : variants) {
        auto r =
            runStereoSuite(scenes, rsuFactory(v.cfg), sweeps, seed);
        unsigned sets = ret::replicasForReuseSafety(v.cfg.truncation);
        t.newRow()
            .cell(v.name)
            .cell(r.avgBp, 2)
            .cell(v.cfg.uniqueLambdas())
            .cell(sets)
            .cell(cost.concentrationRetCircuit(v.cfg.uniqueLambdas(),
                                               sets)
                      .areaUm2,
                  0);
    }
    t.print(std::cout);

    std::printf("\nReading guide: dropping scaling or cut-off wrecks "
                "quality; dropping 2^n quadruples the\nunique-rate "
                "count (RET area) for no quality gain; extreme "
                "truncations hurt quality or\nmultiply replica "
                "sets.\n");
    return 0;
}
