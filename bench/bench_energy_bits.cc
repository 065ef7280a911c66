/**
 * @file
 * Sec. III-C.1 experiment: energy-computation precision sweep.
 *
 * Following the paper's sequential methodology, lambda and time stay
 * at IEEE float precision while Energy_bits sweeps; the paper reports
 * that 8-bit energies match software-float quality (BP 27.0 vs 27.1 /
 * 12.6 vs 13.3 / 27.3 vs 30.3) and that fewer than 8 bits degrade
 * significantly.
 */

#include "bench_common.hh"

using namespace retsim;
using namespace retsim::bench;

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    const int sweeps = args.getIntIn("sweeps", 150, 1);
    const std::uint64_t seed = args.getIntIn<std::uint64_t>("seed", 42, 0);
    args.rejectUnread();

    printHeader("Energy_bits sweep — stereo BP with float lambda/time",
                "Sec. III-C.1: 8 bits suffice; below 8 degrades");

    auto scenes = img::standardStereoSuite();

    auto config_for = [](int bits) {
        core::RsuConfig cfg = core::RsuConfig::newDesign();
        cfg.lambdaQuant = core::LambdaQuant::Float;
        cfg.timeQuant = core::TimeQuant::Float;
        if (bits <= 0) {
            cfg.floatEnergy = true;
        } else {
            cfg.energyBits = static_cast<unsigned>(bits);
        }
        return cfg;
    };

    util::TextTable t({"Energy_bits", "teddy BP%", "poster BP%",
                       "art BP%", "avg BP%"});
    for (int bits : {0 /*float*/, 10, 8, 6, 5, 4}) {
        auto r = runStereoSuite(scenes, rsuFactory(config_for(bits)),
                                sweeps, seed);
        t.newRow().cell(bits == 0 ? std::string("float")
                                  : std::to_string(bits));
        for (double bp : r.bp)
            t.cell(bp, 2);
        t.cell(r.avgBp, 2);
    }
    t.print(std::cout);
    return 0;
}
