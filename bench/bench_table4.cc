/**
 * @file
 * Table IV: area comparison of the RSU-G against alternative sampling
 * unit designs — true RNGs (RSU-G with/without light-source sharing,
 * Intel DRNG) and pseudo-RNGs (19-bit LFSR, mt19937 at three sharing
 * factors).
 */

#include "bench_common.hh"
#include "hw/cost_model.hh"

using namespace retsim;
using namespace retsim::bench;

int
main(int argc, char **argv)
{
    util::CliArgs(argc, argv).rejectUnread();
    printHeader("Table IV — area comparison with alternative designs",
                "Tab. IV (Sec. IV-C): RSU-G provides a true RNG in "
                "LFSR-class area");

    hw::CostModel model;
    core::RsuConfig cfg = core::RsuConfig::newDesign();

    util::TextTable t({"True-RNG", "area (um^2)", "Pseudo-RNG",
                       "area (um^2)"});
    t.newRow()
        .cell("RSUG_noshare")
        .cell(model.newDesign(cfg, 1).total().areaUm2, 0)
        .cell("19-bit LFSR")
        .cell(model.lfsrUnit().areaUm2, 0);
    t.newRow()
        .cell("RSUG_4share")
        .cell(model.newDesign(cfg, 4).total().areaUm2, 0)
        .cell("mt19937_noshare")
        .cell(model.mt19937Unit(1).areaUm2, 0);
    t.newRow()
        .cell("RSUG_optimistic")
        .cell(model.newDesignOptimistic(cfg).total().areaUm2, 0)
        .cell("mt19937_4share")
        .cell(model.mt19937Unit(4).areaUm2, 0);
    t.newRow()
        .cell("Intel DRNG (part)")
        .cell(model.intelDrngUnit().areaUm2, 0)
        .cell("mt19937_208share")
        .cell(model.mt19937Unit(208).areaUm2, 0);
    t.print(std::cout);

    std::printf("\nPaper reference: RSUG 2903/2303/1867, DRNG 3721, "
                "LFSR 2186, mt19937 19269/6507/2336.\n");
    std::printf("Prev RSU-G power vs Intel DRNG: %.0f%% "
                "(paper: 13%% in similar area)\n",
                100.0 *
                    model.previousDesign(
                             core::RsuConfig::previousDesign())
                        .total()
                        .powerMw /
                    model.intelDrngUnit().powerMw);
    return 0;
}
