/**
 * @file
 * Table III: area and power of the new RSU-G design, per component
 * (RET circuit, CMOS circuitry, label LUT) and total, plus the prose
 * anchors: equal area and 1.27x power vs. the previous design, the
 * 0.7x/0.5x RET-circuit comparison, and the converter swap.
 */

#include "bench_common.hh"
#include "hw/cost_model.hh"

using namespace retsim;
using namespace retsim::bench;

int
main(int argc, char **argv)
{
    util::CliArgs(argc, argv).rejectUnread();
    printHeader("Table III — new RSU-G area and power",
                "Tab. III (Sec. IV-C): RET 1120/0.08, CMOS 1128/3.49, "
                "LUT 655/1.42, total 2903 um^2 / 4.99 mW");

    hw::CostModel model;
    core::RsuConfig cfg = core::RsuConfig::newDesign();
    auto b = model.newDesign(cfg);

    util::TextTable t({"component", "area (um^2)", "power (mW)"});
    t.newRow().cell("RET Circuit").cell(b.retCircuit.areaUm2, 0)
        .cell(b.retCircuit.powerMw, 2);
    t.newRow().cell("CMOS Circuitry").cell(b.cmosCircuitry.areaUm2, 0)
        .cell(b.cmosCircuitry.powerMw, 2);
    t.newRow().cell("LUT").cell(b.labelLut.areaUm2, 0)
        .cell(b.labelLut.powerMw, 2);
    auto total = b.total();
    t.newRow().cell("RSU Total").cell(total.areaUm2, 0)
        .cell(total.powerMw, 2);
    t.print(std::cout);

    auto prev =
        model.previousDesign(core::RsuConfig::previousDesign());
    auto prev_total = prev.total();
    std::printf("\nPrevious RSU-G (ISCA'16): %.0f um^2, %.2f mW\n",
                prev_total.areaUm2, prev_total.powerMw);
    std::printf("New vs previous: area %.2fx, power %.2fx "
                "(paper: ~1.0x area, 1.27x power)\n",
                total.areaUm2 / prev_total.areaUm2,
                total.powerMw / prev_total.powerMw);
    std::printf("RET circuit alone: area %.2fx, power %.2fx "
                "(paper: 0.7x, 0.5x)\n",
                b.retCircuit.areaUm2 / prev.retCircuit.areaUm2,
                b.retCircuit.powerMw / prev.retCircuit.powerMw);

    auto lut_conv = model.lutConverter(cfg);
    auto cmp_conv = model.comparatorConverter(cfg);
    std::printf("Energy-to-lambda converter, comparator vs LUT: area "
                "%.2fx, power %.2fx (paper: 0.46x, 0.22x)\n",
                cmp_conv.areaUm2 / lut_conv.areaUm2,
                cmp_conv.powerMw / lut_conv.powerMw);

    std::printf("\nNaive intensity scaling (Sec. III-C.2): "
                "Lambda_bits=7 RET circuit = %.0f um^2 "
                "(paper: 12,800, 8x the 4-bit circuit)\n",
                model.intensityRetCircuit(7).areaUm2);

    std::printf("Entropy rate at 2.89 bits/sample, 1 GHz: %.2f Gb/s "
                "(paper: 2.89 Gb/s)\n",
                model.entropyRateGbps(2.89));
    return 0;
}
