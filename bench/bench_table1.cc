/**
 * @file
 * Table I: standard deviation of VoI across the 30 tested images for
 * 2/4/6/8 labels, software-only vs. new RSU-G.  The paper reports
 * near-identical standard deviations (0.63-0.79 vs 0.63-0.76),
 * showing the hardware sampler adds no quality variance.
 */

#include "bench_common.hh"

using namespace retsim;
using namespace retsim::bench;

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    const int sweeps = args.getIntIn("sweeps", 30, 1);
    const int images = args.getIntIn("images", 30, 1);
    const std::uint64_t seed = args.getIntIn<std::uint64_t>("seed", 42, 0);
    args.rejectUnread();

    printHeader("Table I — std-dev of VoI across 30 images",
                "Tab. I (Sec. III-D.3): software and new RSU-G show "
                "the same VoI spread at every label count");

    auto rsu = rsuFactory(core::RsuConfig::newDesign());
    auto sw = softwareFactory();

    util::TextTable t({"", "2-label", "4-label", "6-label",
                       "8-label"});
    t.newRow().cell("Software-only");
    std::vector<double> sw_sd, rsu_sd;
    for (int k : {2, 4, 6, 8}) {
        auto scenes = img::standardSegmentationSuite(images, k);
        auto voi = runSegmentationSuite(scenes, sw, sweeps, seed);
        util::RunningStats st;
        for (double v : voi)
            st.add(v);
        sw_sd.push_back(st.stddev());
        t.cell(st.stddev(), 2);
    }
    t.newRow().cell("New-RSUG");
    for (std::size_t i = 0; i < 4; ++i) {
        int k = 2 * (static_cast<int>(i) + 1);
        auto scenes = img::standardSegmentationSuite(images, k);
        auto voi = runSegmentationSuite(scenes, rsu, sweeps, seed);
        util::RunningStats st;
        for (double v : voi)
            st.add(v);
        rsu_sd.push_back(st.stddev());
        t.cell(st.stddev(), 2);
    }
    t.print(std::cout);

    double max_delta = 0.0;
    for (std::size_t i = 0; i < 4; ++i)
        max_delta =
            std::max(max_delta, std::abs(sw_sd[i] - rsu_sd[i]));
    std::printf("\nShape check: max |delta std-dev| = %.3f -> %s\n",
                max_delta,
                max_delta < 0.15
                    ? "REPRODUCED (equal variance within noise)"
                    : "larger than expected");
    return 0;
}
