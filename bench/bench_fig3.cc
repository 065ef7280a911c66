/**
 * @file
 * Figure 3: software-only vs. the previously proposed RSU-G, BP on
 * three stereo datasets.  The paper shows the previous design
 * mislabeling >90% of pixels while software lands at 27.0 / 12.6 /
 * 27.3 percent on teddy / poster / art.  The absolute numbers differ
 * on our synthetic analogs; the shape — software far below, previous
 * RSU-G near-total failure — is the reproduced claim.
 */

#include "bench_common.hh"

using namespace retsim;
using namespace retsim::bench;

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    const int sweeps = args.getIntIn("sweeps", 200, 1);
    const std::uint64_t seed = args.getIntIn<std::uint64_t>("seed", 42, 0);
    args.rejectUnread();

    printHeader("Figure 3 — Software-only vs. previous RSU-G "
                "result quality (stereo BP %)",
                "Fig. 3 (Sec. III-B): previous RSU-G produces BP > "
                "90% on all three datasets");

    auto scenes = img::standardStereoSuite();
    auto sw = runStereoSuite(scenes, softwareFactory(), sweeps, seed);
    auto prev = runStereoSuite(
        scenes, rsuFactory(core::RsuConfig::previousDesign()), sweeps,
        seed);

    util::TextTable t({"dataset", "labels", "software BP%",
                       "prev RSU-G BP%", "software RMS",
                       "prev RSU-G RMS"});
    for (std::size_t i = 0; i < scenes.size(); ++i) {
        t.newRow()
            .cell(scenes[i].name)
            .cell(scenes[i].numLabels)
            .cell(sw.bp[i], 2)
            .cell(prev.bp[i], 2)
            .cell(sw.rms[i], 2)
            .cell(prev.rms[i], 2);
    }
    t.newRow()
        .cell("average")
        .cell("-")
        .cell(sw.avgBp, 2)
        .cell(prev.avgBp, 2)
        .cell("-")
        .cell("-");
    t.print(std::cout);

    std::printf("\nShape check: prev RSU-G avg BP %.1f%% vs software "
                "%.1f%% -> %s\n",
                prev.avgBp, sw.avgBp,
                prev.avgBp > 70.0 && sw.avgBp < 35.0
                    ? "REPRODUCED (catastrophic prev-design failure)"
                    : "NOT reproduced");
    return 0;
}
