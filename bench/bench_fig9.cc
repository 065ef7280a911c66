/**
 * @file
 * Figure 9: result quality of the new RSU-G design (Energy 8, Lambda
 * 4, Time 5, Truncation 0.5) against software-only across all three
 * applications — stereo BP (9a), motion end-point error (9c) and
 * segmentation VoI over 30 images x {2,4,6,8} labels (9d).
 */

#include "bench_common.hh"

using namespace retsim;
using namespace retsim::bench;

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    const int stereo_sweeps = args.getIntIn("stereo-sweeps", 200, 1);
    const int motion_sweeps = args.getIntIn("motion-sweeps", 150, 1);
    const int seg_sweeps = args.getIntIn("seg-sweeps", 30, 1);
    const int seg_images = args.getIntIn("seg-images", 30, 1);
    const std::uint64_t seed = args.getIntIn<std::uint64_t>("seed", 42, 0);

    auto rsu = rsuFactory(core::RsuConfig::newDesign());
    auto sw = softwareFactory();

    // ------------------------------------------------------- Fig. 9a
    printHeader("Figure 9a — stereo BP, new RSU-G vs software",
                "Fig. 9a: differences of 3% / 0.1% / 0.5% BP on "
                "teddy / poster / art");
    auto stereo_scenes = img::standardStereoSuite();
    auto s_sw = runStereoSuite(stereo_scenes, sw, stereo_sweeps, seed);
    auto s_rsu =
        runStereoSuite(stereo_scenes, rsu, stereo_sweeps, seed);
    util::TextTable t9a(
        {"dataset", "software BP%", "new RSU-G BP%", "delta"});
    for (std::size_t i = 0; i < stereo_scenes.size(); ++i) {
        t9a.newRow()
            .cell(stereo_scenes[i].name)
            .cell(s_sw.bp[i], 2)
            .cell(s_rsu.bp[i], 2)
            .cell(s_rsu.bp[i] - s_sw.bp[i], 2);
    }
    t9a.print(std::cout);

    // ------------------------------------------------------- Fig. 9c
    printHeader("Figure 9c — motion end-point error, new RSU-G vs "
                "software",
                "Fig. 9c: comparable EPE on Venus / RubberWhale / "
                "Dimetrodon");
    auto motion_scenes = img::standardMotionSuite();
    auto m_sw = runMotionSuite(motion_scenes, sw, motion_sweeps, seed);
    auto m_rsu =
        runMotionSuite(motion_scenes, rsu, motion_sweeps, seed);
    util::TextTable t9c(
        {"dataset", "software EPE", "new RSU-G EPE", "delta"});
    for (std::size_t i = 0; i < motion_scenes.size(); ++i) {
        t9c.newRow()
            .cell(motion_scenes[i].name)
            .cell(m_sw[i], 3)
            .cell(m_rsu[i], 3)
            .cell(m_rsu[i] - m_sw[i], 3);
    }
    t9c.print(std::cout);

    // ------------------------------------------------------- Fig. 9d
    printHeader("Figure 9d — segmentation VoI, new RSU-G vs software",
                "Fig. 9d: comparable VoI over 30 BSD-analog images "
                "at 2/4/6/8 segments (lower is better)");
    util::TextTable t9d({"labels", "software mean VoI",
                         "new RSU-G mean VoI", "delta"});
    for (int k : {2, 4, 6, 8}) {
        auto scenes = img::standardSegmentationSuite(seg_images, k);
        auto v_sw =
            runSegmentationSuite(scenes, sw, seg_sweeps, seed);
        auto v_rsu =
            runSegmentationSuite(scenes, rsu, seg_sweeps, seed);
        util::RunningStats st_sw, st_rsu;
        for (double v : v_sw)
            st_sw.add(v);
        for (double v : v_rsu)
            st_rsu.add(v);
        t9d.newRow()
            .cell(k)
            .cell(st_sw.mean(), 3)
            .cell(st_rsu.mean(), 3)
            .cell(st_rsu.mean() - st_sw.mean(), 3);
    }
    t9d.print(std::cout);
    return 0;
}
