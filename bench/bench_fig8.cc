/**
 * @file
 * Figure 8: result quality over the (Time_bits x Truncation) design
 * space on the stereo dataset poster.
 *
 * The paper's heat map shows quality improving either by adding time
 * bits or by raising truncation up to a point, with an iso-quality
 * diagonal; the chosen design point (Time_bits = 5, Truncation = 0.5)
 * sits on it.  We print the BP grid and mark the chosen point.
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

    printHeader("Figure 8 — BP over Time_bits x Truncation (poster)",
                "Fig. 8 (Sec. III-C.3): iso-quality diagonal; chosen "
                "point (5, 0.5) marked with *");

    auto scene = img::makeStereoScene(img::stereoPosterSpec(),
                                      0x905712ULL);
    std::vector<img::StereoScene> scenes = {scene};

    const std::vector<unsigned> time_bits = {3, 4, 5, 6, 7, 8};
    const std::vector<double> truncations = {0.01, 0.05, 0.1, 0.2,
                                             0.3, 0.5, 0.7, 0.9};

    std::vector<std::string> header = {"Time_bits"};
    for (double tr : truncations)
        header.push_back("T=" + util::formatFixed(tr, 2));
    util::TextTable t(header);

    for (unsigned tb : time_bits) {
        t.newRow().cell(std::to_string(tb));
        for (double tr : truncations) {
            core::RsuConfig cfg = core::RsuConfig::newDesign();
            cfg.timeBits = tb;
            cfg.truncation = tr;
            // Sec. III-C.3 convention: truncated TTFs round to t_max.
            // Combined with a hardware comparator's deterministic tie
            // handling this is what degrades the extremes of the
            // plane (with idealized random ties the plane is flat —
            // see EXPERIMENTS.md).
            cfg.truncationPolicy =
                core::TruncationPolicy::ClampToLastBin;
            cfg.tieBreak = core::TieBreak::First;
            auto r = runStereoSuite(scenes, rsuFactory(cfg), sweeps,
                                    seed);
            std::string cellv = util::formatFixed(r.avgBp, 1);
            if (tb == 5 && tr == 0.5)
                cellv += "*";
            t.cell(cellv);
        }
    }
    t.print(std::cout, "BP% on poster (lower = better quality)");

    std::printf("\nReading guide: within a row, quality improves as "
                "truncation grows up to the mid band;\nwithin a "
                "column, more time bits help.  Points along the "
                "down-left diagonal trade truncation\n(more RET "
                "network replicas) against time bits (more RET "
                "circuit replicas) at equal quality.\n");
    return 0;
}
