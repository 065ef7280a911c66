/**
 * @file
 * Tests for the batched row-sampling path: bit-exactness of
 * sampleRow() and the per-pixel sample() loop against a scalar
 * reference (including identical RNG consumption) for all three
 * samplers across quantization modes, truncation policies and
 * tie-break modes; the process-wide LambdaLut cache; the striped
 * solver's counter fold-back (mergeStats); and byte-identity of the
 * batched CheckerboardGibbsSolver and the raster GibbsSolver against
 * reference reimplementations of the scalar solvers.
 *
 * RsuSampler::sample() is itself a one-pixel sampleRow() outside the
 * binned fast path, so every RSU case checks against the independent
 * literal stage 1-5 arithmetic of ReferenceRsuSampler instead.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "apps/denoising.hh"
#include "core/energy_to_lambda.hh"
#include "core/sampler_cdf.hh"
#include "core/sampler_rsu.hh"
#include "core/sampler_software.hh"
#include "img/synthetic.hh"
#include "mrf/checkerboard.hh"
#include "mrf/gibbs.hh"
#include "mrf/problem.hh"
#include "rng/rng.hh"
#include "rsu_reference.hh"

namespace {

using namespace retsim;
using namespace retsim::core;
using testing_util::ReferenceRsuSampler;

/** Pixel-major energy plane with varied magnitudes, exact ties and
 *  negative entries (which the RSU quantizer clamps to zero). */
std::vector<float>
energyPlane(int pixels, int m, std::uint64_t seed)
{
    rng::Xoshiro256 gen(seed);
    std::vector<float> e(static_cast<std::size_t>(pixels) * m);
    for (std::size_t i = 0; i < e.size(); ++i) {
        switch (gen.nextBounded(4)) {
          case 0: // small, tie-prone integers
            e[i] = static_cast<float>(gen.nextBounded(6));
            break;
          case 1: // mid-range energies
            e[i] = static_cast<float>(gen.nextDouble() * 60.0);
            break;
          case 2: // near the 8-bit saturation point
            e[i] = 200.0f + static_cast<float>(gen.nextDouble() * 80.0);
            break;
          default: // occasionally negative
            e[i] = static_cast<float>(gen.nextDouble() * 8.0 - 4.0);
            break;
        }
    }
    return e;
}

/**
 * Assert that the sampler's per-pixel sample() loop and its sampleRow()
 * both reproduce the scalar sample() loop of a reference sampler,
 * each on a fresh instance: same labels, same RNG consumption (the
 * next raw draw after the batch must agree) and the same
 * total/no-sample/tie counters.
 */
template <typename MakeReference, typename MakeSampler>
void
expectRowMatchesScalar(MakeReference make_reference, MakeSampler make,
                       int m, double temperature, std::uint64_t seed)
{
    constexpr int kPixels = 57; // odd, to catch size bookkeeping
    auto plane = energyPlane(kPixels, m, seed);
    std::vector<int> current(kPixels);
    for (int i = 0; i < kPixels; ++i)
        current[i] = (i * 5) % m;

    auto scalar_loop = [&](mrf::LabelSampler &s, rng::Rng &gen) {
        std::vector<int> out(kPixels);
        for (int i = 0; i < kPixels; ++i)
            out[i] = s.sample(
                std::span<const float>(
                    plane.data() + static_cast<std::size_t>(i) * m,
                    static_cast<std::size_t>(m)),
                temperature, current[i], gen);
        return out;
    };

    auto reference = make_reference();
    rng::Xoshiro256 ref_gen(seed ^ 0x5eed);
    const std::vector<int> ref_out = scalar_loop(*reference, ref_gen);
    const std::uint64_t ref_next = ref_gen.next64();

    auto scalar_sampler = make();
    rng::Xoshiro256 scalar_gen(seed ^ 0x5eed);
    const std::vector<int> scalar_out =
        scalar_loop(*scalar_sampler, scalar_gen);

    auto batched_sampler = make();
    rng::Xoshiro256 batched_gen(seed ^ 0x5eed);
    std::vector<int> batched_out(kPixels);
    batched_sampler->sampleRow(plane, m, temperature, current,
                               batched_out, batched_gen);

    const std::string where = scalar_sampler->name() + " at T=" +
                              std::to_string(temperature);
    EXPECT_EQ(ref_out, scalar_out) << "sample() labels, " << where;
    EXPECT_EQ(ref_out, batched_out) << "sampleRow() labels, " << where;
    EXPECT_EQ(ref_next, scalar_gen.next64())
        << "sample() RNG consumption, " << where;
    EXPECT_EQ(ref_next, batched_gen.next64())
        << "sampleRow() RNG consumption, " << where;
    for (const mrf::LabelSampler *s :
         {scalar_sampler.get(), batched_sampler.get()}) {
        const mrf::SamplerStats want = reference->stats(), got = s->stats();
        EXPECT_EQ(want.samples, got.samples) << where;
        EXPECT_EQ(want.noSample, got.noSample) << where;
        EXPECT_EQ(want.ties, got.ties) << where;
    }
}

template <typename MakeReference, typename MakeSampler>
void
expectRowMatchesScalarAcrossTemps(MakeReference make_reference,
                                  MakeSampler make, int m)
{
    for (double t : {48.0, 6.0, 1.7, 0.6})
        for (std::uint64_t seed : {11ull, 202ull, 3003ull})
            expectRowMatchesScalar(make_reference, make, m, t, seed);
}

/** An RsuSampler against the literal reference of the same config. */
void
expectRsuMatchesReference(const RsuConfig &cfg, int m)
{
    expectRowMatchesScalarAcrossTemps(
        [cfg] { return std::make_unique<ReferenceRsuSampler>(cfg); },
        [cfg] { return std::make_unique<RsuSampler>(cfg); }, m);
}

// ------------------------------------------------------ bit-exactness

TEST(BatchedSampler, SoftwareMatchesScalar)
{
    auto make = [] { return std::make_unique<SoftwareSampler>(); };
    for (int m : {2, 16, 31})
        expectRowMatchesScalarAcrossTemps(make, make, m);
}

TEST(BatchedSampler, CdfLutMatchesScalar)
{
    auto make = [] {
        return std::make_unique<CdfLutSampler>(
            std::make_unique<rng::Mt19937>(99), 64);
    };
    for (int m : {2, 16, 31})
        expectRowMatchesScalarAcrossTemps(make, make, m);
}

TEST(BatchedSampler, RsuNewDesignMatchesScalar)
{
    // Binned time + random tie-break: the order-preserving per-pixel
    // race path.
    for (int m : {2, 16})
        expectRsuMatchesReference(RsuConfig::newDesign(), m);
}

TEST(BatchedSampler, RsuPreviousDesignMatchesScalar)
{
    // Integer lambda, no scaling, no cut-off, tight truncation.
    expectRsuMatchesReference(RsuConfig::previousDesign(), 16);
}

TEST(BatchedSampler, RsuDeterministicTieBreaksMatchScalar)
{
    // First/Last tie-breaks take the bulk-uniform fused-race path.
    for (TieBreak tb : {TieBreak::First, TieBreak::Last}) {
        RsuConfig cfg = RsuConfig::newDesign();
        cfg.tieBreak = tb;
        expectRsuMatchesReference(cfg, 16);
    }
}

TEST(BatchedSampler, RsuClampTruncationMatchesScalar)
{
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.truncationPolicy = TruncationPolicy::ClampToLastBin;
    expectRsuMatchesReference(cfg, 16);

    cfg.tieBreak = TieBreak::First; // clamp + fused race path
    expectRsuMatchesReference(cfg, 16);
}

/** The float escapes of the paper's precision methodology. */
std::vector<RsuConfig>
floatEscapeConfigs()
{
    std::vector<RsuConfig> cfgs;
    // Float time (continuous race, bulk path)...
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.timeQuant = TimeQuant::Float;
    cfgs.push_back(cfg);

    // ...float lambda over quantized energies (tabled realLambda)...
    cfg = RsuConfig::newDesign();
    cfg.lambdaQuant = LambdaQuant::Float;
    cfgs.push_back(cfg);

    // ...float energies (per-label conversion fallback)...
    cfg = RsuConfig::newDesign();
    cfg.floatEnergy = true;
    cfgs.push_back(cfg);

    // ...and the all-float methodology baseline.
    cfg.lambdaQuant = LambdaQuant::Float;
    cfg.timeQuant = TimeQuant::Float;
    cfgs.push_back(cfg);
    return cfgs;
}

TEST(BatchedSampler, RsuFloatEscapesMatchScalar)
{
    for (const RsuConfig &cfg : floatEscapeConfigs())
        expectRsuMatchesReference(cfg, 16);

    // Float time through the categorical fast path: one CDF inversion
    // over the same rates.
    RsuConfig cfg = RsuConfig::newDesign();
    cfg.timeQuant = TimeQuant::Float;
    cfg.raceMode = RaceMode::FastPath;
    expectRsuMatchesReference(cfg, 16);
}

TEST(BatchedSampler, RsuCountersMatchScalar)
{
    // Both entries must account samples, no-sample events, ties and
    // conversion rebuilds exactly like the literal reference, across a
    // temperature change.
    const int m = 16;
    auto plane = energyPlane(200, m, 77);
    std::vector<int> current(200, 1);
    std::vector<int> out(200);
    auto pixel = [&](int i) {
        return std::span<const float>(
            plane.data() + static_cast<std::size_t>(i) * m,
            static_cast<std::size_t>(m));
    };

    ReferenceRsuSampler reference(RsuConfig::newDesign());
    RsuSampler scalar(RsuConfig::newDesign());
    RsuSampler batched(RsuConfig::newDesign());
    rng::Xoshiro256 g0(123), g1(123), g2(123);
    for (double t : {0.8, 0.8, 3.0}) {
        for (int i = 0; i < 200; ++i) {
            reference.sample(pixel(i), t, current[i], g0);
            scalar.sample(pixel(i), t, current[i], g1);
        }
        batched.sampleRow(plane, m, t, current, out, g2);
    }
    ASSERT_GT(reference.stats().noSample + reference.stats().ties, 0u);

    for (const RsuSampler *s : {&scalar, &batched}) {
        EXPECT_EQ(reference.stats().samples, s->totalSamples());
        EXPECT_EQ(reference.stats().noSample, s->noSampleEvents());
        EXPECT_EQ(reference.stats().ties, s->tieEvents());
        EXPECT_EQ(reference.conversionRebuilds(),
                  s->conversionRebuilds());
    }
    EXPECT_EQ(g0.next64(), g1.next64());
}

// ---------------------------------------------------------- LUT cache

TEST(LambdaLutCache, SharesTablesByConfigAndTemperature)
{
    LambdaLutCache &cache = LambdaLutCache::global();
    cache.clear();

    RsuConfig cfg = RsuConfig::newDesign();
    auto a = cache.get(cfg, 3.25);
    auto b = cache.get(cfg, 3.25);
    EXPECT_EQ(a.get(), b.get()) << "same (config, T) must share";
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);

    auto c = cache.get(cfg, 3.5);
    EXPECT_NE(a.get(), c.get()) << "different T must not share";

    RsuConfig other = cfg;
    other.lambdaBits = 6;
    EXPECT_NE(a.get(), cache.get(other, 3.25).get())
        << "different lambda precision must not share";

    // Scaling and the time parameters do not enter quantizeLambda(),
    // so configs differing only there share a table.
    RsuConfig scaled = cfg;
    scaled.decayRateScaling = !cfg.decayRateScaling;
    scaled.timeBits = cfg.timeBits + 2;
    scaled.truncation = 0.125;
    EXPECT_EQ(a.get(), cache.get(scaled, 3.25).get());

    EXPECT_EQ(cache.size(), 3u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

TEST(LambdaLutCache, CachedTableIsBitIdenticalToDirectBuild)
{
    LambdaLutCache &cache = LambdaLutCache::global();
    RsuConfig cfg = RsuConfig::previousDesign();
    auto cached = cache.get(cfg, 1.375);
    LambdaLut direct(cfg, 1.375);
    ASSERT_EQ(cached->entries(), direct.entries());
    for (std::size_t e = 0; e < direct.entries(); ++e)
        EXPECT_EQ(cached->lookup(e), direct.lookup(e)) << "entry " << e;
}

// ----------------------------------------- solver-level bit-exactness

mrf::MrfProblem
denoisingProblem(int side, std::uint64_t seed)
{
    img::ImageU8 clean(side, side);
    for (int y = 0; y < side; ++y)
        for (int x = 0; x < side; ++x)
            clean(x, y) = static_cast<std::uint8_t>(
                img::textureIntensity(x, y, 0x777));
    img::ImageU8 noisy = apps::addGaussianNoise(clean, 12.0, seed);
    return apps::buildDenoisingProblem(noisy);
}

/** Potts problem with randomized, tie-prone singletons. */
mrf::MrfProblem
randomProblem(int w, int h, int m, std::uint64_t seed)
{
    mrf::MrfProblem p(w, h,
                      mrf::PairwiseTable(mrf::DistanceKind::Binary, m,
                                         2.5),
                      "random");
    rng::Xoshiro256 gen(seed);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            for (int l = 0; l < m; ++l)
                p.singleton(x, y, l) = static_cast<float>(
                    gen.nextBounded(2) ? gen.nextDouble() * 40.0
                                       : gen.nextBounded(6));
    return p;
}

/** Boundary-heavy grids: a single pixel, a 2x2, one column, one row,
 *  and a 3x3 whose only interior pixel is the center. */
std::vector<mrf::MrfProblem>
tinyProblems()
{
    std::vector<mrf::MrfProblem> out;
    for (auto [w, h] : {std::pair{1, 1}, std::pair{2, 2}, std::pair{1, 7},
                        std::pair{9, 1}, std::pair{3, 3}})
        out.push_back(randomProblem(w, h, 4, 1000 + w));
    return out;
}

mrf::SolverConfig
annealConfig(int sweeps, std::uint64_t seed)
{
    mrf::SolverConfig cfg;
    cfg.annealing.sweeps = sweeps;
    cfg.annealing.t0 = 8.0;
    cfg.annealing.tEnd = 0.5;
    cfg.seed = seed;
    return cfg;
}

/** The pre-batching serial solver, reimplemented literally: one RNG
 *  stream, pixel-by-pixel conditionalEnergies() + sample().  Note the
 *  reproducibility contract this checks is "matches retsim vecmath":
 *  the reference samplers draw their exponentials through the shared
 *  slog/vlog core, so this reference is byte-comparable to the batched
 *  path under any SIMD backend (vecmath_test.cc covers the backend
 *  sweep). */
img::LabelMap
referenceSerialSolve(const mrf::MrfProblem &problem,
                     mrf::LabelSampler &sampler,
                     const mrf::SolverConfig &cfg)
{
    img::LabelMap labels(problem.width(), problem.height(), 0);
    rng::Xoshiro256 gen(cfg.seed);
    const int m = problem.numLabels();
    if (cfg.randomInit) {
        for (int &l : labels.data())
            l = static_cast<int>(gen.nextBounded(m));
    }
    std::vector<float> energies(m);
    for (int s = 0; s < cfg.annealing.sweeps; ++s) {
        double temperature = cfg.annealing.temperature(s);
        for (int color = 0; color < 2; ++color)
            for (int y = 0; y < problem.height(); ++y)
                for (int x = (y + color) % 2; x < problem.width();
                     x += 2) {
                    problem.conditionalEnergies(labels, x, y,
                                                energies);
                    labels(x, y) = sampler.sample(
                        energies, temperature, labels(x, y), gen);
                }
    }
    return labels;
}

/** The pre-batching striped solver, reimplemented literally: one
 *  clone and one (seed, sweep, color, stripe) stream per stripe,
 *  scalar sample() per pixel.  Stripes run sequentially, which is the
 *  same chain by the determinism contract. */
img::LabelMap
referenceStripedSolve(const mrf::MrfProblem &problem,
                      mrf::LabelSampler &sampler,
                      const mrf::SolverConfig &cfg, int stripes)
{
    img::LabelMap labels(problem.width(), problem.height(), 0);
    rng::Xoshiro256 init_gen(cfg.seed);
    const int m = problem.numLabels();
    const int height = problem.height();
    if (cfg.randomInit) {
        for (int &l : labels.data())
            l = static_cast<int>(init_gen.nextBounded(m));
    }
    std::vector<std::unique_ptr<mrf::LabelSampler>> clones(
        static_cast<std::size_t>(stripes));
    for (int k = 0; k < stripes; ++k)
        clones[k] = sampler.clone(static_cast<std::uint64_t>(k));

    std::vector<float> energies(m);
    for (int s = 0; s < cfg.annealing.sweeps; ++s) {
        double temperature = cfg.annealing.temperature(s);
        for (int color = 0; color < 2; ++color) {
            for (int k = 0; k < stripes; ++k) {
                const int y0 = static_cast<int>(
                    static_cast<std::int64_t>(k) * height / stripes);
                const int y1 = static_cast<int>(
                    static_cast<std::int64_t>(k + 1) * height /
                    stripes);
                std::uint64_t seed = rng::streamSeed(
                    cfg.seed, static_cast<std::uint64_t>(s));
                seed = rng::streamSeed(
                    seed, static_cast<std::uint64_t>(color));
                seed = rng::streamSeed(
                    seed, static_cast<std::uint64_t>(k));
                rng::Xoshiro256 gen(seed);
                for (int y = y0; y < y1; ++y)
                    for (int x = (y + color) % 2;
                         x < problem.width(); x += 2) {
                        problem.conditionalEnergies(labels, x, y,
                                                    energies);
                        labels(x, y) = clones[k]->sample(
                            energies, temperature, labels(x, y), gen);
                    }
            }
        }
    }
    return labels;
}

/** The batched serial checkerboard solver against the literal serial
 *  reference, for the software, RSU and CDF-LUT samplers. */
void
expectSerialMatchesReference(const mrf::MrfProblem &p,
                             const mrf::SolverConfig &cfg)
{
    SCOPED_TRACE(std::to_string(p.width()) + "x" +
                 std::to_string(p.height()));
    {
        SoftwareSampler ref, batched;
        EXPECT_EQ(referenceSerialSolve(p, ref, cfg).data(),
                  mrf::CheckerboardGibbsSolver(cfg)
                      .run(p, batched)
                      .data());
    }
    {
        ReferenceRsuSampler ref(RsuConfig::newDesign());
        RsuSampler batched(RsuConfig::newDesign());
        EXPECT_EQ(referenceSerialSolve(p, ref, cfg).data(),
                  mrf::CheckerboardGibbsSolver(cfg)
                      .run(p, batched)
                      .data());
    }
    {
        CdfLutSampler ref(std::make_unique<rng::Mt19937>(7), 64);
        CdfLutSampler batched(std::make_unique<rng::Mt19937>(7), 64);
        EXPECT_EQ(referenceSerialSolve(p, ref, cfg).data(),
                  mrf::CheckerboardGibbsSolver(cfg)
                      .run(p, batched)
                      .data());
    }
}

/** The batched striped solver against the literal striped reference,
 *  on one and on three threads. */
void
expectStripedMatchesReference(const mrf::MrfProblem &p,
                              mrf::SolverConfig cfg)
{
    // The solver clamps the stripe count to the row count.
    const int stripes = std::min(cfg.stripes, p.height());
    for (int threads : {1, 3}) {
        SCOPED_TRACE(std::to_string(p.width()) + "x" +
                     std::to_string(p.height()) +
                     " threads=" + std::to_string(threads));
        cfg.threads = threads;
        SoftwareSampler ref, batched;
        EXPECT_EQ(referenceStripedSolve(p, ref, cfg, stripes).data(),
                  mrf::CheckerboardGibbsSolver(cfg)
                      .run(p, batched)
                      .data());

        ReferenceRsuSampler rsu_ref(RsuConfig::newDesign());
        RsuSampler rsu_batched(RsuConfig::newDesign());
        EXPECT_EQ(referenceStripedSolve(p, rsu_ref, cfg, stripes).data(),
                  mrf::CheckerboardGibbsSolver(cfg)
                      .run(p, rsu_batched)
                      .data());
    }
}

/** The raster and random-scan GibbsSolver with the RSU row kernel
 *  against the literal race reference: labels, trace and counters. */
void
expectRasterMatchesReference(const mrf::MrfProblem &p)
{
    std::vector<RsuConfig> cfgs = floatEscapeConfigs();
    cfgs.push_back(RsuConfig::newDesign());
    cfgs.push_back(RsuConfig::previousDesign());
    RsuConfig first_tie = RsuConfig::newDesign();
    first_tie.tieBreak = TieBreak::First;
    cfgs.push_back(first_tie);

    for (bool random_scan : {false, true}) {
        mrf::SolverConfig cfg = annealConfig(5, 41);
        cfg.randomScan = random_scan;
        const mrf::GibbsSolver solver(cfg);
        for (const RsuConfig &rsu_cfg : cfgs) {
            ReferenceRsuSampler ref(rsu_cfg);
            RsuSampler rsu(rsu_cfg);
            mrf::SolverTrace ref_trace, rsu_trace;
            const img::LabelMap ref_labels =
                solver.run(p, ref, &ref_trace);
            const img::LabelMap rsu_labels =
                solver.run(p, rsu, &rsu_trace);
            SCOPED_TRACE(rsu.name() +
                         (random_scan ? " random scan " : " raster ") +
                         std::to_string(p.width()) + "x" +
                         std::to_string(p.height()));
            EXPECT_EQ(ref_labels.data(), rsu_labels.data());
            EXPECT_EQ(ref_trace.energyPerSweep, rsu_trace.energyPerSweep);
            EXPECT_EQ(ref_trace.temperaturePerSweep,
                      rsu_trace.temperaturePerSweep);
            EXPECT_EQ(ref_trace.pixelUpdates, rsu_trace.pixelUpdates);
            EXPECT_EQ(ref_trace.labelChanges, rsu_trace.labelChanges);
            EXPECT_EQ(ref.stats().noSample, rsu.noSampleEvents());
            EXPECT_EQ(ref.stats().ties, rsu.tieEvents());
            EXPECT_EQ(ref.conversionRebuilds(), rsu.conversionRebuilds());
        }
    }
}

mrf::SolverConfig
stripedConfig()
{
    mrf::SolverConfig cfg = annealConfig(5, 23);
    cfg.stripes = 4;
    return cfg;
}

TEST(BatchedSolver, SerialByteIdenticalToScalarReference)
{
    // Odd side: both row phases hit boundary pixels.
    expectSerialMatchesReference(denoisingProblem(31, 5),
                                 annealConfig(6, 91));
}

TEST(BatchedSolver, WideAlphabetRowsMatchPerPixelSampling)
{
    // 24 labels leave the RSU fast path's packed lane (m <= 16), so
    // its rows take the general lane; the per-pixel sample() loop of
    // the same sampler type is the reference.
    const mrf::MrfProblem p = randomProblem(15, 11, 24, 67);
    const mrf::SolverConfig cfg = annealConfig(5, 13);
    RsuConfig fast = RsuConfig::newDesign();
    fast.raceMode = RaceMode::FastPath;
    {
        RsuSampler ref(fast), batched(fast);
        EXPECT_EQ(referenceSerialSolve(p, ref, cfg).data(),
                  mrf::CheckerboardGibbsSolver(cfg)
                      .run(p, batched)
                      .data());
    }
    {
        CdfLutSampler ref(std::make_unique<rng::Mt19937>(3), 64);
        CdfLutSampler batched(std::make_unique<rng::Mt19937>(3), 64);
        EXPECT_EQ(referenceSerialSolve(p, ref, cfg).data(),
                  mrf::CheckerboardGibbsSolver(cfg)
                      .run(p, batched)
                      .data());
    }
}

TEST(BatchedSolver, StripedByteIdenticalToScalarReference)
{
    expectStripedMatchesReference(denoisingProblem(30, 17),
                                  stripedConfig());
}

TEST(BatchedSolver, RasterGibbsLiteralRaceMatchesReference)
{
    // The raster solver samples pixel by pixel through sample(), which
    // for the literal race is the one-pixel row kernel; the literal
    // reference must produce the same labels, trace and counters.
    expectRasterMatchesReference(denoisingProblem(19, 29));
}

TEST(BatchedSolver, TinyAndDegenerateGrids)
{
    // Grids where most or all pixels are on the boundary, through the
    // serial, striped (more stripes than rows) and raster solvers.
    for (const mrf::MrfProblem &p : tinyProblems()) {
        expectSerialMatchesReference(p, annealConfig(6, 91));
        expectStripedMatchesReference(p, stripedConfig());
        expectRasterMatchesReference(p);
    }
}

// ----------------------------------------------------- stats foldback

TEST(BatchedSolver, StripedRunFoldsCloneCountersIntoParent)
{
    mrf::MrfProblem p = denoisingProblem(24, 3);
    mrf::SolverConfig cfg = annealConfig(6, 13);

    RsuSampler serial(RsuConfig::newDesign());
    mrf::CheckerboardGibbsSolver(cfg).run(p, serial);

    cfg.threads = 3;
    cfg.stripes = 5;
    RsuSampler striped(RsuConfig::newDesign());
    mrf::CheckerboardGibbsSolver(cfg).run(p, striped);

    // Every pixel update must be accounted on the parent after the
    // fold-back, exactly as many as the serial run.
    EXPECT_EQ(striped.totalSamples(), serial.totalSamples());
    EXPECT_EQ(striped.totalSamples(),
              static_cast<std::uint64_t>(6) * 24 * 24);
    // The striped chain differs from the serial chain, so event
    // counts need not match serial exactly — but a cold clone saw
    // every temperature, so rebuild accounting must.
    EXPECT_EQ(striped.conversionRebuilds(),
              static_cast<std::uint64_t>(5) * 6);
    EXPECT_GT(striped.noSampleEvents() + striped.tieEvents(), 0u);
}

TEST(BatchedSolver, MergeStatsIgnoresForeignSamplerTypes)
{
    RsuSampler rsu(RsuConfig::newDesign());
    SoftwareSampler sw;
    std::uint64_t before = rsu.totalSamples();
    rsu.mergeStats(sw); // must not crash or miscount
    sw.mergeStats(rsu); // default no-op
    EXPECT_EQ(rsu.totalSamples(), before);
}

} // namespace
