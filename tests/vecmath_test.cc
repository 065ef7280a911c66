/**
 * @file
 * Tests for the SIMD vecmath layer: ULP accuracy of the retsim
 * transcendentals against libm over the input ranges the samplers
 * actually feed them, semantic tests of the fused race kernel against
 * a plain scalar re-statement, and the backend-equivalence contract —
 * the scalar fallback and every backend compiled into this binary
 * (and runnable on this CPU) must produce bit-identical kernel
 * outputs, sampler labels, and RNG consumption.  These tests are what
 * lets CI run one leg per dispatch level and treat any divergence as
 * a hard failure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "apps/denoising.hh"
#include "core/sampler_rsu.hh"
#include "core/ttf_race.hh"
#include "img/synthetic.hh"
#include "mrf/checkerboard.hh"
#include "mrf/problem.hh"
#include "rng/rng.hh"
#include "simd/kernels.hh"

namespace {

using namespace retsim;

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Distance in representable doubles (same sign, both finite). */
std::int64_t
ulpDiff(double a, double b)
{
    const auto ia = std::bit_cast<std::int64_t>(a);
    const auto ib = std::bit_cast<std::int64_t>(b);
    return std::abs(ia - ib);
}

/** Restore auto dispatch when a test forces a backend. */
struct BackendGuard
{
    ~BackendGuard() { simd::setBackend("auto"); }
};

// ------------------------------------------------------------------
// ULP accuracy vs libm.  The reproducibility contract is "matches
// retsim vecmath", not "matches std::log", so these are accuracy
// bounds, not equality: the production table-driven vlog measures
// ~2 ulp against libm and the fdlibm-style vexp ~1 ulp; the tests
// allow 8 to stay robust across libm versions.
// ------------------------------------------------------------------

TEST(Vecmath, LogUlpBoundOnUniformDomain)
{
    // The TTF draw domain: fillUniformOpenLow outputs in [2^-53, 1).
    rng::Xoshiro256 gen(11);
    std::vector<double> u(4096);
    gen.fillUniformOpenLow(u);
    u.push_back(0x1.0p-53);            // domain floor
    u.push_back(1.0 - 0x1.0p-53);      // domain ceiling
    u.push_back(0.5);
    std::vector<double> out(u.size());
    simd::kernels().logBatch(u.data(), out.data(), u.size());
    for (std::size_t i = 0; i < u.size(); ++i)
        EXPECT_LE(ulpDiff(out[i], std::log(u[i])), 8)
            << "u = " << u[i];
}

TEST(Vecmath, LogUlpBoundAcrossMagnitudes)
{
    // Log-spaced sweep across the whole finite positive range,
    // including denormals (vlogCore rescales them by 2^54).
    std::vector<double> x;
    for (int e = -1074; e <= 1023; e += 3)
        x.push_back(std::ldexp(1.37, e));
    std::vector<double> out(x.size());
    simd::kernels().logBatch(x.data(), out.data(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_LE(ulpDiff(out[i], std::log(x[i])), 8)
            << "x = " << x[i];
}

TEST(Vecmath, ExpUlpBoundOnSamplerDomain)
{
    // The sampler exponent domain: expWeights and the lambda-table
    // builds evaluate exp((e_min - e) / T) with 8-bit energies and
    // anneal temperatures down to ~0.5, i.e. exponents in [-512, 0];
    // sweep wider for margin, into the denormal-result range.
    std::vector<double> x;
    for (double v = -745.0; v <= 32.0; v += 0.37)
        x.push_back(v);
    std::vector<double> out(x.size());
    simd::kernels().expBatch(x.data(), out.data(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double ref = std::exp(x[i]);
        if (ref == 0.0)
            EXPECT_LE(out[i], std::numeric_limits<double>::denorm_min())
                << "x = " << x[i];
        else
            EXPECT_LE(ulpDiff(out[i], ref), 8) << "x = " << x[i];
    }
}

TEST(Vecmath, EdgeCasesMatchLibmSemantics)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    double in[6] = {0.0, -1.0, kInf, nan, 1.0, -0.0};
    double out[6];
    simd::kernels().logBatch(in, out, 6);
    EXPECT_EQ(out[0], -kInf);
    EXPECT_TRUE(std::isnan(out[1]));
    EXPECT_EQ(out[2], kInf);
    EXPECT_TRUE(std::isnan(out[3]));
    EXPECT_EQ(out[4], 0.0);
    EXPECT_EQ(out[5], -kInf);

    double ein[5] = {-kInf, kInf, nan, 0.0, -800.0};
    double eout[5];
    simd::kernels().expBatch(ein, eout, 5);
    EXPECT_EQ(eout[0], 0.0);
    EXPECT_EQ(eout[1], kInf);
    EXPECT_TRUE(std::isnan(eout[2]));
    EXPECT_EQ(eout[3], 1.0);
    EXPECT_EQ(eout[4], 0.0);
}

TEST(Vecmath, ScalarHelpersMatchBatchLanes)
{
    // slog/sexp are the same cores at width 1: every element of a
    // batch equals the scalar helper bit for bit, which is what lets
    // scalar samplers and batched rows share one contract.
    rng::Xoshiro256 gen(12);
    std::vector<double> u(257);
    gen.fillUniformOpenLow(u);
    std::vector<double> lg(u.size()), ex(u.size());
    simd::kernels().logBatch(u.data(), lg.data(), u.size());
    for (std::size_t i = 0; i < u.size(); ++i)
        EXPECT_EQ(lg[i], simd::slog(u[i]));
    simd::kernels().expBatch(lg.data(), ex.data(), lg.size());
    for (std::size_t i = 0; i < lg.size(); ++i)
        EXPECT_EQ(ex[i], simd::sexp(lg[i]));
}

// ------------------------------------------------------------------
// Fused race-kernel semantics vs a plain scalar restatement.
// ------------------------------------------------------------------

/** The expDrawBin contract, restated with branches. */
simd::BinRaceResult
referenceExpDrawBin(const std::vector<double> &u,
                    const std::vector<double> &rates, double t_max,
                    bool drop_truncated, std::vector<double> &bins)
{
    const std::size_t n = u.size();
    bins.resize(n);
    simd::BinRaceResult r;
    double best = kInf;
    for (std::size_t i = 0; i < n; ++i) {
        const double t = -simd::slog(u[i]) / rates[i];
        double bin;
        if (t < t_max)
            bin = std::floor(t) + 1.0;
        else
            bin = drop_truncated ? kInf : t_max;
        bins[i] = bin;
        if (bin < kInf)
            ++r.contenders;
        if (bin < best) {
            best = bin;
            r.first = r.last = static_cast<std::uint32_t>(i);
            r.tied = 1;
        } else if (bin == best && best < kInf) {
            r.last = static_cast<std::uint32_t>(i);
            ++r.tied;
        }
    }
    if (!(best < kInf))
        return simd::BinRaceResult{};
    r.bestBin = best;
    return r;
}

TEST(Vecmath, ExpDrawBinMatchesScalarRestatement)
{
    rng::Xoshiro256 gen(21);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t n = 1 + gen.nextBounded(40);
        const double t_max = 1.0 + static_cast<double>(
                                       gen.nextBounded(64));
        const bool drop = gen.nextBounded(2) != 0;
        std::vector<double> u(n), rates(n);
        gen.fillUniformOpenLow(u);
        for (std::size_t i = 0; i < n; ++i) {
            // Mix of rates that land in-window, truncate, and tie.
            switch (gen.nextBounded(3)) {
            case 0: rates[i] = 1e-4 * (1.0 + gen.nextDouble()); break;
            case 1: rates[i] = 0.5 + gen.nextDouble(); break;
            default: rates[i] = 40.0 + gen.nextDouble(); break;
            }
        }
        std::vector<double> bins(n), ref_bins;
        const simd::BinRaceResult got = simd::kernels().expDrawBin(
            u.data(), rates.data(), n, t_max, drop, bins.data());
        const simd::BinRaceResult want = referenceExpDrawBin(
            u, rates, t_max, drop, ref_bins);
        ASSERT_EQ(got.contenders, want.contenders);
        if (want.contenders != 0) {
            EXPECT_EQ(got.bestBin, want.bestBin);
            EXPECT_EQ(got.first, want.first);
            EXPECT_EQ(got.last, want.last);
            EXPECT_EQ(got.tied, want.tied);
        }
        EXPECT_EQ(bins, ref_bins);
    }
}

TEST(Vecmath, ExpDrawBinAllTruncatedReportsNoContenders)
{
    std::vector<double> u(17, 0.5), rates(17, 1e-9), bins(17);
    const simd::BinRaceResult r = simd::kernels().expDrawBin(
        u.data(), rates.data(), u.size(), 8.0,
        /*drop_truncated=*/true, bins.data());
    EXPECT_EQ(r.contenders, 0u);
    for (double b : bins)
        EXPECT_EQ(b, kInf);
}

// ------------------------------------------------------------------
// Backend equivalence: every compiled-and-runnable backend must be
// bit-identical to the scalar fallback on every kernel, including
// sizes that exercise the vector tails.
// ------------------------------------------------------------------

TEST(BackendEquivalence, AllKernelsBitIdenticalToScalar)
{
    const simd::KernelTable &ref =
        simd::kernelsFor(simd::Backend::Scalar);
    const std::vector<std::size_t> sizes = {0, 1, 2, 3, 5, 7, 8,
                                            15, 16, 17, 31, 33, 64};
    for (simd::Backend b : simd::runnableBackends()) {
        SCOPED_TRACE(simd::backendName(b));
        const simd::KernelTable &k = simd::kernelsFor(b);
        rng::Xoshiro256 gen(31);
        for (std::size_t n : sizes) {
            std::vector<double> u(n), rates(n), a1(n), a2(n);
            std::vector<float> e(n);
            gen.fillUniformOpenLow(u);
            for (std::size_t i = 0; i < n; ++i) {
                rates[i] = 0.01 + gen.nextDouble() * 30.0;
                e[i] = static_cast<float>(gen.nextDouble() * 280.0 -
                                          10.0);
            }

            k.logBatch(u.data(), a1.data(), n);
            ref.logBatch(u.data(), a2.data(), n);
            EXPECT_EQ(a1, a2);

            std::vector<double> xs(a1); // log outputs: negatives
            k.expBatch(xs.data(), a1.data(), n);
            ref.expBatch(xs.data(), a2.data(), n);
            EXPECT_EQ(a1, a2);

            k.expDraw(u.data(), rates.data(), a1.data(), n);
            ref.expDraw(u.data(), rates.data(), a2.data(), n);
            EXPECT_EQ(a1, a2);

            k.expWeights(e.data(), -2.0, 3.7, a1.data(), n);
            ref.expWeights(e.data(), -2.0, 3.7, a2.data(), n);
            EXPECT_EQ(a1, a2);

            EXPECT_EQ(k.quantizeEnergies(e.data(), 255.0, a1.data(),
                                         n),
                      ref.quantizeEnergies(e.data(), 255.0,
                                           a2.data(), n));
            EXPECT_EQ(a1, a2);

            std::vector<double> table(256);
            for (std::size_t i = 0; i < table.size(); ++i)
                table[i] = 1.0 / (1.0 + static_cast<double>(i));
            k.gatherRates(a1.data(), 0.0, table.data(), a1.data(),
                          n);
            ref.gatherRates(a2.data(), 0.0, table.data(), a2.data(),
                            n);
            EXPECT_EQ(a1, a2);

            k.quantizeGatherRates(e.data(), 255.0, true,
                                  table.data(), a1.data(), n);
            ref.quantizeGatherRates(e.data(), 255.0, true,
                                    table.data(), a2.data(), n);
            EXPECT_EQ(a1, a2);

            if (n > 0) {
                EXPECT_EQ(k.argmin(u.data(), n),
                          ref.argmin(u.data(), n));
                for (bool drop : {false, true}) {
                    const simd::BinRaceResult r1 = k.expDrawBin(
                        u.data(), rates.data(), n, 16.0, drop,
                        a1.data());
                    const simd::BinRaceResult r2 = ref.expDrawBin(
                        u.data(), rates.data(), n, 16.0, drop,
                        a2.data());
                    EXPECT_EQ(a1, a2);
                    EXPECT_EQ(r1.bestBin, r2.bestBin);
                    EXPECT_EQ(r1.first, r2.first);
                    EXPECT_EQ(r1.last, r2.last);
                    EXPECT_EQ(r1.tied, r2.tied);
                    EXPECT_EQ(r1.contenders, r2.contenders);
                }
            }

            std::vector<float> s(n), r2(n), r3(n), r4(n), r5(n);
            std::vector<float> o1(n), o2(n);
            for (std::size_t i = 0; i < n; ++i) {
                s[i] = static_cast<float>(gen.nextDouble());
                r2[i] = static_cast<float>(gen.nextDouble());
                r3[i] = static_cast<float>(gen.nextDouble());
                r4[i] = static_cast<float>(gen.nextDouble());
                r5[i] = static_cast<float>(gen.nextDouble());
            }
            k.addRows5(s.data(), r2.data(), r3.data(), r4.data(),
                       r5.data(), o1.data(), n);
            ref.addRows5(s.data(), r2.data(), r3.data(), r4.data(),
                         r5.data(), o2.data(), n);
            EXPECT_EQ(o1, o2);

            // Row-fused kernels: treat n as the pixel count with a
            // fixed small alphabet.
            const std::size_t m = 5;
            std::vector<float> ep(n * m);
            for (float &v : ep)
                v = static_cast<float>(gen.nextDouble() * 120.0);
            std::vector<double> w1(n * m), w2(n * m);
            k.gibbsWeightsRow(ep.data(), n, m, 2.3, w1.data());
            ref.gibbsWeightsRow(ep.data(), n, m, 2.3, w2.data());
            EXPECT_EQ(w1, w2);
        }
    }
}

TEST(BackendEquivalence, PackedClassifyKernelsBitIdenticalToScalar)
{
    // The fused quantize + race-class pack of the fast path's packed
    // lane must agree with the scalar reference bit for bit on every
    // runnable backend — including the m < 16 lanes the SIMD paths
    // mask rather than skip.
    const simd::KernelTable &ref =
        simd::kernelsFor(simd::Backend::Scalar);
    const double top = 255.0;
    rng::Xoshiro256 gen(97);

    // A byte -> class table like bindRateTable derives: strictly
    // decreasing class values (rates decay with energy; the union
    // alphabet may skip values) over random boundaries.
    std::vector<std::uint8_t> boundaries;
    while (boundaries.size() < 5) {
        const auto b =
            static_cast<std::uint8_t>(1 + gen.nextBounded(254));
        if (std::find(boundaries.begin(), boundaries.end(), b) ==
            boundaries.end())
            boundaries.push_back(b);
    }
    std::sort(boundaries.begin(), boundaries.end());
    const std::uint8_t vals[6] = {7, 6, 4, 3, 1, 0}; // skips like a union
    // Padded: the vector backends gather 32-bit words, so the table
    // must stay readable past its last index.
    std::vector<std::uint8_t> cls(256 + 8, 0);
    for (std::size_t b = 0; b < 256; ++b) {
        std::size_t seg = 0;
        while (seg < boundaries.size() && b >= boundaries[seg])
            ++seg;
        cls[b] = vals[seg];
    }

    for (simd::Backend b : simd::runnableBackends()) {
        SCOPED_TRACE(simd::backendName(b));
        const simd::KernelTable &k = simd::kernelsFor(b);
        for (std::size_t n : {std::size_t{1}, std::size_t{7},
                              std::size_t{33}}) {
            for (std::size_t m : {std::size_t{5}, std::size_t{11},
                                  std::size_t{16}}) {
                std::vector<float> e(n * m);
                for (float &v : e)
                    v = static_cast<float>(gen.nextDouble() * 280.0);
                for (bool subtract_min : {false, true}) {
                    SCOPED_TRACE(std::to_string(n) + "x" +
                                 std::to_string(m) +
                                 (subtract_min ? " based" : " raw"));
                    std::vector<std::uint64_t> w1(3 * n), w2(3 * n);
                    k.quantizeClassifyRow(e.data(), top, subtract_min,
                                          cls.data(), n, m, w1.data());
                    ref.quantizeClassifyRow(e.data(), top,
                                            subtract_min, cls.data(),
                                            n, m, w2.data());
                    EXPECT_EQ(w1, w2);
                }
            }
        }
    }
}

TEST(BackendEquivalence, RowFusedKernelsMatchTheirComposition)
{
    // The row-fused kernel must be bit-identical to the per-pixel
    // composition it replaces — gibbsWeightsRow to a min scan +
    // expWeights per pixel.  Scalar is the reference table;
    // the backend sweep above carries the identity to every lane.
    const simd::KernelTable &k = simd::kernelsFor(simd::Backend::Scalar);
    const std::size_t n = 23, m = 7;
    rng::Xoshiro256 gen(417);
    std::vector<float> ep(n * m);
    for (float &v : ep)
        v = static_cast<float>(gen.nextDouble() * 90.0);

    std::vector<double> fused(n * m), composed(n * m);
    k.gibbsWeightsRow(ep.data(), n, m, 1.7, fused.data());
    for (std::size_t p = 0; p < n; ++p) {
        float e_min = ep[p * m];
        for (std::size_t i = 1; i < m; ++i)
            e_min = std::min(e_min, ep[p * m + i]);
        k.expWeights(ep.data() + p * m, static_cast<double>(e_min),
                     1.7, composed.data() + p * m, m);
    }
    EXPECT_EQ(fused, composed);
}

TEST(BackendEquivalence, RaceDrawsLabelsAndRngStateIdentical)
{
    // Same races under every backend: identical outcomes AND
    // identical generator state afterwards (same draw consumption).
    BackendGuard guard;
    struct Run
    {
        std::vector<int> winners;
        std::vector<unsigned> bins;
        std::uint64_t rng_after;
    };
    auto race = [](simd::Backend b) {
        simd::setBackend(simd::backendName(b));
        core::RsuConfig cfg = core::RsuConfig::newDesign();
        rng::Xoshiro256 gen(77);
        rng::Xoshiro256 rate_gen(78);
        core::RaceRowScratch scratch;
        Run run;
        for (int trial = 0; trial < 64; ++trial) {
            const std::size_t m = 1 + rate_gen.nextBounded(24);
            std::vector<double> rates(m);
            for (double &r : rates)
                r = 0.05 + rate_gen.nextDouble() * 4.0;
            core::RaceOutcome oc =
                core::runTtfRace(rates, cfg, gen, scratch);
            run.winners.push_back(oc.winner);
            run.bins.push_back(oc.winningBin);
        }
        run.rng_after = gen.next64();
        return run;
    };
    const Run ref = race(simd::Backend::Scalar);
    for (simd::Backend b : simd::runnableBackends()) {
        SCOPED_TRACE(simd::backendName(b));
        const Run got = race(b);
        EXPECT_EQ(got.winners, ref.winners);
        EXPECT_EQ(got.bins, ref.bins);
        EXPECT_EQ(got.rng_after, ref.rng_after);
    }
}

TEST(BackendEquivalence, SolverOutputByteIdenticalAcrossBackends)
{
    // End to end: the annealed solver's label map must not depend on
    // the dispatch level — this is the property that makes results
    // portable across machines with different ISAs.
    BackendGuard guard;
    img::ImageU8 clean(29, 29);
    for (int y = 0; y < 29; ++y)
        for (int x = 0; x < 29; ++x)
            clean(x, y) = static_cast<std::uint8_t>(
                img::textureIntensity(x, y, 0x5e1));
    img::ImageU8 noisy = apps::addGaussianNoise(clean, 10.0, 3);
    mrf::MrfProblem problem = apps::buildDenoisingProblem(noisy);
    mrf::SolverConfig cfg;
    cfg.annealing.sweeps = 4;
    cfg.annealing.t0 = 8.0;
    cfg.annealing.tEnd = 0.5;
    cfg.seed = 19;

    auto solve = [&](simd::Backend b) {
        simd::setBackend(simd::backendName(b));
        core::RsuSampler sampler(core::RsuConfig::newDesign());
        return mrf::CheckerboardGibbsSolver(cfg)
            .run(problem, sampler)
            .data();
    };
    const std::vector<int> ref = solve(simd::Backend::Scalar);
    for (simd::Backend b : simd::runnableBackends()) {
        SCOPED_TRACE(simd::backendName(b));
        EXPECT_EQ(solve(b), ref);
    }
}

TEST(BackendEquivalence, SetBackendFallsBackGracefully)
{
    BackendGuard guard;
    // Unknown spec: keeps the current backend.
    const simd::Backend before = simd::activeBackend();
    EXPECT_EQ(simd::setBackend("not-a-backend"), before);
    // "off" always lands on scalar; "auto" always resolves.
    EXPECT_EQ(simd::setBackend("off"), simd::Backend::Scalar);
    const simd::Backend resolved = simd::setBackend("auto");
    const std::vector<simd::Backend> runnable =
        simd::runnableBackends();
    EXPECT_NE(std::find(runnable.begin(), runnable.end(), resolved),
              runnable.end());
}

} // namespace
