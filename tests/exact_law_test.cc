/**
 * @file
 * Solver-level check of the stationary law against exact enumeration.
 *
 * Byte-identity between schedules shows only that they agree with each
 * other.  Here a 2x3, 3-label MRF (729 joint states) is enumerated
 * exactly: P(x) is proportional to exp(-E(x) / T) with E from
 * MrfProblem::totalEnergy.  At a fixed temperature (t0 == tEnd) every
 * Gibbs schedule with exact Boltzmann conditionals (SoftwareSampler)
 * has that law as its stationary distribution, so the final states of
 * many independent chains — one seed each, run well past burn-in —
 * must histogram to it.  Raster, random-scan, serial checkerboard and
 * striped checkerboard runs are each checked with a chi-square test;
 * bins whose expected count is below 5 are pooled.
 *
 * The random-scan law also needs a uniform visit order, which the
 * state histogram is too coarse to see; RandomScanOrderIsUniform
 * checks the order itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/sampler_software.hh"
#include "mrf/checkerboard.hh"
#include "mrf/gibbs.hh"
#include "mrf/problem.hh"
#include "rng/rng.hh"
#include "util/chi_square.hh"

namespace {

using namespace retsim;

constexpr int kWidth = 2;
constexpr int kHeight = 3;
constexpr int kLabels = 3;
constexpr int kPixels = kWidth * kHeight;
constexpr double kTemperature = 1.5;
constexpr int kSweeps = 12;
constexpr int kChains = 6000;

/** Potts coupling plus uneven singletons, so the law is far from
 *  uniform and from a product of independent marginals. */
mrf::MrfProblem
tinyProblem()
{
    mrf::MrfProblem p(kWidth, kHeight,
                      mrf::PairwiseTable(mrf::DistanceKind::Binary,
                                         kLabels, 1.0),
                      "exact-law");
    rng::Xoshiro256 gen(2024);
    for (int y = 0; y < kHeight; ++y)
        for (int x = 0; x < kWidth; ++x)
            for (int l = 0; l < kLabels; ++l)
                p.singleton(x, y, l) =
                    static_cast<float>(gen.nextDouble() * 3.0);
    return p;
}

/** State index of a labeling: pixel i is base-kLabels digit i. */
int
stateOf(const img::LabelMap &labels)
{
    int s = 0;
    for (int i = kPixels - 1; i >= 0; --i)
        s = s * kLabels + labels.data()[static_cast<std::size_t>(i)];
    return s;
}

/** Exact Boltzmann probabilities of all kLabels^kPixels states. */
std::vector<double>
exactLaw(const mrf::MrfProblem &p)
{
    int states = 1;
    for (int i = 0; i < kPixels; ++i)
        states *= kLabels;
    std::vector<double> prob(static_cast<std::size_t>(states));
    img::LabelMap labels(kWidth, kHeight, 0);
    double z = 0.0;
    for (int s = 0; s < states; ++s) {
        int rest = s;
        for (int i = 0; i < kPixels; ++i) {
            labels.data()[static_cast<std::size_t>(i)] = rest % kLabels;
            rest /= kLabels;
        }
        const double w = std::exp(-p.totalEnergy(labels) / kTemperature);
        prob[static_cast<std::size_t>(s)] = w;
        z += w;
    }
    for (double &q : prob)
        q /= z;
    return prob;
}

using Solve = std::function<img::LabelMap(const mrf::SolverConfig &,
                                          const mrf::MrfProblem &,
                                          mrf::LabelSampler &)>;

/** Chi-square of the chains' final states against @p law, with every
 *  bin expecting fewer than 5 observations pooled into one. */
void
expectSamplesExactLaw(const mrf::MrfProblem &p,
                      const std::vector<double> &law,
                      mrf::SolverConfig cfg, const Solve &solve)
{
    std::vector<std::uint64_t> counts(law.size(), 0);
    for (int c = 0; c < kChains; ++c) {
        cfg.seed = 1 + static_cast<std::uint64_t>(c);
        core::SoftwareSampler sampler;
        ++counts[static_cast<std::size_t>(
            stateOf(solve(cfg, p, sampler)))];
    }
    std::vector<std::uint64_t> observed{0};
    std::vector<double> expected{0.0};
    for (std::size_t s = 0; s < law.size(); ++s) {
        if (law[s] * kChains < 5.0) {
            observed[0] += counts[s];
            expected[0] += law[s];
        } else {
            observed.push_back(counts[s]);
            expected.push_back(law[s]);
        }
    }
    ASSERT_GT(observed.size(), 50u) << "too few unpooled bins";
    EXPECT_TRUE(util::chiSquareConsistent(observed, expected))
        << "chi-square " << util::chiSquareStatistic(observed, expected)
        << " over " << observed.size() << " bins";
}

mrf::SolverConfig
fixedTemperature()
{
    mrf::SolverConfig cfg;
    cfg.annealing.t0 = kTemperature;
    cfg.annealing.tEnd = kTemperature;
    cfg.annealing.sweeps = kSweeps;
    return cfg;
}

img::LabelMap
gibbs(const mrf::SolverConfig &cfg, const mrf::MrfProblem &p,
      mrf::LabelSampler &s)
{
    return mrf::GibbsSolver(cfg).run(p, s);
}

img::LabelMap
checkerboard(const mrf::SolverConfig &cfg, const mrf::MrfProblem &p,
             mrf::LabelSampler &s)
{
    return mrf::CheckerboardGibbsSolver(cfg).run(p, s);
}

TEST(ExactLaw, RasterGibbs)
{
    const mrf::MrfProblem p = tinyProblem();
    expectSamplesExactLaw(p, exactLaw(p), fixedTemperature(), gibbs);
}

TEST(ExactLaw, RandomScanGibbs)
{
    const mrf::MrfProblem p = tinyProblem();
    mrf::SolverConfig cfg = fixedTemperature();
    cfg.randomScan = true;
    expectSamplesExactLaw(p, exactLaw(p), cfg, gibbs);
}

/** Records the pixel each update visits, read back from label 0's
 *  conditional energy, and keeps every label, so the energies never
 *  change. */
class VisitRecorder : public mrf::LabelSampler
{
  public:
    int
    sample(std::span<const float> energies, double, int current,
           rng::Rng &) override
    {
        visits.push_back(static_cast<int>(energies[0]));
        return current;
    }
    std::string name() const override { return "visit-recorder"; }
    std::unique_ptr<mrf::LabelSampler>
    clone(std::uint64_t) const override
    {
        return std::make_unique<VisitRecorder>();
    }

    std::vector<int> visits;
};

TEST(ExactLaw, RandomScanOrderIsUniform)
{
    // A 2x2 grid whose label-0 singleton is the pixel index; with
    // every label 0 from the start and kept, the pairwise terms of
    // label 0 are zero, so each update's energies name its pixel.
    constexpr int kScanPixels = 4;
    constexpr int kOrders = 24; // 4!
    constexpr std::size_t kScanSweeps = 240000;
    mrf::MrfProblem p(2, 2,
                      mrf::PairwiseTable(mrf::DistanceKind::Binary, 2,
                                         1.0),
                      "scan-order");
    for (int i = 0; i < kScanPixels; ++i)
        p.singleton(i % 2, i / 2, 0) = static_cast<float>(i);
    mrf::SolverConfig cfg = fixedTemperature();
    cfg.annealing.sweeps = static_cast<int>(kScanSweeps);
    cfg.randomScan = true;
    cfg.randomInit = false;
    VisitRecorder recorder;
    mrf::GibbsSolver(cfg).run(p, recorder);
    ASSERT_EQ(recorder.visits.size(), kScanSweeps * kScanPixels);

    // The solver reshuffles the previous sweep's order in place, so
    // the histogram of the orders themselves stays flat even for a
    // shuffle that can only produce cycles (Sattolo's off-by-one):
    // its random walk still visits every order equally often.  What
    // must be uniform, and independent of the past, is the shuffle
    // each sweep applies: step[k] = the previous sweep's position of
    // the k-th pixel visited now (the identity order before sweep 0).
    std::vector<std::uint64_t> steps(kOrders, 0);
    std::vector<std::uint64_t> first(kScanPixels, 0);
    int prev[kScanPixels] = {0, 1, 2, 3};
    for (std::size_t s = 0; s < kScanSweeps; ++s) {
        const int *v = recorder.visits.data() + s * kScanPixels;
        int step[kScanPixels];
        int seen = 0;
        for (int k = 0; k < kScanPixels; ++k) {
            seen |= 1 << v[k];
            step[k] = static_cast<int>(
                std::find(prev, prev + kScanPixels, v[k]) - prev);
        }
        ASSERT_EQ(seen, (1 << kScanPixels) - 1)
            << "sweep " << s << " is not a permutation";
        // Lehmer rank of the step permutation, in [0, 4!).
        int rank = 0;
        for (int i = 0; i < kScanPixels; ++i) {
            int smaller_later = 0;
            for (int j = i + 1; j < kScanPixels; ++j)
                smaller_later += step[j] < step[i] ? 1 : 0;
            rank = rank * (kScanPixels - i) + smaller_later;
        }
        ++steps[static_cast<std::size_t>(rank)];
        ++first[static_cast<std::size_t>(step[0])];
        std::copy(v, v + kScanPixels, prev);
    }
    for (const std::vector<std::uint64_t> *counts : {&steps, &first}) {
        const std::vector<double> uniform(counts->size(), 1.0);
        EXPECT_TRUE(util::chiSquareConsistent(*counts, uniform))
            << "chi-square " << util::chiSquareStatistic(*counts, uniform)
            << " over " << counts->size() << " bins";
    }
}

TEST(ExactLaw, SerialCheckerboard)
{
    const mrf::MrfProblem p = tinyProblem();
    expectSamplesExactLaw(p, exactLaw(p), fixedTemperature(),
                          checkerboard);
}

TEST(ExactLaw, StripedCheckerboard)
{
    const mrf::MrfProblem p = tinyProblem();
    mrf::SolverConfig cfg = fixedTemperature();
    cfg.stripes = kHeight;
    expectSamplesExactLaw(p, exactLaw(p), cfg, checkerboard);
}

} // namespace
