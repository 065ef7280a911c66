#include "core/sampler_cdf.hh"

#include <algorithm>

#include "simd/kernels.hh"
#include "util/logging.hh"

namespace retsim {
namespace core {

CdfLutSampler::CdfLutSampler(std::unique_ptr<rng::Rng> source,
                             int max_labels)
    : source_(std::move(source)), maxLabels_(max_labels)
{
    RETSIM_ASSERT(source_ != nullptr, "CDF sampler needs a source");
    RETSIM_ASSERT(max_labels >= 1, "LUT capacity must be >= 1");
}

std::string
CdfLutSampler::name() const
{
    return "cdf-lut(" + source_->name() + ")";
}

int
CdfLutSampler::sample(std::span<const float> energies,
                      double temperature, int current, rng::Rng &gen)
{
    (void)current;
    (void)gen; // the entropy source under study is source_
    RETSIM_ASSERT(!energies.empty(), "no labels to sample");
    RETSIM_ASSERT(static_cast<int>(energies.size()) <= maxLabels_,
                  "label count ", energies.size(),
                  " exceeds CDF LUT capacity ", maxLabels_);
    RETSIM_ASSERT(temperature > 0.0, "temperature must be positive");

    float e_min = energies[0];
    for (float e : energies)
        e_min = std::min(e_min, e);

    // Build the cumulative table the hardware would store, then
    // invert it with one uniform draw from the device under study.
    // Weights come from the dispatched vecmath kernel (bit-identical
    // to sampleRow()); the running sum keeps the scalar order.
    cdf_.resize(energies.size());
    simd::kernels().expWeights(energies.data(),
                               static_cast<double>(e_min), temperature,
                               cdf_.data(), energies.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < energies.size(); ++i) {
        acc += cdf_[i];
        cdf_[i] = acc;
    }

    ++samples_;
    double u = source_->nextDouble() * acc;
    for (std::size_t i = 0; i < cdf_.size(); ++i) {
        if (u < cdf_[i])
            return static_cast<int>(i);
    }
    return static_cast<int>(cdf_.size()) - 1;
}

void
CdfLutSampler::sampleRow(std::span<const float> energies,
                         int numLabels, double temperature,
                         std::span<const int> current,
                         std::span<int> out, rng::Rng &gen)
{
    (void)current;
    (void)gen; // the entropy source under study is source_
    const std::size_t n = out.size();
    const std::size_t m = static_cast<std::size_t>(numLabels);
    RETSIM_ASSERT(numLabels >= 1, "no labels to sample");
    RETSIM_ASSERT(energies.size() == n * m && current.size() == n,
                  "batch span sizes disagree");
    RETSIM_ASSERT(numLabels <= maxLabels_, "label count ", numLabels,
                  " exceeds CDF LUT capacity ", maxLabels_);
    RETSIM_ASSERT(temperature > 0.0, "temperature must be positive");
    if (n == 0)
        return;

    // The inversion consumes exactly one uniform per pixel from the
    // device under study, so the whole batch can be drawn up front.
    uniforms_.resize(n);
    source_->fillUniform(uniforms_);

    samples_ += n;
    // Whole-row weights in one fused kernel call (bit-identical to
    // per-pixel expWeights — the exp core is lane/width invariant),
    // then the scalar prefix-sum + inversion per pixel.
    cdf_.resize(n * m);
    simd::kernels().gibbsWeightsRow(energies.data(), n, m,
                                    temperature, cdf_.data());
    for (std::size_t p = 0; p < n; ++p) {
        double *row = cdf_.data() + p * m;
        prefixSum(row, m);
        out[p] = invertPrefixed(row, m, uniforms_[p]);
    }
}

void
CdfLutSampler::prefixSum(double *w, std::size_t m)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        acc += w[i];
        w[i] = acc;
    }
}

int
CdfLutSampler::invertPrefixed(const double *cdf, std::size_t m,
                              double u01)
{
    const double u = u01 * cdf[m - 1];
    for (std::size_t i = 0; i < m; ++i) {
        if (u < cdf[i])
            return static_cast<int>(i);
    }
    return static_cast<int>(m) - 1;
}

void
CdfLutSampler::mergeStats(const mrf::LabelSampler &other)
{
    const auto *cdf = dynamic_cast<const CdfLutSampler *>(&other);
    if (cdf)
        samples_ += cdf->samples_;
}

} // namespace core
} // namespace retsim
