#include "timing_sampler.hh"

#include <utility>

namespace perfbench {

TimingSampler::~TimingSampler()
{
    timing_->busyNs.fetch_add(busyNs_);
    timing_->calls.fetch_add(calls_);
    timing_->labelEvals.fetch_add(labelEvals_);
}

void
TimingSampler::account(std::int64_t startNs, std::size_t labelEvals,
                       bool rowCall)
{
    const std::int64_t endNs = nowNs();
    busyNs_ += static_cast<std::uint64_t>(endNs - startNs);
    ++calls_;
    labelEvals_ += labelEvals;
    // Per-pixel sample() calls are counted but never spanned: a span
    // per pixel would cost more than the call it times.
    if (rowCall && timing_->spans && timing_->spans->claimRowSpan()) {
        Span s;
        s.name = "core.sampler.sample_row";
        s.id = timing_->spans->newId();
        s.parent = timing_->parent;
        s.solve = timing_->solve;
        s.startNs = startNs;
        s.endNs = endNs;
        s.lane = threadLane();
        timing_->spans->record(s);
    }
}

int
TimingSampler::sample(std::span<const float> energies, double temperature,
                      int current, retsim::rng::Rng &gen)
{
    const std::int64_t t0 = nowNs();
    const int label = inner_->sample(energies, temperature, current, gen);
    account(t0, energies.size(), false);
    return label;
}

void
TimingSampler::sampleRow(std::span<const float> energies, int numLabels,
                         double temperature, std::span<const int> current,
                         std::span<int> out, retsim::rng::Rng &gen)
{
    const std::int64_t t0 = nowNs();
    inner_->sampleRow(energies, numLabels, temperature, current, out, gen);
    account(t0, energies.size(), true);
}

void
TimingSampler::sampleRowCached(std::span<const float> energies,
                               int numLabels, double temperature,
                               std::span<const int> current,
                               std::span<int> out, retsim::rng::Rng &gen,
                               std::span<std::uint64_t> cache,
                               const std::uint64_t *dirty)
{
    const std::int64_t t0 = nowNs();
    inner_->sampleRowCached(energies, numLabels, temperature, current, out,
                            gen, cache, dirty);
    account(t0, energies.size(), true);
}

void
TimingSampler::mergeStats(const retsim::mrf::LabelSampler &other)
{
    const auto *wrapped = dynamic_cast<const TimingSampler *>(&other);
    inner_->mergeStats(wrapped ? *wrapped->inner_ : other);
}

std::unique_ptr<retsim::mrf::LabelSampler>
TimingSampler::clone(std::uint64_t stream) const
{
    ScopedSpan span(timing_->spans, "core.sampler.clone", timing_->parent,
                    timing_->solve);
    const std::int64_t t0 = nowNs();
    std::unique_ptr<retsim::mrf::LabelSampler> clone = inner_->clone(stream);
    timing_->cloneNs.fetch_add(static_cast<std::uint64_t>(nowNs() - t0));
    timing_->clones.fetch_add(1);
    return std::unique_ptr<retsim::mrf::LabelSampler>(
        new TimingSampler(std::move(clone), *timing_));
}

} // namespace perfbench
