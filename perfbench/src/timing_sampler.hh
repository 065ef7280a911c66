/**
 * @file
 * Transparent timing decorator around a mrf::LabelSampler.
 *
 * The traced run hands the solver a TimingSampler instead of the
 * sampler itself.  Every virtual forwards to the wrapped sampler, so
 * the solver takes exactly the paths it would take undecorated (the
 * row-cache path included, because rowCacheWords() forwards too),
 * and clone() wraps each clone, so per-stripe and per-rank sampling
 * is timed as well.  The benchmark checks that decorated and
 * undecorated solves produce identical labels and energy traces;
 * without that check the traced numbers would measure a different
 * program.
 */

#ifndef PERFBENCH_TIMING_SAMPLER_HH
#define PERFBENCH_TIMING_SAMPLER_HH

#include <atomic>
#include <cstdint>
#include <memory>

#include "mrf/sampler.hh"
#include "trace.hh"

namespace perfbench {

/** Counters one solve's decorated sampler and all its clones share. */
struct SamplerTiming
{
    SpanRecorder *spans = nullptr; ///< row spans go here when set
    std::uint64_t solve = 0;       ///< solve id of those spans
    std::uint64_t parent = 0;      ///< their parent span

    std::atomic<std::uint64_t> busyNs{0};
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> labelEvals{0};
    std::atomic<std::uint64_t> cloneNs{0};
    std::atomic<std::uint64_t> clones{0};
};

class TimingSampler final : public retsim::mrf::LabelSampler
{
  public:
    /** Decorates a sampler the caller keeps owning. */
    TimingSampler(retsim::mrf::LabelSampler &inner, SamplerTiming &timing)
        : inner_(&inner), timing_(&timing)
    {
    }

    /** Adds this instance's counts to the shared SamplerTiming. */
    ~TimingSampler() override;

    TimingSampler(const TimingSampler &) = delete;
    TimingSampler &operator=(const TimingSampler &) = delete;

    int sample(std::span<const float> energies, double temperature,
               int current, retsim::rng::Rng &gen) override;

    void sampleRow(std::span<const float> energies, int numLabels,
                   double temperature, std::span<const int> current,
                   std::span<int> out, retsim::rng::Rng &gen) override;

    std::size_t rowCacheWords(int numLabels) const override
    {
        return inner_->rowCacheWords(numLabels);
    }

    void sampleRowCached(std::span<const float> energies, int numLabels,
                         double temperature, std::span<const int> current,
                         std::span<int> out, retsim::rng::Rng &gen,
                         std::span<std::uint64_t> cache,
                         const std::uint64_t *dirty) override;

    std::string name() const override { return inner_->name(); }

    retsim::mrf::SamplerStats stats() const override
    {
        return inner_->stats();
    }

    /** Unwraps @p other: RsuSampler::mergeStats dynamic_casts it. */
    void mergeStats(const retsim::mrf::LabelSampler &other) override;

    void saveState(std::vector<std::uint64_t> &out) const override
    {
        inner_->saveState(out);
    }

    bool loadState(std::span<const std::uint64_t> words) override
    {
        return inner_->loadState(words);
    }

    std::unique_ptr<retsim::mrf::LabelSampler>
    clone(std::uint64_t stream) const override;

  private:
    /** Wraps a clone, which the decorator then owns. */
    TimingSampler(std::unique_ptr<retsim::mrf::LabelSampler> owned,
                  SamplerTiming &timing)
        : owned_(std::move(owned)), inner_(owned_.get()), timing_(&timing)
    {
    }

    /** Books one call that started at @p startNs. */
    void account(std::int64_t startNs, std::size_t labelEvals,
                 bool rowCall);

    std::unique_ptr<retsim::mrf::LabelSampler> owned_;
    retsim::mrf::LabelSampler *inner_;
    SamplerTiming *timing_;
    // Plain counters: one thread samples through an instance at a
    // time, and per-pixel atomics would distort what is timed.
    std::uint64_t busyNs_ = 0;
    std::uint64_t calls_ = 0;
    std::uint64_t labelEvals_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TIMING_SAMPLER_HH
