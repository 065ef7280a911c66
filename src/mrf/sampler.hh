/**
 * @file
 * The label-sampler interface the Gibbs solver is generic over.
 *
 * The solver computes the conditional energies of every label at a
 * pixel and delegates the probabilistic choice to a LabelSampler.
 * Implementations include the double-precision software baseline, the
 * previous and new RSU-G functional models and the pseudo-RNG CDF
 * baselines — swapping the sampler is exactly how the paper compares
 * designs while keeping the application fixed (Sec. III-A).
 */

#ifndef RETSIM_MRF_SAMPLER_HH
#define RETSIM_MRF_SAMPLER_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "rng/rng.hh"

namespace retsim {
namespace mrf {

/**
 * Instrumentation counters every sampler exposes uniformly so the
 * solvers can report per-sweep acceptance / tie / no-sample rates
 * without knowing the concrete sampler type.  Values are cumulative
 * over the sampler's lifetime (and across mergeStats() folds);
 * consumers difference successive snapshots for per-sweep deltas.
 */
struct SamplerStats
{
    std::uint64_t samples = 0;   ///< pixel evaluations performed
    std::uint64_t noSample = 0;  ///< kept current label (nothing fired)
    std::uint64_t ties = 0;      ///< decided by a tie-break

    SamplerStats operator-(const SamplerStats &o) const
    {
        return {samples - o.samples, noSample - o.noSample,
                ties - o.ties};
    }

    SamplerStats &operator+=(const SamplerStats &o)
    {
        samples += o.samples;
        noSample += o.noSample;
        ties += o.ties;
        return *this;
    }
};

class LabelSampler
{
  public:
    virtual ~LabelSampler() = default;

    /**
     * Choose a label given the conditional energies of all labels at
     * the current temperature.
     *
     * @param energies Conditional energy of each label (Eq. 1).
     * @param temperature Simulated-annealing temperature T (Eq. 2).
     * @param current Current label; returned if the hardware produces
     *        no sample (all distributions truncated/cut off).
     * @param gen Entropy source.
     * @return The sampled label in [0, energies.size()).
     */
    virtual int sample(std::span<const float> energies,
                       double temperature, int current,
                       rng::Rng &gen) = 0;

    /**
     * Sample every pixel of one batch (typically the active pixels of
     * one color-phase row) in a single call.
     *
     * Semantically identical to calling sample() once per pixel in
     * order — implementations MUST consume RNG draws from @p gen (and
     * any internal entropy source) in exactly the per-pixel, per-label
     * order of that scalar loop, and leave the generator in the same
     * state, so batched and scalar execution produce bit-identical
     * label chains for a fixed seed.  The default implementation is
     * that scalar loop; SoftwareSampler, CdfLutSampler and RsuSampler
     * override it with fused kernels (bulk uniform draws, shared
     * conversion tables, no per-pixel virtual dispatch).
     *
     * @param energies Pixel-major conditional energies: entry
     *        i * numLabels + j is label j of pixel i.  Size must be
     *        current.size() * numLabels.
     * @param numLabels Labels per pixel (m).
     * @param temperature Shared annealing temperature of the batch.
     * @param current Current label of each pixel.
     * @param out Chosen label of each pixel; may not alias @p current.
     * @param gen Entropy source.
     */
    virtual void sampleRow(std::span<const float> energies,
                           int numLabels, double temperature,
                           std::span<const int> current,
                           std::span<int> out, rng::Rng &gen);

    /**
     * Retired row-cache hooks: rowCacheWords() and sampleRowCached().
     * No solver calls them and no sampler in this library overrides
     * them; rowCacheWords() reports 0 and sampleRowCached() ignores
     * @p cache and @p dirty and forwards to sampleRow().  They remain
     * only because the perfbench TimingSampler decorator overrides
     * both, and they are to be deleted together with those overrides
     * at the next change to the benchmark.
     */
    virtual std::size_t
    rowCacheWords(int numLabels) const
    {
        (void)numLabels;
        return 0;
    }

    virtual void
    sampleRowCached(std::span<const float> energies, int numLabels,
                    double temperature, std::span<const int> current,
                    std::span<int> out, rng::Rng &gen,
                    std::span<std::uint64_t> cache,
                    const std::uint64_t *dirty)
    {
        (void)cache;
        (void)dirty;
        sampleRow(energies, numLabels, temperature, current, out,
                  gen);
    }

    /** Human-readable implementation name for reports. */
    virtual std::string name() const = 0;

    /**
     * Cumulative instrumentation counters; the default (for samplers
     * that keep none) reports all-zero.  Implementations with private
     * counters overlay them — the solvers difference snapshots taken
     * at sweep boundaries to build telemetry trajectories.
     */
    virtual SamplerStats stats() const { return {}; }

    /**
     * Fold the instrumentation counters of @p other (typically a
     * stripe-local clone() of this sampler that just finished its
     * share of a parallel solve) into this sampler, so striped runs
     * report the same trace totals as serial ones.  Samplers without
     * counters ignore the call; implementations must tolerate @p other
     * being of a different dynamic type (and then do nothing).
     */
    virtual void
    mergeStats(const LabelSampler &other)
    {
        (void)other;
    }

    /**
     * Append the sampler's evolving state — instrumentation counters
     * and any owned entropy source — to @p out as 64-bit words, so a
     * solver checkpoint can persist it and a resumed run replays
     * bit-exactly (same labels, same entropy stream positions, same
     * final counters).  Configuration (RsuConfig, LUT capacity) is
     * NOT serialized: state restores into a sampler constructed with
     * the same configuration.  Derived caches (conversion LUTs) are
     * rebuilt on restore, not stored.  The default, for stateless
     * samplers, saves nothing.
     */
    virtual void
    saveState(std::vector<std::uint64_t> &out) const
    {
        (void)out;
    }

    /**
     * Restore state written by saveState() of the same sampler type
     * and configuration.  Returns false (sampler unchanged or
     * partially restored — treat as fatal) when the word layout does
     * not match.
     */
    virtual bool
    loadState(std::span<const std::uint64_t> words)
    {
        return words.empty();
    }

    /**
     * Create an independent sampler of the same configuration with
     * private scratch state, so each worker of a parallel solver can
     * sample concurrently without sharing mutable state.
     *
     * @param stream Per-clone stream index.  Implementations that own
     *        an entropy source (e.g. the CDF-LUT device models) must
     *        fork an independent stream per index, so a fixed
     *        (sampler, stream) pair is deterministic.  Stateless
     *        implementations may ignore it.  Instrumentation counters
     *        of the clone start at zero.
     */
    virtual std::unique_ptr<LabelSampler>
    clone(std::uint64_t stream) const = 0;
};

} // namespace mrf
} // namespace retsim

#endif // RETSIM_MRF_SAMPLER_HH
