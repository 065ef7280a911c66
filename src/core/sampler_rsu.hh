/**
 * @file
 * Functional simulator of an RSU-G label sampler.
 *
 * Replays the RSU-G pipeline math stage by stage for one pixel
 * evaluation: quantize the conditional energies to Energy_bits,
 * optionally rescale by the minimum energy (decay-rate scaling,
 * Eq. 4), convert each energy to a quantized decay rate (LUT /
 * comparator math with probability cut-off and 2^n approximation) and
 * race the resulting exponentials through the truncated, binned time
 * measurement.  The RsuConfig selects between the previous and new
 * designs and every intermediate ablation, including the float
 * escapes used for the paper's sequential precision methodology.
 *
 * The conversion table depends on the annealing temperature, so it is
 * rebuilt whenever T changes; the rebuild count is exposed because the
 * two hardware implementations pay very different stall costs for it
 * (Sec. IV-B.3) — the cycle-level pipeline model consumes it.
 */

#ifndef RETSIM_CORE_SAMPLER_RSU_HH
#define RETSIM_CORE_SAMPLER_RSU_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/energy_to_lambda.hh"
#include "core/race_fastpath.hh"
#include "core/rsu_config.hh"
#include "core/ttf_race.hh"
#include "mrf/sampler.hh"

namespace retsim {
namespace core {

class RsuSampler : public mrf::LabelSampler
{
  public:
    explicit RsuSampler(const RsuConfig &cfg);

    /**
     * One pixel evaluation.  The binned fast path has its own
     * per-pixel entry (sampleFast: one quantization pass and a
     * categorical table draw); every other mode — the literal TTF race
     * and the float-time categorical draw — is sampleRow() on a
     * one-pixel row, so the two entries share one implementation of
     * stages 1-5.
     */
    int sample(std::span<const float> energies, double temperature,
               int current, rng::Rng &gen) override;

    /**
     * Row kernel, and the only implementation of stages 1-5 outside
     * the binned fast path: quantizes each pixel's energies once,
     * resolves decay rates through a per-temperature energy->rate
     * table derived from the shared LambdaLut cache (per label under
     * the float-energy escape), and races all pixels through
     * runTtfRaceRow().  Outcomes and RNG consumption equal the
     * per-pixel sample() loop's.
     */
    void sampleRow(std::span<const float> energies, int numLabels,
                   double temperature, std::span<const int> current,
                   std::span<int> out, rng::Rng &gen) override;

    std::string name() const override;

    /** Fold a stripe clone's counters back into this sampler. */
    void mergeStats(const mrf::LabelSampler &other) override;

    /** Uniform counter snapshot for solver telemetry. */
    mrf::SamplerStats stats() const override
    {
        return {totalSamples_, noSampleEvents_, tieEvents_};
    }

    /**
     * Same device configuration, fresh conversion cache and counters.
     * The RSU draws entropy from the solver-provided generator, so the
     * stream index is unused.
     */
    std::unique_ptr<mrf::LabelSampler>
    clone(std::uint64_t stream) const override
    {
        (void)stream;
        return std::make_unique<RsuSampler>(cfg_);
    }

    /**
     * Checkpoint state: the four instrumentation counters plus the
     * temperatures of the cached conversion LUT and rate table.  The
     * tables themselves are derived data — loadState() rebuilds them
     * from the process-wide cache, then restores the counters so a
     * resumed run reports exactly the uninterrupted run's totals.
     */
    void saveState(std::vector<std::uint64_t> &out) const override;
    bool loadState(std::span<const std::uint64_t> words) override;

    const RsuConfig &config() const { return cfg_; }

    /** Whether cfg_.raceMode resolved to the categorical fast path
     *  (RaceFastPath::resolve); fixed at construction. */
    bool usingFastPath() const { return useFastPath_; }

    // ---- instrumentation ---------------------------------------------
    /** Pixel evaluations where no label fired (current label kept). */
    std::uint64_t noSampleEvents() const { return noSampleEvents_; }
    /** Pixel evaluations decided by a bin tie-break. */
    std::uint64_t tieEvents() const { return tieEvents_; }
    /** Temperature changes that forced a conversion-table rebuild. */
    std::uint64_t conversionRebuilds() const
    {
        return conversionRebuilds_;
    }
    std::uint64_t totalSamples() const { return totalSamples_; }

  private:
    /** Swap in the conversion state for @p temperature (LUT via the
     *  process-wide cache); counts one rebuild per temperature change. */
    void refreshConversion(double temperature);

    /** Lazily (re)build the quantized-energy -> absolute-rate table
     *  the row kernel and the fast path index; only exists when
     *  energies are quantized (the index domain is then
     *  2^Energy_bits). */
    void refreshRateTable(double temperature);

    /** Point the fast path's rate alphabet at the current rateTable_
     *  (no-op while the bound temperature is unchanged). */
    void bindFastPath();

    /** Counter bookkeeping shared by every race flavor: bump
     *  no-sample/tie counters and map "no label fired" to the kept
     *  current label. */
    int commitOutcome(const RaceOutcome &oc, int current);

    /** Fast-path twins of sample()/sampleRow().  sampleFast is binned
     *  only (table draw over the quantized energies); sampleRowFast
     *  also serves float time (CDF inversion over the rate plane). */
    int sampleFast(std::span<const float> energies, double temperature,
                   int current, rng::Rng &gen);
    void sampleRowFast(std::span<const float> energies, std::size_t n,
                       std::size_t m, double temperature,
                       std::span<const int> current, std::span<int> out,
                       rng::Rng &gen);

    RsuConfig cfg_;
    double cachedTemperature_ = -1.0;
    std::shared_ptr<const LambdaLut> lut_;
    std::vector<double> rates_; ///< row rate plane scratch

    // ---- row-kernel scratch ------------------------------------------
    double rateTableTemperature_ = -1.0;
    std::vector<double> rateTable_;      ///< quantized energy -> rate
    bool rateTableAllPositive_ = false;  ///< no reachable rate is zero
    std::vector<RaceOutcome> outcomes_;
    RaceRowScratch raceScratch_;

    // ---- categorical fast path (raceMode != Race) --------------------
    bool useFastPath_ = false;
    std::unique_ptr<RaceFastPath> fast_;
    double fastBoundTemperature_ = -1.0;
    std::vector<double> quant_; ///< quantized-energy scratch
    std::vector<double> fastU_; ///< bulk uniform scratch (row path)

    std::uint64_t noSampleEvents_ = 0;
    std::uint64_t tieEvents_ = 0;
    std::uint64_t conversionRebuilds_ = 0;
    std::uint64_t totalSamples_ = 0;
};

} // namespace core
} // namespace retsim

#endif // RETSIM_CORE_SAMPLER_RSU_HH
