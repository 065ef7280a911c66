/**
 * @file
 * Independent reference for core::RsuSampler: the literal per-pixel
 * arithmetic of RSU-G pipeline stages 1-5, written out label by label
 * with none of the sampler's rate tables, fused gathers or row races.
 *
 * Stages 1-2 quantize every energy twice (once scanning for E_min,
 * once converting), stage 3 reads the process-wide LambdaLut (or
 * computes quantizeLambda()/realLambda() per label), and stages 4-5
 * run the per-pixel runTtfRace() — or, for a float-time config that
 * resolves to the categorical fast path, one CDF inversion over the
 * same rates.  RsuSampler must match it bit for bit: labels, generator
 * draws and the total/no-sample/tie/rebuild counters.  The binned fast
 * path draws from alias tables instead and is out of scope.
 *
 * Header-only so the unit tests and bench_sampler_kernel's output
 * check share one copy.
 */

#ifndef RETSIM_TESTS_RSU_REFERENCE_HH
#define RETSIM_TESTS_RSU_REFERENCE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/energy_to_lambda.hh"
#include "core/race_fastpath.hh"
#include "core/rsu_config.hh"
#include "core/ttf_race.hh"
#include "mrf/sampler.hh"
#include "util/fixed_point.hh"
#include "util/logging.hh"

namespace retsim {
namespace testing_util {

class ReferenceRsuSampler final : public mrf::LabelSampler
{
  public:
    explicit ReferenceRsuSampler(const core::RsuConfig &cfg) : cfg_(cfg)
    {
        cfg_.validate();
        categorical_ = core::RaceFastPath::resolve(cfg_);
        RETSIM_ASSERT(!categorical_ ||
                          cfg_.timeQuant == core::TimeQuant::Float,
                      "the reference has no binned fast path");
    }

    int
    sample(std::span<const float> energies, double temperature,
           int current, rng::Rng &gen) override
    {
        RETSIM_ASSERT(!energies.empty(), "no labels to sample");
        RETSIM_ASSERT(temperature > 0.0, "temperature must be positive");
        ++totalSamples_;
        const bool use_lut =
            cfg_.lambdaQuant != core::LambdaQuant::Float &&
            !cfg_.floatEnergy;
        if (temperature != cachedTemperature_) {
            cachedTemperature_ = temperature;
            ++conversionRebuilds_;
            if (use_lut)
                lut_ = core::LambdaLutCache::global().get(cfg_,
                                                          temperature);
        }

        // Stages 1-2: quantize to Energy_bits; stage 2b (new design):
        // decay-rate scaling, E' = E - E_min.
        double quantized_min = 0.0;
        if (cfg_.decayRateScaling) {
            if (cfg_.floatEnergy) {
                double e_min = energies[0];
                for (float e : energies)
                    e_min = std::min(e_min, static_cast<double>(e));
                quantized_min = std::max(e_min, 0.0);
            } else {
                std::uint64_t e_min = util::maxUnsigned(cfg_.energyBits);
                for (float e : energies)
                    e_min = std::min(e_min, util::quantizeUnsigned(
                                                e, cfg_.energyBits));
                quantized_min = static_cast<double>(e_min);
            }
        }

        // Stage 3: energy-to-lambda conversion, one label at a time.
        const std::size_t m = energies.size();
        const double lambda0 = cfg_.lambda0();
        rates_.resize(m);
        for (std::size_t i = 0; i < m; ++i) {
            const double e =
                cfg_.floatEnergy
                    ? std::max(static_cast<double>(energies[i]), 0.0)
                    : static_cast<double>(util::quantizeUnsigned(
                          energies[i], cfg_.energyBits));
            const double scaled = e - quantized_min;
            if (cfg_.lambdaQuant == core::LambdaQuant::Float)
                rates_[i] =
                    core::realLambda(scaled, temperature, cfg_) *
                    lambda0;
            else if (use_lut)
                rates_[i] = static_cast<double>(lut_->lookup(
                                static_cast<std::uint64_t>(scaled))) *
                            lambda0;
            else
                rates_[i] = static_cast<double>(core::quantizeLambda(
                                scaled, temperature, cfg_)) *
                            lambda0;
        }

        // Stages 4-5: sample the exponentials, select first-to-fire.
        const core::RaceOutcome oc =
            categorical_ ? core::RaceFastPath::raceFloat(
                               rates_.data(), m, gen.nextDouble())
                         : core::runTtfRace(rates_, cfg_, gen);
        if (oc.winner < 0) {
            ++noSampleEvents_;
            return current;
        }
        if (oc.tie)
            ++tieEvents_;
        return oc.winner;
    }

    /** Same name as the sampler it checks, so solver snapshots and
     *  resume validation treat the two alike. */
    std::string name() const override { return cfg_.describe(); }

    mrf::SamplerStats
    stats() const override
    {
        return {totalSamples_, noSampleEvents_, tieEvents_};
    }

    std::unique_ptr<mrf::LabelSampler>
    clone(std::uint64_t stream) const override
    {
        (void)stream;
        return std::make_unique<ReferenceRsuSampler>(cfg_);
    }

    std::uint64_t conversionRebuilds() const
    {
        return conversionRebuilds_;
    }

  private:
    core::RsuConfig cfg_;
    bool categorical_ = false;
    double cachedTemperature_ = -1.0;
    std::shared_ptr<const core::LambdaLut> lut_;
    std::vector<double> rates_;
    std::uint64_t totalSamples_ = 0;
    std::uint64_t noSampleEvents_ = 0;
    std::uint64_t tieEvents_ = 0;
    std::uint64_t conversionRebuilds_ = 0;
};

} // namespace testing_util
} // namespace retsim

#endif // RETSIM_TESTS_RSU_REFERENCE_HH
