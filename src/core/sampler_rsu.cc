#include "core/sampler_rsu.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/ttf_race.hh"
#include "simd/kernels.hh"
#include "util/fixed_point.hh"
#include "util/logging.hh"

namespace retsim {
namespace core {

RsuSampler::RsuSampler(const RsuConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();
    useFastPath_ = RaceFastPath::resolve(cfg_);
    if (useFastPath_)
        fast_ = std::make_unique<RaceFastPath>(cfg_);
}

std::string
RsuSampler::name() const
{
    return cfg_.describe();
}

void
RsuSampler::mergeStats(const mrf::LabelSampler &other)
{
    const auto *rsu = dynamic_cast<const RsuSampler *>(&other);
    if (!rsu)
        return;
    noSampleEvents_ += rsu->noSampleEvents_;
    tieEvents_ += rsu->tieEvents_;
    conversionRebuilds_ += rsu->conversionRebuilds_;
    totalSamples_ += rsu->totalSamples_;
}

void
RsuSampler::saveState(std::vector<std::uint64_t> &out) const
{
    out.push_back(totalSamples_);
    out.push_back(noSampleEvents_);
    out.push_back(tieEvents_);
    out.push_back(conversionRebuilds_);
    out.push_back(std::bit_cast<std::uint64_t>(cachedTemperature_));
    out.push_back(std::bit_cast<std::uint64_t>(rateTableTemperature_));
}

bool
RsuSampler::loadState(std::span<const std::uint64_t> words)
{
    if (words.size() != 6)
        return false;
    const double cached_t = std::bit_cast<double>(words[4]);
    const double rate_t = std::bit_cast<double>(words[5]);
    // Warm the derived caches for the checkpointed temperatures (the
    // row path keeps lut_ aligned with cachedTemperature_ and
    // rateTable_ with rateTableTemperature_), then overwrite the
    // counters: the rebuilds these refreshes perform must not show up
    // as extra conversionRebuilds_ in a resumed run.
    if (rate_t >= 0.0) {
        refreshConversion(rate_t);
        refreshRateTable(rate_t);
    }
    if (cached_t >= 0.0)
        refreshConversion(cached_t);
    cachedTemperature_ = cached_t;
    rateTableTemperature_ = rate_t;
    totalSamples_ = words[0];
    noSampleEvents_ = words[1];
    tieEvents_ = words[2];
    conversionRebuilds_ = words[3];
    return true;
}

void
RsuSampler::refreshConversion(double temperature)
{
    // Rebuild the energy-to-lambda conversion when the annealing
    // temperature moves (the LUT rewrite / boundary-register refresh
    // of Sec. IV-B.3).  The table itself is memoized process-wide, so
    // stripe clones and repeated anneal schedules share one build.
    if (temperature == cachedTemperature_)
        return;
    cachedTemperature_ = temperature;
    ++conversionRebuilds_;
    bool use_lut = cfg_.lambdaQuant != LambdaQuant::Float &&
                   !cfg_.floatEnergy;
    if (use_lut)
        lut_ = LambdaLutCache::global().get(cfg_, temperature);
}

void
RsuSampler::refreshRateTable(double temperature)
{
    if (temperature == rateTableTemperature_)
        return;
    rateTableTemperature_ = temperature;
    const double lambda0 = cfg_.lambda0();
    const std::size_t entries = std::size_t{1} << cfg_.energyBits;
    rateTable_.resize(entries);
    if (cfg_.lambdaQuant == LambdaQuant::Float) {
        // Batched build: expBatch over the -e/T grid is bit-identical
        // to the sexp() inside realLambda(), and the two scale
        // multiplies keep realLambda()'s association order.
        const double scale = static_cast<double>(cfg_.lambdaMax());
        for (std::size_t e = 0; e < entries; ++e)
            rateTable_[e] = -static_cast<double>(e) / temperature;
        simd::kernels().expBatch(rateTable_.data(), rateTable_.data(),
                                 entries);
        for (std::size_t e = 0; e < entries; ++e)
            rateTable_[e] = rateTable_[e] * scale * lambda0;
    } else {
        for (std::size_t e = 0; e < entries; ++e)
            rateTable_[e] =
                static_cast<double>(lut_->lookup(e)) * lambda0;
    }
    // When no entry is zero (no probability cutoff bites at this
    // temperature) every label of every pixel fires, which lets the
    // row race skip the firing scan and fuse its gather into the draw
    // loop.
    rateTableAllPositive_ = std::all_of(
        rateTable_.begin(), rateTable_.end(),
        [](double r) { return r > 0.0; });
}

void
RsuSampler::bindFastPath()
{
    // The alphabet only depends on rateTable_, which only changes
    // with rateTableTemperature_; the fast path's table memo itself
    // survives rebinds (its keys are canonical rate vectors, shared
    // across temperatures).
    if (fastBoundTemperature_ == rateTableTemperature_)
        return;
    fast_->bindRateTable(rateTable_);
    fastBoundTemperature_ = rateTableTemperature_;
}

int
RsuSampler::commitOutcome(const RaceOutcome &oc, int current)
{
    if (oc.winner < 0) {
        // Every label was truncated or cut off; the unit produces no
        // sample and the variable keeps its current label.
        ++noSampleEvents_;
        return current;
    }
    if (oc.tie)
        ++tieEvents_;
    return oc.winner;
}

int
RsuSampler::sampleFast(std::span<const float> energies,
                       double temperature, int current, rng::Rng &gen)
{
    RETSIM_ASSERT(temperature > 0.0, "temperature must be positive");
    ++totalSamples_;
    refreshConversion(temperature);
    // Table-driven: stages 1-5 collapse to one quantization pass and a
    // categorical draw — no per-label rates, exponentials or argmin.
    // RaceFastPath::supported() guarantees quantized energies and a
    // non-float lambda here, so rateTable_ exists.
    refreshRateTable(temperature);
    bindFastPath();
    const std::size_t m = energies.size();
    quant_.resize(m);
    const double top =
        static_cast<double>(util::maxUnsigned(cfg_.energyBits));
    const double e_min = simd::kernels().quantizeEnergies(
        energies.data(), top, quant_.data(), m);
    double u[4];
    const unsigned draws = fast_->drawsPerPixel();
    for (unsigned k = 0; k < draws; ++k)
        u[k] = gen.nextDouble();
    return commitOutcome(
        fast_->raceBinned(quant_.data(),
                          cfg_.decayRateScaling ? e_min : 0.0, m, u),
        current);
}

void
RsuSampler::sampleRowFast(std::span<const float> energies,
                          std::size_t n, std::size_t m,
                          double temperature,
                          std::span<const int> current,
                          std::span<int> out, rng::Rng &gen)
{
    // Fixed draws per pixel make the whole row bulk-fillable, which
    // is what keeps this bit-identical to the scalar loop (fillUniform
    // == that many sequential nextDouble() calls) and lets checkpoint
    // replay cut a row anywhere.
    const unsigned draws = fast_->drawsPerPixel();
    fastU_.resize(n * draws);
    gen.fillUniform(fastU_);
    if (cfg_.timeQuant == TimeQuant::Binned) {
        refreshRateTable(temperature);
        bindFastPath();
        // Fused row race: quantize + classify + draw straight off the
        // float plane — identical arithmetic to per-pixel raceBinned()
        // calls on quantizeEnergies output, but no quantized plane is
        // ever materialized and the memo lookups overlap across
        // pixels (see raceEnergiesRow).
        const double top =
            static_cast<double>(util::maxUnsigned(cfg_.energyBits));
        outcomes_.resize(n);
        fast_->raceEnergiesRow(energies.data(), top,
                               cfg_.decayRateScaling, n, m,
                               fastU_.data(), outcomes_.data());
        for (std::size_t p = 0; p < n; ++p)
            out[p] = commitOutcome(outcomes_[p], current[p]);
        return;
    }
    // Float time: rates_ already holds the row's rate plane (filled
    // by sampleRow's shared stage 1-3 code before dispatching here).
    for (std::size_t p = 0; p < n; ++p)
        out[p] = commitOutcome(
            RaceFastPath::raceFloat(rates_.data() + p * m, m,
                                    fastU_[p]),
            current[p]);
}

int
RsuSampler::sample(std::span<const float> energies, double temperature,
                   int current, rng::Rng &gen)
{
    RETSIM_ASSERT(!energies.empty(), "no labels to sample");
    if (useFastPath_ && cfg_.timeQuant == TimeQuant::Binned)
        return sampleFast(energies, temperature, current, gen);
    // Every other mode is the row kernel on a one-pixel row: same
    // stages 1-5, same draws, same counters.
    int chosen = current;
    sampleRow(energies, static_cast<int>(energies.size()), temperature,
              {&current, 1}, {&chosen, 1}, gen);
    return chosen;
}

void
RsuSampler::sampleRow(std::span<const float> energies, int numLabels,
                      double temperature, std::span<const int> current,
                      std::span<int> out, rng::Rng &gen)
{
    const std::size_t n = current.size();
    const std::size_t m = static_cast<std::size_t>(numLabels);
    RETSIM_ASSERT(numLabels >= 1, "no labels to sample");
    RETSIM_ASSERT(energies.size() == n * m && out.size() == n,
                  "batch span sizes disagree");
    RETSIM_ASSERT(temperature > 0.0, "temperature must be positive");
    if (n == 0)
        return;
    totalSamples_ += n;

    refreshConversion(temperature);

    if (useFastPath_ && cfg_.timeQuant == TimeQuant::Binned) {
        // Table-driven row: no rate plane, no exponentials.
        sampleRowFast(energies, n, m, temperature, current, out, gen);
        return;
    }

    const double lambda0 = cfg_.lambda0();

    rates_.resize(n * m);
    if (!cfg_.floatEnergy) {
        // Quantized energies index the per-temperature rate table
        // directly, so stages 1-3 are one quantization pass per pixel
        // fused with its table gather, feeding a row-sized rate plane
        // that stays in L1.  The row race consumes the plane in pixel
        // order, so a Random tie-break's extra draw still lands
        // between its pixel's uniforms and the next pixel's — the
        // quantization stage draws nothing and commutes with the
        // races.
        refreshRateTable(temperature);
        const double *table = rateTable_.data();
        const auto &kern = simd::kernels();
        const double top =
            static_cast<double>(util::maxUnsigned(cfg_.energyBits));
        for (std::size_t p = 0; p < n; ++p) {
            const float *e = energies.data() + p * m;
            kern.quantizeGatherRates(e, top, cfg_.decayRateScaling,
                                     table, rates_.data() + p * m,
                                     m);
        }
        if (useFastPath_) { // float time over the quantized rates
            sampleRowFast(energies, n, m, temperature, current, out,
                          gen);
            return;
        }
        outcomes_.resize(n);
        runTtfRaceRow(rates_, m, cfg_, gen, outcomes_, raceScratch_,
                      rateTableAllPositive_);
    } else {
        // Float-energy escape: scaled energies are continuous, so the
        // conversion stays per label (no table to index).
        for (std::size_t p = 0; p < n; ++p) {
            const float *e = energies.data() + p * m;
            double *r = rates_.data() + p * m;
            double quantized_min = 0.0;
            if (cfg_.decayRateScaling) {
                double e_min = static_cast<double>(e[0]);
                for (std::size_t j = 0; j < m; ++j)
                    e_min = std::min(e_min,
                                     static_cast<double>(e[j]));
                quantized_min = std::max(e_min, 0.0);
            }
            for (std::size_t j = 0; j < m; ++j) {
                double scaled =
                    std::max(static_cast<double>(e[j]), 0.0) -
                    quantized_min;
                if (cfg_.lambdaQuant == LambdaQuant::Float)
                    r[j] = realLambda(scaled, temperature, cfg_) *
                           lambda0;
                else
                    r[j] = static_cast<double>(quantizeLambda(
                               scaled, temperature, cfg_)) *
                           lambda0;
            }
        }
        if (useFastPath_) { // float time over the replicated rates
            sampleRowFast(energies, n, m, temperature, current, out,
                          gen);
            return;
        }
        outcomes_.resize(n);
        runTtfRaceRow(rates_, m, cfg_, gen, outcomes_, raceScratch_);
    }

    for (std::size_t p = 0; p < n; ++p)
        out[p] = commitOutcome(outcomes_[p], current[p]);
}

} // namespace core
} // namespace retsim
