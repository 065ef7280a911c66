/**
 * AVX2-backend kernel table.  Compiled with -mavx2 but deliberately
 * NOT -mfma (contraction would break bit-exactness with the scalar
 * reference); only referenced when RETSIM_SIMD_HAVE_AVX2 is defined,
 * and only executed after runtime dispatch confirms CPU support.
 */

#include "simd/tables.hh"
#include "simd/vecmath.hh"

namespace retsim {
namespace simd {

namespace {

void
logBatch(const double *x, double *out, std::size_t n)
{
    detail::logBatchT<VAvx2>(x, out, n);
}

void
expBatch(const double *x, double *out, std::size_t n)
{
    detail::expBatchT<VAvx2>(x, out, n);
}

void
expDraw(const double *u, const double *rates, double *out,
        std::size_t n)
{
    detail::expDrawT<VAvx2>(u, rates, out, n);
}

void
expWeights(const float *e, double e_min, double temperature,
           double *out, std::size_t n)
{
    detail::expWeightsT<VAvx2>(e, e_min, temperature, out, n);
}

void
addRows5(const float *s, const float *a, const float *b,
         const float *c, const float *d, float *out, std::size_t n)
{
    detail::addRows5T<VAvx2>(s, a, b, c, d, out, n);
}

std::size_t
argmin(const double *t, std::size_t n)
{
    return detail::argminT<VAvx2>(t, n);
}


double
quantizeEnergies(const float *e, double top, double *q, std::size_t n)
{
    return detail::quantizeEnergiesT<VAvx2>(e, top, q, n);
}

BinRaceResult
expDrawBin(const double *u, const double *rates, std::size_t n,
           double t_max, bool drop_truncated, double *bins)
{
    return detail::expDrawBinT<VAvx2>(u, rates, n, t_max,
                                      drop_truncated, bins);
}

void
ttfBins(const double *u, const double *rates, std::size_t n,
        double t_max, bool drop_truncated, double *bins)
{
    detail::ttfBinsT<VAvx2>(u, rates, n, t_max, drop_truncated, bins);
}


void
gatherRates(const double *q, double e_min, const double *table,
            double *out, std::size_t n)
{
    detail::gatherRatesT<VAvx2>(q, e_min, table, out, n);
}

void
quantizeGatherRates(const float *e, double top, bool subtract_min,
                    const double *table, double *rates,
                    std::size_t n)
{
    detail::quantizeGatherRatesT<VAvx2>(e, top, subtract_min, table,
                                        rates, n);
}


void
quantizeClassifyRow(const float *e, double top, bool subtract_min,
                    const std::uint8_t *cls, std::size_t n,
                    std::size_t m, std::uint64_t *out)
{
    if (m == 16 && top < 16777216.0) {
        // The intrinsic core handles full-width pixels; top < 2^24
        // keeps the float-domain clamp bound exact.
        for (std::size_t p = 0; p < n; ++p) {
            detail::quantizeClassify16Avx2(
                e + p * 16, top, subtract_min, cls, out[3 * p],
                out[3 * p + 1], out[3 * p + 2]);
        }
        return;
    }
    for (std::size_t p = 0; p < n; ++p) {
        detail::quantizeClassifyT<VAvx2>(e + p * m, top, subtract_min,
                                      cls, m, out[3 * p],
                                      out[3 * p + 1],
                                      out[3 * p + 2]);
    }
}

void
gibbsWeightsRow(const float *e, std::size_t n, std::size_t m,
                double temperature, double *w)
{
    detail::gibbsWeightsRowT<VAvx2>(e, n, m, temperature, w);
}

} // namespace

namespace detail {

const KernelTable &
tableAvx2()
{
    static const KernelTable t{Backend::Avx2, "avx2",    logBatch,
                               expBatch,      expDraw,   expWeights,
                               addRows5,      argmin,      quantizeEnergies,      expDrawBin,
                               ttfBins,
                               gatherRates,   quantizeGatherRates,
                               quantizeClassifyRow,
                               gibbsWeightsRow};
    return t;
}

} // namespace detail

} // namespace simd
} // namespace retsim
