/**
 * SSE4.2-backend kernel table.  Compiled with -msse4.2 (and
 * -ffp-contract=off); only referenced when RETSIM_SIMD_HAVE_SSE42 is
 * defined on the target, and only executed after runtime dispatch
 * confirms the CPU supports it.
 */

#include "simd/tables.hh"
#include "simd/vecmath.hh"

namespace retsim {
namespace simd {

namespace {

void
logBatch(const double *x, double *out, std::size_t n)
{
    detail::logBatchT<VSse42>(x, out, n);
}

void
expBatch(const double *x, double *out, std::size_t n)
{
    detail::expBatchT<VSse42>(x, out, n);
}

void
expDraw(const double *u, const double *rates, double *out,
        std::size_t n)
{
    detail::expDrawT<VSse42>(u, rates, out, n);
}

void
expWeights(const float *e, double e_min, double temperature,
           double *out, std::size_t n)
{
    detail::expWeightsT<VSse42>(e, e_min, temperature, out, n);
}

void
addRows5(const float *s, const float *a, const float *b,
         const float *c, const float *d, float *out, std::size_t n)
{
    detail::addRows5T<VSse42>(s, a, b, c, d, out, n);
}

std::size_t
argmin(const double *t, std::size_t n)
{
    return detail::argminT<VSse42>(t, n);
}


double
quantizeEnergies(const float *e, double top, double *q, std::size_t n)
{
    return detail::quantizeEnergiesT<VSse42>(e, top, q, n);
}

BinRaceResult
expDrawBin(const double *u, const double *rates, std::size_t n,
           double t_max, bool drop_truncated, double *bins)
{
    return detail::expDrawBinT<VSse42>(u, rates, n, t_max,
                                      drop_truncated, bins);
}

void
ttfBins(const double *u, const double *rates, std::size_t n,
        double t_max, bool drop_truncated, double *bins)
{
    detail::ttfBinsT<VSse42>(u, rates, n, t_max, drop_truncated, bins);
}


void
gatherRates(const double *q, double e_min, const double *table,
            double *out, std::size_t n)
{
    detail::gatherRatesT<VSse42>(q, e_min, table, out, n);
}

void
quantizeGatherRates(const float *e, double top, bool subtract_min,
                    const double *table, double *rates,
                    std::size_t n)
{
    detail::quantizeGatherRatesT<VSse42>(e, top, subtract_min, table,
                                        rates, n);
}


void
quantizeClassifyRow(const float *e, double top, bool subtract_min,
                    const std::uint8_t *cls, std::size_t n,
                    std::size_t m, std::uint64_t *out)
{
    for (std::size_t p = 0; p < n; ++p) {
        detail::quantizeClassifyT<VSse42>(e + p * m, top, subtract_min,
                                      cls, m, out[3 * p],
                                      out[3 * p + 1],
                                      out[3 * p + 2]);
    }
}

void
gibbsWeightsRow(const float *e, std::size_t n, std::size_t m,
                double temperature, double *w)
{
    detail::gibbsWeightsRowT<VSse42>(e, n, m, temperature, w);
}

} // namespace

namespace detail {

const KernelTable &
tableSse42()
{
    static const KernelTable t{Backend::Sse42, "sse42",   logBatch,
                               expBatch,       expDraw,   expWeights,
                               addRows5,       argmin,       quantizeEnergies,       expDrawBin,
                               ttfBins,
                               gatherRates,   quantizeGatherRates,
                               quantizeClassifyRow,
                               gibbsWeightsRow};
    return t;
}

} // namespace detail

} // namespace simd
} // namespace retsim
