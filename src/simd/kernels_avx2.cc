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

/** The template row loop, with full 16-label pixels routed through
 *  the intrinsic core; top < 2^24 keeps its float-domain clamp bound
 *  exact. */
void
quantizeClassifyRowAvx2(const float *e, double top, bool subtract_min,
                        const std::uint8_t *cls, std::size_t n,
                        std::size_t m, std::uint64_t *out)
{
    if (m == 16 && top < 16777216.0) {
        for (std::size_t p = 0; p < n; ++p) {
            detail::quantizeClassify16Avx2(
                e + p * 16, top, subtract_min, cls, out[3 * p],
                out[3 * p + 1], out[3 * p + 2]);
        }
        return;
    }
    detail::quantizeClassifyRowT<VAvx2>(e, top, subtract_min, cls, n,
                                        m, out);
}

constexpr KernelTable
makeAvx2Table()
{
    KernelTable t = detail::makeTable<VAvx2>(Backend::Avx2, "avx2");
    t.quantizeClassifyRow = &quantizeClassifyRowAvx2;
    return t;
}

} // namespace

namespace detail {

const KernelTable &
tableAvx2()
{
    static constexpr KernelTable t = makeAvx2Table();
    return t;
}

} // namespace detail

} // namespace simd
} // namespace retsim
