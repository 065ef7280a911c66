/**
 * Scalar-backend kernel table and the scalar transcendental entry
 * points (slog/sexp).  This TU is the portable reference every vector
 * backend must match bit for bit; it is compiled with
 * -ffp-contract=off so the plain C++ expressions of VScalar cannot be
 * contracted into FMAs (see src/simd/CMakeLists.txt).
 */

#include "simd/tables.hh"
#include "simd/vecmath.hh"

namespace retsim {
namespace simd {

namespace detail {

const KernelTable &
tableScalar()
{
    static constexpr KernelTable t =
        makeTable<VScalar>(Backend::Scalar, "scalar");
    return t;
}

} // namespace detail

double
slog(double x)
{
    return detail::vlogCore<VScalar>(x);
}

double
sexp(double x)
{
    return detail::vexpCore<VScalar>(x);
}

} // namespace simd
} // namespace retsim
