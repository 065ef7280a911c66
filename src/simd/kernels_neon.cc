/**
 * NEON (AArch64) backend kernel table.  AdvSIMD is baseline on
 * AArch64, so no extra ISA flags and no runtime feature check are
 * needed — compiled in iff the target architecture is aarch64.
 * Still built with -ffp-contract=off: NEON has FMA and GCC would
 * otherwise contract the templated kernel expressions.
 */

#include "simd/tables.hh"
#include "simd/vecmath.hh"

namespace retsim {
namespace simd {
namespace detail {

const KernelTable &
tableNeon()
{
    static constexpr KernelTable t =
        makeTable<VNeon>(Backend::Neon, "neon");
    return t;
}

} // namespace detail
} // namespace simd
} // namespace retsim
