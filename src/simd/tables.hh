/**
 * @file
 * Internal cross-TU table accessors for the SIMD layer.  Each backend
 * TU (kernels_<backend>.cc) defines its accessor; dispatch.cc picks
 * among the ones compiled in (RETSIM_SIMD_HAVE_* target macros, set
 * by src/simd/CMakeLists.txt alongside the per-file ISA flags).
 * Not installed; include only from src/simd.
 */

#ifndef RETSIM_SIMD_TABLES_HH
#define RETSIM_SIMD_TABLES_HH

#include "simd/kernels.hh"

namespace retsim {
namespace simd {
namespace detail {

const KernelTable &tableScalar();
const KernelTable &tableAvx2();
const KernelTable &tableNeon();

} // namespace detail
} // namespace simd
} // namespace retsim

#endif // RETSIM_SIMD_TABLES_HH
