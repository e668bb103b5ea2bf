#ifndef IQ_QUANT_FILTER_KERNEL_SIMD_H_
#define IQ_QUANT_FILTER_KERNEL_SIMD_H_

// Internal contract between filter_kernel.cc (runtime dispatch) and
// filter_kernel_avx2.cc (the only translation unit compiled with
// -mavx2). Nothing here is part of the public API.
//
// Bit-identity contract: every function computes, per point, exactly
// the scalar arithmetic of the portable path — one lane per point, the
// per-dimension contributions accumulated in dimension order with
// separate multiply and add (no FMA), and IEEE sqrt — so scalar and
// AVX2 results agree to 0 ULP (tests/filter_kernel_test.cc).

#include <cstddef>
#include <cstdint>

namespace iq::internal {

#if defined(IQ_HAVE_AVX2)

/// Table-path bounds for `count` points: lower[s] (and upper[s] when
/// hi_tab != nullptr) from per-dim tables with `stride` entries per
/// dimension. l2 selects sum+sqrt accumulation vs max.
void Avx2TableBounds(const double* lo_tab, const double* hi_tab,
                     size_t dims, size_t stride, bool l2,
                     const uint32_t* cells, size_t count, double* lower,
                     double* upper);

/// Exact batch distances from `q` to `count` row-major float points.
void Avx2Distances(const float* q, size_t dims, bool l2,
                   const float* points, size_t count, double* out);

/// MINDIST from `q` to `count` dimension-major boxes (one box per
/// lane; see FilterKernel::BoxMinDists).
void Avx2BoxMinDists(const float* q, size_t dims, bool l2, const float* lo,
                     const float* hi, size_t stride, size_t count,
                     double* out);

#endif  // IQ_HAVE_AVX2

}  // namespace iq::internal

#endif  // IQ_QUANT_FILTER_KERNEL_SIMD_H_
