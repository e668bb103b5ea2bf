// AVX2 batch kernels — the only translation unit compiled with -mavx2
// (runtime-dispatched from filter_kernel.cc, so the rest of the library
// stays baseline-x86-64). One lane per point, contributions accumulated
// in dimension order with separate multiply and add, IEEE sqrt: every
// lane runs exactly the scalar arithmetic, so results are bit-identical
// to the portable path (see filter_kernel_simd.h and the equivalence
// suite in tests/filter_kernel_test.cc).

#include "quant/filter_kernel_simd.h"

#include "common/hot_path.h"

#if defined(IQ_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace iq::internal {

namespace {

/// Gathers table entries for one dimension of four consecutive points:
/// tab_row[cells[(s+j)*dims + i]] for j in 0..3.
inline __m256d GatherRow(const double* tab_row, const uint32_t* cells,
                         size_t dims, size_t i) {
  const __m128i idx = _mm_set_epi32(
      static_cast<int>(cells[3 * dims + i]),
      static_cast<int>(cells[2 * dims + i]),
      static_cast<int>(cells[1 * dims + i]),
      static_cast<int>(cells[0 * dims + i]));
  // Masked gather with an all-ones mask: same loads as the plain form,
  // but with a defined source register (the plain intrinsic's
  // _mm256_undefined_pd() trips -Wmaybe-uninitialized under GCC).
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), tab_row, idx,
                                  _mm256_castsi256_pd(_mm256_set1_epi64x(-1)),
                                  8);
}

template <bool kL2>
inline void TableBounds4(const double* lo_tab, const double* hi_tab,
                         size_t dims, size_t stride, const uint32_t* cells,
                         double* lower, double* upper) {
  __m256d lo = _mm256_setzero_pd();
  __m256d hi = _mm256_setzero_pd();
  for (size_t i = 0; i < dims; ++i) {
    const __m256d lo_vals = GatherRow(lo_tab + i * stride, cells, dims, i);
    if constexpr (kL2) {
      lo = _mm256_add_pd(lo, lo_vals);
    } else {
      lo = _mm256_max_pd(lo, lo_vals);
    }
    if (hi_tab != nullptr) {
      const __m256d hi_vals = GatherRow(hi_tab + i * stride, cells, dims, i);
      if constexpr (kL2) {
        hi = _mm256_add_pd(hi, hi_vals);
      } else {
        hi = _mm256_max_pd(hi, hi_vals);
      }
    }
  }
  if constexpr (kL2) {
    lo = _mm256_sqrt_pd(lo);
    hi = _mm256_sqrt_pd(hi);
  }
  _mm256_storeu_pd(lower, lo);
  if (hi_tab != nullptr) _mm256_storeu_pd(upper, hi);
}

/// Scalar tail (points past the last multiple of 4) — same arithmetic.
template <bool kL2>
inline void TableBounds1(const double* lo_tab, const double* hi_tab,
                         size_t dims, size_t stride, const uint32_t* pc,
                         double* lower, double* upper) {
  double lo = 0.0;
  double hi = 0.0;
  for (size_t i = 0; i < dims; ++i) {
    const double lo_v = lo_tab[i * stride + pc[i]];
    if constexpr (kL2) {
      lo += lo_v;
    } else {
      lo = std::max(lo, lo_v);
    }
  }
  if (hi_tab != nullptr) {
    for (size_t i = 0; i < dims; ++i) {
      const double hi_v = hi_tab[i * stride + pc[i]];
      if constexpr (kL2) {
        hi += hi_v;
      } else {
        hi = std::max(hi, hi_v);
      }
    }
  }
  *lower = kL2 ? std::sqrt(lo) : lo;
  if (hi_tab != nullptr) *upper = kL2 ? std::sqrt(hi) : hi;
}

template <bool kL2>
void TableBoundsImpl(const double* lo_tab, const double* hi_tab, size_t dims,
                     size_t stride, const uint32_t* cells, size_t count,
                     double* lower, double* upper) {
  size_t s = 0;
  for (; s + 4 <= count; s += 4) {
    TableBounds4<kL2>(lo_tab, hi_tab, dims, stride, cells + s * dims,
                      lower + s, upper != nullptr ? upper + s : nullptr);
  }
  for (; s < count; ++s) {
    TableBounds1<kL2>(lo_tab, hi_tab, dims, stride, cells + s * dims,
                      lower + s, upper != nullptr ? upper + s : nullptr);
  }
}

template <bool kL2>
void DistancesImpl(const float* q, size_t dims, const float* points,
                   size_t count, double* out) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  // Row stride between the four gathered points, in floats.
  const __m128i row_idx = _mm_set_epi32(static_cast<int>(3 * dims),
                                        static_cast<int>(2 * dims),
                                        static_cast<int>(dims), 0);
  size_t s = 0;
  for (; s + 4 <= count; s += 4) {
    const float* base = points + s * dims;
    __m256d acc = _mm256_setzero_pd();
    for (size_t i = 0; i < dims; ++i) {
      const __m128 vals_ps = _mm_mask_i32gather_ps(
          _mm_setzero_ps(), base + i, row_idx,
          _mm_castsi128_ps(_mm_set1_epi32(-1)), 4);
      const __m256d p = _mm256_cvtps_pd(vals_ps);
      const __m256d qv = _mm256_set1_pd(static_cast<double>(q[i]));
      const __m256d diff = _mm256_sub_pd(qv, p);
      if constexpr (kL2) {
        acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
      } else {
        acc = _mm256_max_pd(acc, _mm256_andnot_pd(sign_mask, diff));
      }
    }
    if constexpr (kL2) acc = _mm256_sqrt_pd(acc);
    _mm256_storeu_pd(out + s, acc);
  }
  for (; s < count; ++s) {
    const float* p = points + s * dims;
    if constexpr (kL2) {
      double sum = 0.0;
      for (size_t i = 0; i < dims; ++i) {
        const double diff = static_cast<double>(q[i]) - p[i];
        sum += diff * diff;
      }
      out[s] = std::sqrt(sum);
    } else {
      double m = 0.0;
      for (size_t i = 0; i < dims; ++i) {
        m = std::max(m, std::abs(static_cast<double>(q[i]) - p[i]));
      }
      out[s] = m;
    }
  }
}

/// Box MINDIST, four boxes per iteration. Per side the distance is
/// max(max(lb - q, q - ub), 0): for lb <= ub at most one difference is
/// positive, and it is exactly MinDist's branch value. The zero is the
/// second max operand, so a -0.0 difference still yields +0.0. The
/// scalar tail spells each max as MAXPD computes it (x > y ? x : y).
template <bool kL2>
void BoxMinDistsImpl(const float* q, size_t dims, const float* lo,
                     const float* hi, size_t stride, size_t count,
                     double* out) {
  const __m256d zero = _mm256_setzero_pd();
  size_t s = 0;
  for (; s + 4 <= count; s += 4) {
    __m256d acc = zero;
    for (size_t i = 0; i < dims; ++i) {
      const __m256d lb = _mm256_cvtps_pd(_mm_loadu_ps(lo + i * stride + s));
      const __m256d ub = _mm256_cvtps_pd(_mm_loadu_ps(hi + i * stride + s));
      const __m256d qv = _mm256_set1_pd(static_cast<double>(q[i]));
      const __m256d diff = _mm256_max_pd(
          _mm256_max_pd(_mm256_sub_pd(lb, qv), _mm256_sub_pd(qv, ub)), zero);
      if constexpr (kL2) {
        acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
      } else {
        acc = _mm256_max_pd(acc, diff);
      }
    }
    if constexpr (kL2) acc = _mm256_sqrt_pd(acc);
    _mm256_storeu_pd(out + s, acc);
  }
  for (; s < count; ++s) {
    double acc = 0.0;
    for (size_t i = 0; i < dims; ++i) {
      const double qd = q[i];
      const double below = static_cast<double>(lo[i * stride + s]) - qd;
      const double above = qd - static_cast<double>(hi[i * stride + s]);
      const double gap = below > above ? below : above;
      const double diff = gap > 0.0 ? gap : 0.0;
      if constexpr (kL2) {
        acc += diff * diff;
      } else {
        acc = acc > diff ? acc : diff;
      }
    }
    out[s] = kL2 ? std::sqrt(acc) : acc;
  }
}

}  // namespace

IQ_HOT_NOALLOC
void Avx2TableBounds(const double* lo_tab, const double* hi_tab, size_t dims,
                     size_t stride, bool l2, const uint32_t* cells,
                     size_t count, double* lower, double* upper) {
  if (l2) {
    TableBoundsImpl<true>(lo_tab, hi_tab, dims, stride, cells, count, lower,
                          upper);
  } else {
    TableBoundsImpl<false>(lo_tab, hi_tab, dims, stride, cells, count, lower,
                           upper);
  }
}

IQ_HOT_NOALLOC
void Avx2Distances(const float* q, size_t dims, bool l2, const float* points,
                   size_t count, double* out) {
  if (l2) {
    DistancesImpl<true>(q, dims, points, count, out);
  } else {
    DistancesImpl<false>(q, dims, points, count, out);
  }
}

IQ_HOT_NOALLOC
void Avx2BoxMinDists(const float* q, size_t dims, bool l2, const float* lo,
                     const float* hi, size_t stride, size_t count,
                     double* out) {
  if (l2) {
    BoxMinDistsImpl<true>(q, dims, lo, hi, stride, count, out);
  } else {
    BoxMinDistsImpl<false>(q, dims, lo, hi, stride, count, out);
  }
}

}  // namespace iq::internal

#endif  // IQ_HAVE_AVX2
