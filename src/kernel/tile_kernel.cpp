#include "casvm/kernel/tile_kernel.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define CASVM_TILE_X86 1
#include <immintrin.h>
#endif

namespace casvm::kernel::tile {

void pack(const data::Dataset& ds, std::vector<float>& tiles) {
  const std::size_t m = ds.rows(), n = ds.cols();
  const std::size_t blocks = blockCount(m);
  tiles.assign(blocks * n * kRows, 0.0f);
  for (std::size_t j = 0; j < m; ++j) {
    const float* r = ds.denseRow(j).data();
    float* base = tiles.data() + (j / kRows) * n * kRows + j % kRows;
    for (std::size_t k = 0; k < n; ++k) base[k * kRows] = r[k];
  }
}

namespace {

/// Scores Q queries (xd: Q rows of n, out: Q rows of m) in one pass over
/// the tiles. Each query keeps its own 16 serial ascending-k sums.
template <std::size_t Q>
void groupPortable(const float* tiles, const double* xd, std::size_t m,
                   std::size_t n, double* out) {
  const std::size_t blocks = blockCount(m);
  for (std::size_t b = 0; b < blocks; ++b) {
    const float* t = tiles + b * n * kRows;
    double acc[Q][kRows] = {};
    for (std::size_t k = 0; k < n; ++k) {
      const float* tk = t + k * kRows;
      for (std::size_t p = 0; p < Q; ++p) {
        const double x = xd[p * n + k];
        for (std::size_t l = 0; l < kRows; ++l) {
          acc[p][l] += x * double(tk[l]);
        }
      }
    }
    const std::size_t base = b * kRows;
    const std::size_t cnt = std::min(kRows, m - base);
    for (std::size_t p = 0; p < Q; ++p) {
      std::memcpy(out + p * m + base, acc[p], cnt * sizeof(double));
    }
  }
}

/// A group kernel: g queries per pass, g = its index in the table + 1.
using GroupFn = void (*)(const float* tiles, const double* xd, std::size_t m,
                         std::size_t n, double* out);
using GroupTable = std::array<GroupFn, kMaxQueries>;

/// Split q queries into the fewest passes of up to kMaxQueries, sized as
/// evenly as possible (5 = 3 + 2, not 4 + 1: a lone query is the costliest
/// per query).
void runGroups(const GroupTable& groups, const float* tiles, const double* xd,
               std::size_t q, std::size_t m, std::size_t n, double* out) {
  std::size_t passes = (q + kMaxQueries - 1) / kMaxQueries;
  for (std::size_t p = 0; p < q; --passes) {
    const std::size_t g = (q - p + passes - 1) / passes;
    groups[g - 1](tiles, xd + p * n, m, n, out + p * m);
    p += g;
  }
}

constexpr GroupTable kPortableGroups = {
    &groupPortable<1>, &groupPortable<2>, &groupPortable<3>,
    &groupPortable<4>};

void dotManyPortable(const float* tiles, const double* xd, std::size_t q,
                     std::size_t m, std::size_t n, double* out) {
  runGroups(kPortableGroups, tiles, xd, q, m, n, out);
}

#ifdef CASVM_TILE_X86
// Multiplies must stay separate from adds (no FMA contraction) so lane
// rounding matches the scalar path exactly.
__attribute__((target("avx2")))
void dotAvx2(const float* tiles, const double* xd, std::size_t m,
             std::size_t n, double* out) {
  const std::size_t blocks = blockCount(m);
  for (std::size_t b = 0; b < blocks; ++b) {
    const float* t = tiles + b * n * kRows;
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    for (std::size_t k = 0; k < n; ++k) {
      const __m256d x = _mm256_broadcast_sd(xd + k);
      const float* tk = t + k * kRows;
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(x, _mm256_cvtps_pd(_mm_loadu_ps(tk))));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(x, _mm256_cvtps_pd(_mm_loadu_ps(tk + 4))));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(x, _mm256_cvtps_pd(_mm_loadu_ps(tk + 8))));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(x, _mm256_cvtps_pd(_mm_loadu_ps(tk + 12))));
    }
    const std::size_t base = b * kRows;
    if (m - base >= kRows) {
      _mm256_storeu_pd(out + base, a0);
      _mm256_storeu_pd(out + base + 4, a1);
      _mm256_storeu_pd(out + base + 8, a2);
      _mm256_storeu_pd(out + base + 12, a3);
    } else {
      double buf[kRows];
      _mm256_storeu_pd(buf, a0);
      _mm256_storeu_pd(buf + 4, a1);
      _mm256_storeu_pd(buf + 8, a2);
      _mm256_storeu_pd(buf + 12, a3);
      std::memcpy(out + base, buf, (m - base) * sizeof(double));
    }
  }
}

void dotManyAvx2(const float* tiles, const double* xd, std::size_t q,
                 std::size_t m, std::size_t n, double* out) {
  for (std::size_t p = 0; p < q; ++p) {
    dotAvx2(tiles, xd + p * n, m, n, out + p * m);
  }
}

// GCC 12 reports the _mm512_undefined_pd() pass-through operand inside
// _mm512_cvtps_pd as maybe-uninitialized; every lane is written.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/// AVX-512 group kernel: per k the 16 tile floats are loaded and widened
/// once (two 8-lane halves) and multiplied into every query's pair of
/// accumulators, so Q queries cost one pass over the tiles. Q = 2..4 keeps
/// 4..8 independent add chains in flight.
template <std::size_t Q>
__attribute__((target("avx512f")))
void groupAvx512(const float* tiles, const double* xd, std::size_t m,
                 std::size_t n, double* out) {
  const std::size_t blocks = blockCount(m);
  for (std::size_t b = 0; b < blocks; ++b) {
    const float* t = tiles + b * n * kRows;
    __m512d lo[Q], hi[Q];
    for (std::size_t p = 0; p < Q; ++p) {
      lo[p] = _mm512_setzero_pd();
      hi[p] = _mm512_setzero_pd();
    }
    for (std::size_t k = 0; k < n; ++k) {
      const float* tk = t + k * kRows;
      const __m512d t0 = _mm512_cvtps_pd(_mm256_loadu_ps(tk));
      const __m512d t1 = _mm512_cvtps_pd(_mm256_loadu_ps(tk + 8));
      for (std::size_t p = 0; p < Q; ++p) {
        const __m512d x = _mm512_set1_pd(xd[p * n + k]);
        lo[p] = _mm512_add_pd(lo[p], _mm512_mul_pd(x, t0));
        hi[p] = _mm512_add_pd(hi[p], _mm512_mul_pd(x, t1));
      }
    }
    const std::size_t base = b * kRows;
    const std::size_t cnt = std::min(kRows, m - base);
    const __mmask8 mlo = cnt >= 8 ? 0xFF : __mmask8((1u << cnt) - 1);
    const __mmask8 mhi = cnt > 8 ? __mmask8((1u << (cnt - 8)) - 1) : 0;
    for (std::size_t p = 0; p < Q; ++p) {
      _mm512_mask_storeu_pd(out + p * m + base, mlo, lo[p]);
      _mm512_mask_storeu_pd(out + p * m + base + 8, mhi, hi[p]);
    }
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

constexpr GroupTable kAvx512Groups = {&dotAvx2, &groupAvx512<2>,
                                      &groupAvx512<3>, &groupAvx512<4>};

void dotManyAvx512(const float* tiles, const double* xd, std::size_t q,
                   std::size_t m, std::size_t n, double* out) {
  runGroups(kAvx512Groups, tiles, xd, q, m, n, out);
}
#endif  // CASVM_TILE_X86

}  // namespace

DotFn dotFn() {
#ifdef CASVM_TILE_X86
  static const DotFn fn =
      __builtin_cpu_supports("avx2") ? &dotAvx2 : &groupPortable<1>;
#else
  static const DotFn fn = &groupPortable<1>;
#endif
  return fn;
}

std::span<const DotManyImpl> dotManyImpls() {
#ifdef CASVM_TILE_X86
  static const bool avx2 = __builtin_cpu_supports("avx2");
  static const DotManyImpl impls[] = {
      {"portable", true, &dotManyPortable},
      {"avx2", avx2, &dotManyAvx2},
      {"avx512", avx2 && __builtin_cpu_supports("avx512f"), &dotManyAvx512},
  };
#else
  static const DotManyImpl impls[] = {{"portable", true, &dotManyPortable}};
#endif
  return impls;
}

void dotMany(const float* tiles, const double* xd, std::size_t q,
             std::size_t m, std::size_t n, double* out) {
  // The last supported entry is the fastest.
  static const DotManyFn fn = [] {
    DotManyFn best = nullptr;
    for (const DotManyImpl& impl : dotManyImpls()) {
      if (impl.supported) best = impl.fn;
    }
    return best;
  }();
  fn(tiles, xd, q, m, n, out);
}

}  // namespace casvm::kernel::tile
