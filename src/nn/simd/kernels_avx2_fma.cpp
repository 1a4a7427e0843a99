// AVX2+FMA fast-math backend: the matmul-family kernels rewritten around
// _mm256_fmadd_ps, opted into via DEEPGATE_FAST_MATH=on (see dispatch.hpp).
// Unlike every other backend, this one is NOT bitwise-equal to the scalar
// oracle: an FMA rounds once per mul+add instead of twice, so results carry
// a tested tolerance bound instead (tests/kernel_dispatch_test.cpp). That is
// exactly why it is a separate TU and a separate table — the default avx2
// lane keeps the bitwise contract, and this TU is compiled WITHOUT
// -ffp-contract=off so the compiler may also contract the scalar tails.
//
// Everything outside the matmul family (elementwise maps, copies, the
// polynomial transcendentals) is shared with the avx2 table: FMA buys those
// kernels nothing, and sharing keeps their existing equivalence contracts.
#include "nn/simd/backend.hpp"

#ifdef DG_SIMD_AVX2_FMA_TU

#include <immintrin.h>

namespace dg::nn::kern {
namespace {

void matmul_rows_fma(float* c, const float* a, const float* b, int i0, int i1, int k, int n) {
  for (int i = i0; i < i1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    int j = 0;
    for (; j + 32 <= n; j += 32) {
      float* cj = crow + j;
      __m256 a0 = _mm256_loadu_ps(cj);
      __m256 a1 = _mm256_loadu_ps(cj + 8);
      __m256 a2 = _mm256_loadu_ps(cj + 16);
      __m256 a3 = _mm256_loadu_ps(cj + 24);
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0F) continue;
        const __m256 vav = _mm256_set1_ps(av);
        const float* bj = b + static_cast<std::size_t>(p) * n + j;
        a0 = _mm256_fmadd_ps(vav, _mm256_loadu_ps(bj), a0);
        a1 = _mm256_fmadd_ps(vav, _mm256_loadu_ps(bj + 8), a1);
        a2 = _mm256_fmadd_ps(vav, _mm256_loadu_ps(bj + 16), a2);
        a3 = _mm256_fmadd_ps(vav, _mm256_loadu_ps(bj + 24), a3);
      }
      _mm256_storeu_ps(cj, a0);
      _mm256_storeu_ps(cj + 8, a1);
      _mm256_storeu_ps(cj + 16, a2);
      _mm256_storeu_ps(cj + 24, a3);
    }
    for (; j + 8 <= n; j += 8) {
      float* cj = crow + j;
      __m256 acc = _mm256_loadu_ps(cj);
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0F) continue;
        const float* bj = b + static_cast<std::size_t>(p) * n + j;
        acc = _mm256_fmadd_ps(_mm256_set1_ps(av), _mm256_loadu_ps(bj), acc);
      }
      _mm256_storeu_ps(cj, acc);
    }
    for (int p = 0; p < k && j < n; ++p) {
      const float av = arow[p];
      if (av == 0.0F) continue;
      const float* brow = b + static_cast<std::size_t>(p) * n;
      for (int jj = j; jj < n; ++jj) crow[jj] += av * brow[jj];
    }
  }
}

void matvec_rows_fma(float* c, const float* a, const float* w, int i0, int i1, int k) {
  // Same across-8-rows layout and compare+blend zero-skip as the avx2
  // kernel; only the accumulation contracts to one rounding.
  const __m256 zero = _mm256_setzero_ps();
  const __m256i stride =
      _mm256_setr_epi32(0, k, 2 * k, 3 * k, 4 * k, 5 * k, 6 * k, 7 * k);
  int i = i0;
  for (; i + 8 <= i1; i += 8) {
    const float* base = a + static_cast<std::size_t>(i) * k;
    __m256 acc = _mm256_loadu_ps(c + i);
    for (int p = 0; p < k; ++p) {
      const __m256 av = _mm256_i32gather_ps(base + p, stride, 4);
      const __m256 mask = _mm256_cmp_ps(av, zero, _CMP_NEQ_UQ);
      const __m256 sum = _mm256_fmadd_ps(av, _mm256_set1_ps(w[p]), acc);
      acc = _mm256_blendv_ps(acc, sum, mask);
    }
    _mm256_storeu_ps(c + i, acc);
  }
  for (; i < i1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0F) continue;
      c[i] += av * w[p];
    }
  }
}

void matmul_tn_cols_fma(float* c, const float* a, const float* b, int j0, int j1, int k, int m,
                        int n) {
  for (int p = 0; p < k; ++p) {
    const float* arow = a + static_cast<std::size_t>(p) * m;
    const float* brow = b + static_cast<std::size_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0F) continue;
      float* crow = c + static_cast<std::size_t>(i) * n;
      const __m256 vav = _mm256_set1_ps(av);
      int j = j0;
      for (; j + 8 <= j1; j += 8)
        _mm256_storeu_ps(crow + j,
                         _mm256_fmadd_ps(vav, _mm256_loadu_ps(brow + j),
                                         _mm256_loadu_ps(crow + j)));
      for (; j < j1; ++j) crow[j] += av * brow[j];
    }
  }
}

void axpy_n_fma(float* a, float alpha, const float* b, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(a + i,
                     _mm256_fmadd_ps(va, _mm256_loadu_ps(b + i), _mm256_loadu_ps(a + i)));
  for (; i < n; ++i) a[i] += alpha * b[i];
}

}  // namespace

const KernelBackend* avx2_fma_backend() {
  if (avx2_backend() == nullptr) return nullptr;
  static const KernelBackend table = [] {
    KernelBackend t = *avx2_backend();  // share every non-matmul kernel
    t.name = "avx2_fma";
    t.matmul_rows = &matmul_rows_fma;
    t.matmul_tn_cols = &matmul_tn_cols_fma;
    t.matvec_rows = &matvec_rows_fma;
    t.axpy_n = &axpy_n_fma;
    return t;
  }();
  return &table;
}

}  // namespace dg::nn::kern

#else  // !DG_SIMD_AVX2_FMA_TU: non-x86-64 target or DEEPGATE_SIMD_AVX2=OFF.

namespace dg::nn::kern {
const KernelBackend* avx2_fma_backend() { return nullptr; }
}  // namespace dg::nn::kern

#endif
