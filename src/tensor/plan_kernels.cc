#include "tensor/plan_kernels.h"

#include <algorithm>
#include <cmath>

#include "util/thread_pool.h"

#if defined(__GNUC__) || defined(__clang__)
#define EXPLAINTI_RESTRICT __restrict__
#else
#define EXPLAINTI_RESTRICT
#endif

// The fp32 and int8 GEMMs ship hand-vectorized bodies selected once at
// start-up (GCC/Clang `target` attribute + __builtin_cpu_supports): the
// library's baseline -O2 build neither register-tiles the fp32 loop nest
// nor autovectorizes the int8->int32 widening loop. Every vector body
// produces the same bits as its scalar reference — the fp32 one by
// keeping each element's rounding sequence, the int8 ones because integer
// accumulation is exact — so dispatch never changes results, only
// throughput.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EXPLAINTI_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace explainti::tensor {

namespace {

// Same constants (and the same expressions producing them) as the Gelu op
// in tensor_ops.cc — the fused FFN pass must round identically.
constexpr float kGeluCoef = 0.044715f;
const float kSqrt2OverPi = std::sqrt(2.0f / static_cast<float>(M_PI));

inline float GeluScalar(float x) {
  const float inner = kSqrt2OverPi * (x + kGeluCoef * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(inner));
}

// The scalar register-blocked body for one chunk of output rows [ib, ie):
// two output rows x four k steps per pass. It is the reference the AVX2
// body below must match bit for bit, and the fallback without AVX2.
// Strides generalise the original contiguous kernel; with lda == k,
// ldb == n, ldc == n, TransB == false this is the exact loop nest
// MatMul's serving branch always ran. Each output element accumulates its
// products in ascending-k order with every product and add individually
// rounded, so bits never depend on the blocking, the strides, or TransB
// (which only changes *where* the same B values are read from).
template <bool TransB>
void GemmRowsChunk(const float* EXPLAINTI_RESTRICT pa, int64_t lda,
                   const float* EXPLAINTI_RESTRICT pb, int64_t ldb,
                   float* EXPLAINTI_RESTRICT pc, int64_t ldc, int64_t k,
                   int64_t n, int64_t ib, int64_t ie) {
  auto b_at = [pb, ldb](int64_t kk, int64_t j) -> float {
    return TransB ? pb[j * ldb + kk] : pb[kk * ldb + j];
  };
  int64_t i = ib;
  for (; i + 2 <= ie; i += 2) {
    const float* EXPLAINTI_RESTRICT a0r = pa + i * lda;
    const float* EXPLAINTI_RESTRICT a1r = a0r + lda;
    float* EXPLAINTI_RESTRICT c0 = pc + i * ldc;
    float* EXPLAINTI_RESTRICT c1 = c0 + ldc;
    int64_t kk = 0;
    for (; kk + 4 <= k; kk += 4) {
      const float x0 = a0r[kk], x1 = a0r[kk + 1];
      const float x2 = a0r[kk + 2], x3 = a0r[kk + 3];
      const float y0 = a1r[kk], y1 = a1r[kk + 1];
      const float y2 = a1r[kk + 2], y3 = a1r[kk + 3];
      for (int64_t j = 0; j < n; ++j) {
        const float v0 = b_at(kk, j), v1 = b_at(kk + 1, j);
        const float v2 = b_at(kk + 2, j), v3 = b_at(kk + 3, j);
        float acc0 = c0[j];
        acc0 += x0 * v0;
        acc0 += x1 * v1;
        acc0 += x2 * v2;
        acc0 += x3 * v3;
        c0[j] = acc0;
        float acc1 = c1[j];
        acc1 += y0 * v0;
        acc1 += y1 * v1;
        acc1 += y2 * v2;
        acc1 += y3 * v3;
        c1[j] = acc1;
      }
    }
    for (; kk < k; ++kk) {
      const float x = a0r[kk], y = a1r[kk];
      for (int64_t j = 0; j < n; ++j) {
        const float v = b_at(kk, j);
        c0[j] += x * v;
        c1[j] += y * v;
      }
    }
  }
  for (; i < ie; ++i) {
    const float* EXPLAINTI_RESTRICT arow = pa + i * lda;
    float* EXPLAINTI_RESTRICT crow = pc + i * ldc;
    int64_t kk = 0;
    for (; kk + 4 <= k; kk += 4) {
      const float a0 = arow[kk], a1 = arow[kk + 1];
      const float a2 = arow[kk + 2], a3 = arow[kk + 3];
      for (int64_t j = 0; j < n; ++j) {
        float acc = crow[j];
        acc += a0 * b_at(kk, j);
        acc += a1 * b_at(kk + 1, j);
        acc += a2 * b_at(kk + 2, j);
        acc += a3 * b_at(kk + 3, j);
        crow[j] = acc;
      }
    }
    for (; kk < k; ++kk) {
      const float av = arow[kk];
      for (int64_t j = 0; j < n; ++j) crow[j] += av * b_at(kk, j);
    }
  }
}

#if EXPLAINTI_X86_DISPATCH

// AVX2 body of GemmRowsChunk<false>. A tile of kRows output rows x kVecs
// eight-float column vectors stays in ymm registers for the whole k
// reduction, so C is read and written once per tile instead of once per
// four k steps. Each accumulator lane starts from C and then takes, in
// ascending k, one _mm256_mul_ps product and one _mm256_add_ps — the
// scalar kernel's `acc += a * b` with the product and the add each
// rounded on its own, so every output element gets the same bits. The
// functions carry target("avx2") and never "fma": a fused multiply-add
// rounds once where the scalar kernel rounds twice.
//
// kMasked tiles (kVecs == 1) cover the last n % 8 columns through
// _mm256_maskload_ps / _mm256_maskstore_ps. Masked-off lanes are neither
// read nor written, so a per-head view never touches the next head's
// columns in C, nor reads past the end of B.
template <bool kMasked>
__attribute__((target("avx2"))) inline __m256 LoadCols(const float* p,
                                                        __m256i mask) {
  if constexpr (kMasked) {
    return _mm256_maskload_ps(p, mask);
  } else {
    return _mm256_loadu_ps(p);
  }
}

template <bool kMasked>
__attribute__((target("avx2"))) inline void StoreCols(float* p, __m256i mask,
                                                       __m256 v) {
  if constexpr (kMasked) {
    _mm256_maskstore_ps(p, mask, v);
  } else {
    _mm256_storeu_ps(p, v);
  }
}

template <int kRows, int kVecs, bool kMasked>
__attribute__((target("avx2"))) inline void GemmTileAvx2(
    const float* EXPLAINTI_RESTRICT pa, int64_t lda,
    const float* EXPLAINTI_RESTRICT pb, int64_t ldb,
    float* EXPLAINTI_RESTRICT pc, int64_t ldc, int64_t k, __m256i mask) {
  static_assert(!kMasked || kVecs == 1, "only a single vector is masked");
  // Constant-bound loops over the tile unroll completely, so acc[][] is
  // kRows * kVecs named registers, not a stack array.
  __m256 acc[kRows][kVecs];
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) {
      acc[r][v] = LoadCols<kMasked>(pc + r * ldc + 8 * v, mask);
    }
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* EXPLAINTI_RESTRICT brow = pb + kk * ldb;
    __m256 bv[kVecs];
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) {
      bv[v] = LoadCols<kMasked>(brow + 8 * v, mask);
    }
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) {
      const __m256 x = _mm256_broadcast_ss(pa + r * lda + kk);
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(x, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) {
      StoreCols<kMasked>(pc + r * ldc + 8 * v, mask, acc[r][v]);
    }
  }
}

// One group of kRows output rows across all n columns: 16-column tiles,
// then one 8-column tile, then the masked remainder. A single row starts
// with 32-column tiles so it still has four independent add chains.
template <int kRows>
__attribute__((target("avx2"))) inline void GemmRowGroupAvx2(
    const float* EXPLAINTI_RESTRICT pa, int64_t lda,
    const float* EXPLAINTI_RESTRICT pb, int64_t ldb,
    float* EXPLAINTI_RESTRICT pc, int64_t ldc, int64_t k, int64_t n) {
  const __m256i all = _mm256_set1_epi32(-1);
  int64_t j = 0;
  if constexpr (kRows == 1) {
    for (; j + 32 <= n; j += 32) {
      GemmTileAvx2<1, 4, false>(pa, lda, pb + j, ldb, pc + j, ldc, k, all);
    }
  }
  for (; j + 16 <= n; j += 16) {
    GemmTileAvx2<kRows, 2, false>(pa, lda, pb + j, ldb, pc + j, ldc, k, all);
  }
  if (j + 8 <= n) {
    GemmTileAvx2<kRows, 1, false>(pa, lda, pb + j, ldb, pc + j, ldc, k, all);
    j += 8;
  }
  if (j < n) {
    const __m256i tail = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(n - j)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    GemmTileAvx2<kRows, 1, true>(pa, lda, pb + j, ldb, pc + j, ldc, k, tail);
  }
}

// Output rows [ib, ie) in 4-row groups, then the last m % 4 rows one at a
// time. Same signature and contract as GemmRowsChunk<false>.
__attribute__((target("avx2"))) void GemmRowsChunkAvx2(
    const float* EXPLAINTI_RESTRICT pa, int64_t lda,
    const float* EXPLAINTI_RESTRICT pb, int64_t ldb,
    float* EXPLAINTI_RESTRICT pc, int64_t ldc, int64_t k, int64_t n,
    int64_t ib, int64_t ie) {
  int64_t i = ib;
  for (; i + 4 <= ie; i += 4) {
    GemmRowGroupAvx2<4>(pa + i * lda, lda, pb, ldb, pc + i * ldc, ldc, k, n);
  }
  for (; i < ie; ++i) {
    GemmRowGroupAvx2<1>(pa + i * lda, lda, pb, ldb, pc + i * ldc, ldc, k, n);
  }
}

#endif  // EXPLAINTI_X86_DISPATCH

using F32RowsChunkFn = void (*)(const float*, int64_t, const float*, int64_t,
                                float*, int64_t, int64_t, int64_t, int64_t,
                                int64_t);

F32RowsChunkFn ResolveF32RowsChunk() {
#if EXPLAINTI_X86_DISPATCH
  if (__builtin_cpu_supports("avx2")) return GemmRowsChunkAvx2;
#endif
  return GemmRowsChunk<false>;
}

// Resolved once at start-up; both bodies produce identical bits.
const F32RowsChunkFn kF32RowsChunk = ResolveF32RowsChunk();

}  // namespace

void ServingGemm(const float* a, int64_t lda, const float* b, int64_t ldb,
                 bool trans_b, float* c, int64_t ldc, int64_t m, int64_t k,
                 int64_t n) {
  // Rows [ib, ie) x columns [jb, je): the row kernel over a column window
  // of B and C. Every output element is computed by exactly one chunk.
  auto chunk = [&](int64_t ib, int64_t ie, int64_t jb, int64_t je) {
    if (trans_b) {
      GemmRowsChunk<true>(a, lda, b + jb * ldb, ldb, c + jb, ldc, k, je - jb,
                          ib, ie);
    } else {
      kF32RowsChunk(a, lda, b + jb, ldb, c + jb, ldc, k, je - jb, ib, ie);
    }
  };
  // Same ParallelFor shapes and grains as the MatMul this kernel was
  // extracted from: chunks touch disjoint output rows (or, for a single
  // output row, disjoint columns), so the result is chunking-invariant.
  // When the whole range fits one chunk anyway — or the pool has no
  // workers to fan out to — the chunk runs directly: it computes the same
  // thing, and skipping ParallelFor's std::function envelope (which
  // heap-allocates for these captures) is what keeps a warmed-up
  // single-threaded plan execution at zero allocations.
  const bool serial = util::GlobalThreadPool().num_threads() <= 1;
  if (m > 1) {
    const int64_t grain = util::GrainForCost(k * n);
    if (m <= grain || serial) {
      chunk(0, m, 0, n);
      return;
    }
    util::ParallelFor(0, m, grain, [&](int64_t ib, int64_t ie) {
      chunk(ib, ie, 0, n);
    });
  } else {
    const int64_t grain = util::GrainForCost(k);
    if (n <= grain || serial) {
      chunk(0, m, 0, n);
      return;
    }
    util::ParallelFor(0, n, grain, [&](int64_t jb, int64_t je) {
      chunk(0, m, jb, je);
    });
  }
}

void ZeroRows(float* c, int64_t ldc, int64_t m, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
  }
}

void AddBiasRows(float* c, int64_t ldc, const float* bias, int64_t m,
                 int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    float* EXPLAINTI_RESTRICT row = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) row[j] = row[j] + bias[j];
  }
}

void BiasGeluRows(float* c, int64_t ldc, const float* bias, int64_t m,
                  int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    float* EXPLAINTI_RESTRICT row = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) row[j] = GeluScalar(row[j] + bias[j]);
  }
}

void ScaleSoftmaxRows(float* c, int64_t rows, int64_t cols, float scale) {
  // Scale the whole matrix first (the Scale op was a full separate pass),
  // then the exact Softmax row loop. Row order is irrelevant to bits (rows
  // are independent), so the serial loop matches the chunked op.
  const int64_t total = rows * cols;
  for (int64_t i = 0; i < total; ++i) c[i] = c[i] * scale;
  for (int64_t r = 0; r < rows; ++r) {
    float* EXPLAINTI_RESTRICT row = c + r * cols;
    float max_v = row[0];
    for (int64_t j = 1; j < cols; ++j) max_v = std::max(max_v, row[j]);
    float total_exp = 0.0f;
    for (int64_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - max_v);
      total_exp += row[j];
    }
    for (int64_t j = 0; j < cols; ++j) row[j] /= total_exp;
  }
}

namespace {

// The LayerNorm row body from tensor_ops.cc, normalising `out` in place.
// Reading the sums back from `out` in the mean/variance/normalise passes
// sees exactly the values the unfused Add node held.
inline void LayerNormRowInPlace(float* EXPLAINTI_RESTRICT out, int64_t cols,
                                const float* EXPLAINTI_RESTRICT gamma,
                                const float* EXPLAINTI_RESTRICT beta,
                                float eps) {
  float mean = 0.0f;
  for (int64_t j = 0; j < cols; ++j) mean += out[j];
  mean /= static_cast<float>(cols);
  float var = 0.0f;
  for (int64_t j = 0; j < cols; ++j) {
    const float d = out[j] - mean;
    var += d * d;
  }
  var /= static_cast<float>(cols);
  const float inv_std = 1.0f / std::sqrt(var + eps);
  for (int64_t j = 0; j < cols; ++j) {
    out[j] = (out[j] - mean) * inv_std * gamma[j] + beta[j];
  }
}

}  // namespace

void ResidualLayerNormRows(const float* x, const float* f, float* out,
                           int64_t rows, int64_t cols, const float* gamma,
                           const float* beta, float eps) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* EXPLAINTI_RESTRICT xr = x + r * cols;
    const float* EXPLAINTI_RESTRICT fr = f + r * cols;
    float* EXPLAINTI_RESTRICT or_ = out + r * cols;
    for (int64_t j = 0; j < cols; ++j) or_[j] = xr[j] + fr[j];
    LayerNormRowInPlace(or_, cols, gamma, beta, eps);
  }
}

namespace {

// The reference per-row activation quantizer (QuantizeRowsInt8's
// contract) and the fallback without AVX2.
void QuantizeRowInt8(const float* EXPLAINTI_RESTRICT row, int64_t k,
                     int8_t* EXPLAINTI_RESTRICT out, float* scale_out,
                     int32_t* zp_out) {
  float lo = row[0], hi = row[0];
  for (int64_t kk = 1; kk < k; ++kk) {
    lo = std::min(lo, row[kk]);
    hi = std::max(hi, row[kk]);
  }
  const float range = hi - lo;
  const float scale = range > 0.0f ? range / 255.0f : 1.0f;
  const float inv_scale = 1.0f / scale;
  const int32_t zp = -128 - static_cast<int32_t>(std::lrintf(lo * inv_scale));
  *scale_out = scale;
  *zp_out = zp;
  for (int64_t kk = 0; kk < k; ++kk) {
    const int32_t q =
        static_cast<int32_t>(std::lrintf(row[kk] * inv_scale)) + zp;
    out[kk] = static_cast<int8_t>(std::clamp(q, -128, 127));
  }
}

#if EXPLAINTI_X86_DISPATCH

// AVX2 body of QuantizeRowInt8, identical bits. The min/max reduction is
// order-free; the only freedom it takes is the sign of a zero min or max,
// which cannot change the range or the rounded zero point. The scaled
// values go through the same single _mm256_mul_ps rounding, and
// _mm256_cvtps_epi32 rounds to nearest-even under the same MXCSR mode
// lrintf uses. That conversion agrees with lrintf only inside the int32
// range, so a row whose scaled magnitude could reach 2^30 — only a tight
// cluster far from zero — or that holds a NaN takes the scalar body.
__attribute__((target("avx2"))) void QuantizeRowInt8Avx2(
    const float* EXPLAINTI_RESTRICT row, int64_t k,
    int8_t* EXPLAINTI_RESTRICT out, float* scale_out, int32_t* zp_out) {
  __m256 vlo = _mm256_set1_ps(row[0]);
  __m256 vhi = vlo;
  __m256 nan = _mm256_setzero_ps();
  int64_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    const __m256 x = _mm256_loadu_ps(row + kk);
    vlo = _mm256_min_ps(vlo, x);
    vhi = _mm256_max_ps(vhi, x);
    nan = _mm256_or_ps(nan, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
  }
  alignas(32) float lanes_lo[8], lanes_hi[8];
  _mm256_store_ps(lanes_lo, vlo);
  _mm256_store_ps(lanes_hi, vhi);
  float lo = lanes_lo[0], hi = lanes_hi[0];
  for (int t = 1; t < 8; ++t) {
    lo = std::min(lo, lanes_lo[t]);
    hi = std::max(hi, lanes_hi[t]);
  }
  for (int64_t t = kk; t < k; ++t) {
    lo = std::min(lo, row[t]);
    hi = std::max(hi, row[t]);
  }
  const float range = hi - lo;
  const float scale = range > 0.0f ? range / 255.0f : 1.0f;
  const float inv_scale = 1.0f / scale;
  const float bound = std::max(std::fabs(lo), std::fabs(hi)) * inv_scale;
  if (_mm256_movemask_ps(nan) != 0 || !(bound < 1073741824.0f)) {
    QuantizeRowInt8(row, k, out, scale_out, zp_out);
    return;
  }
  const int32_t zp = -128 - static_cast<int32_t>(std::lrintf(lo * inv_scale));
  *scale_out = scale;
  *zp_out = zp;
  const __m256 vinv = _mm256_set1_ps(inv_scale);
  const __m256i vzp = _mm256_set1_epi32(zp);
  const __m256i qmin = _mm256_set1_epi32(-128);
  const __m256i qmax = _mm256_set1_epi32(127);
  for (kk = 0; kk + 8 <= k; kk += 8) {
    const __m256i q = _mm256_add_epi32(
        _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(row + kk), vinv)),
        vzp);
    const __m256i c = _mm256_max_epi32(_mm256_min_epi32(q, qmax), qmin);
    const __m128i w16 = _mm_packs_epi32(_mm256_castsi256_si128(c),
                                        _mm256_extracti128_si256(c, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + kk),
                     _mm_packs_epi16(w16, w16));
  }
  for (; kk < k; ++kk) {
    const int32_t q =
        static_cast<int32_t>(std::lrintf(row[kk] * inv_scale)) + zp;
    out[kk] = static_cast<int8_t>(std::clamp(q, -128, 127));
  }
}

#endif  // EXPLAINTI_X86_DISPATCH

using QuantizeRowFn = void (*)(const float*, int64_t, int8_t*, float*,
                               int32_t*);

QuantizeRowFn ResolveQuantizeRow() {
#if EXPLAINTI_X86_DISPATCH
  if (__builtin_cpu_supports("avx2")) return QuantizeRowInt8Avx2;
#endif
  return QuantizeRowInt8;
}

// Resolved once at start-up; both bodies produce identical bits.
const QuantizeRowFn kQuantizeRow = ResolveQuantizeRow();

}  // namespace

void QuantizeRowsInt8(const float* a, int64_t lda, int64_t m, int64_t k,
                      int8_t* aq, float* scales, int32_t* zero_points) {
  for (int64_t i = 0; i < m; ++i) {
    kQuantizeRow(a + i * lda, k, aq + i * k, scales + i, zero_points + i);
  }
}

namespace {

// Output-column tile width of the int8 row kernel: 2 rows x 16 columns
// of int32 accumulators live entirely in registers / L1 stack slots, so
// the kernel spills nothing to the heap (the zero-steady-state-
// allocation contract covers the int8 path too).
constexpr int64_t kInt8ColTile = 16;

// Register-blocked int8 chunk over output rows [ib, ie): two output rows
// x a 16-column accumulator tile x four k steps, dequant fused into the
// C write. Integer accumulation is exact, so unlike the fp32 kernel
// there is no rounding-order contract to preserve — the blocking is
// purely for throughput.
void GemmRowsChunkInt8(const int8_t* EXPLAINTI_RESTRICT pa,
                       const float* EXPLAINTI_RESTRICT a_scales,
                       const int32_t* EXPLAINTI_RESTRICT a_zps,
                       const int8_t* EXPLAINTI_RESTRICT pb,
                       const float* EXPLAINTI_RESTRICT b_scales,
                       const int32_t* EXPLAINTI_RESTRICT b_col_sums,
                       float* EXPLAINTI_RESTRICT pc, int64_t ldc, int64_t k,
                       int64_t n, int64_t ib, int64_t ie) {
  int32_t acc0[kInt8ColTile];
  int32_t acc1[kInt8ColTile];
  int64_t i = ib;
  for (; i + 2 <= ie; i += 2) {
    const int8_t* EXPLAINTI_RESTRICT a0r = pa + i * k;
    const int8_t* EXPLAINTI_RESTRICT a1r = a0r + k;
    float* EXPLAINTI_RESTRICT c0 = pc + i * ldc;
    float* EXPLAINTI_RESTRICT c1 = c0 + ldc;
    const float s0 = a_scales[i], s1 = a_scales[i + 1];
    const int32_t z0 = a_zps[i], z1 = a_zps[i + 1];
    for (int64_t jt = 0; jt < n; jt += kInt8ColTile) {
      const int64_t jn = std::min(kInt8ColTile, n - jt);
      for (int64_t jj = 0; jj < jn; ++jj) acc0[jj] = 0;
      for (int64_t jj = 0; jj < jn; ++jj) acc1[jj] = 0;
      int64_t kk = 0;
      for (; kk + 4 <= k; kk += 4) {
        const int32_t x0 = a0r[kk], x1 = a0r[kk + 1];
        const int32_t x2 = a0r[kk + 2], x3 = a0r[kk + 3];
        const int32_t y0 = a1r[kk], y1 = a1r[kk + 1];
        const int32_t y2 = a1r[kk + 2], y3 = a1r[kk + 3];
        const int8_t* EXPLAINTI_RESTRICT b0 = pb + kk * n + jt;
        const int8_t* EXPLAINTI_RESTRICT b1 = b0 + n;
        const int8_t* EXPLAINTI_RESTRICT b2 = b1 + n;
        const int8_t* EXPLAINTI_RESTRICT b3 = b2 + n;
        for (int64_t jj = 0; jj < jn; ++jj) {
          const int32_t v0 = b0[jj], v1 = b1[jj];
          const int32_t v2 = b2[jj], v3 = b3[jj];
          acc0[jj] += x0 * v0 + x1 * v1 + x2 * v2 + x3 * v3;
          acc1[jj] += y0 * v0 + y1 * v1 + y2 * v2 + y3 * v3;
        }
      }
      for (; kk < k; ++kk) {
        const int32_t x = a0r[kk], y = a1r[kk];
        const int8_t* EXPLAINTI_RESTRICT br = pb + kk * n + jt;
        for (int64_t jj = 0; jj < jn; ++jj) {
          acc0[jj] += x * br[jj];
          acc1[jj] += y * br[jj];
        }
      }
      for (int64_t jj = 0; jj < jn; ++jj) {
        const int64_t j = jt + jj;
        c0[j] = static_cast<float>(acc0[jj] - z0 * b_col_sums[j]) *
                (s0 * b_scales[j]);
        c1[j] = static_cast<float>(acc1[jj] - z1 * b_col_sums[j]) *
                (s1 * b_scales[j]);
      }
    }
  }
  for (; i < ie; ++i) {
    const int8_t* EXPLAINTI_RESTRICT arow = pa + i * k;
    float* EXPLAINTI_RESTRICT crow = pc + i * ldc;
    const float s = a_scales[i];
    const int32_t z = a_zps[i];
    for (int64_t jt = 0; jt < n; jt += kInt8ColTile) {
      const int64_t jn = std::min(kInt8ColTile, n - jt);
      for (int64_t jj = 0; jj < jn; ++jj) acc0[jj] = 0;
      int64_t kk = 0;
      for (; kk + 4 <= k; kk += 4) {
        const int32_t x0 = arow[kk], x1 = arow[kk + 1];
        const int32_t x2 = arow[kk + 2], x3 = arow[kk + 3];
        const int8_t* EXPLAINTI_RESTRICT b0 = pb + kk * n + jt;
        const int8_t* EXPLAINTI_RESTRICT b1 = b0 + n;
        const int8_t* EXPLAINTI_RESTRICT b2 = b1 + n;
        const int8_t* EXPLAINTI_RESTRICT b3 = b2 + n;
        for (int64_t jj = 0; jj < jn; ++jj) {
          acc0[jj] += x0 * b0[jj] + x1 * b1[jj] + x2 * b2[jj] + x3 * b3[jj];
        }
      }
      for (; kk < k; ++kk) {
        const int32_t x = arow[kk];
        const int8_t* EXPLAINTI_RESTRICT br = pb + kk * n + jt;
        for (int64_t jj = 0; jj < jn; ++jj) acc0[jj] += x * br[jj];
      }
      for (int64_t jj = 0; jj < jn; ++jj) {
        const int64_t j = jt + jj;
        crow[j] = static_cast<float>(acc0[jj] - z * b_col_sums[j]) *
                  (s * b_scales[j]);
      }
    }
  }
}

// Single-output-row int8 kernel (m == 1), chunked over columns [jb, je).
void GemmVecChunkInt8(const int8_t* EXPLAINTI_RESTRICT pa, float a_scale,
                      int32_t a_zp, const int8_t* EXPLAINTI_RESTRICT pb,
                      const float* EXPLAINTI_RESTRICT b_scales,
                      const int32_t* EXPLAINTI_RESTRICT b_col_sums,
                      float* EXPLAINTI_RESTRICT pc, int64_t k, int64_t n,
                      int64_t jb, int64_t je) {
  for (int64_t j = jb; j < je; ++j) {
    int32_t acc = 0;
    int64_t kk = 0;
    for (; kk + 4 <= k; kk += 4) {
      acc += static_cast<int32_t>(pa[kk]) * pb[kk * n + j];
      acc += static_cast<int32_t>(pa[kk + 1]) * pb[(kk + 1) * n + j];
      acc += static_cast<int32_t>(pa[kk + 2]) * pb[(kk + 2) * n + j];
      acc += static_cast<int32_t>(pa[kk + 3]) * pb[(kk + 3) * n + j];
    }
    for (; kk < k; ++kk) {
      acc += static_cast<int32_t>(pa[kk]) * pb[kk * n + j];
    }
    pc[j] = static_cast<float>(acc - a_zp * b_col_sums[j]) *
            (a_scale * b_scales[j]);
  }
}

#if EXPLAINTI_X86_DISPATCH

// Largest reduction depth the AVX2 body handles with its stack-resident
// packed-activation buffer (4 rows x kInt8MaxK/2 int32 pairs = 32 KiB of
// stack). Deeper GEMMs fall back to the scalar body; serving weight
// matrices (d_model / ffn_dim reductions) sit far below this.
constexpr int64_t kInt8MaxK = 4096;

// AVX2 int8 chunk over output rows [ib, ie): up to 4 rows x 16 int32
// accumulator lanes, two k steps per _mm256_madd_epi16. Activations are
// sign-extended to int16 and packed into (a[2p], a[2p+1]) pairs once per
// row group; weights are widened per k-pair and interleaved with
// unpacklo/hi so madd contracts the pair against both k rows at once.
// int16 products are exact (|a*b| <= 128*127) and the int32 pair-sums and
// accumulation are exact, so this body is bit-identical to the scalar
// kernel at every shape.
//
// unpack{lo,hi}_epi16 interleave within 128-bit lanes, so the two
// accumulators hold columns [0..3, 8..11] and [4..7, 12..15] of the tile;
// the epilogue below maps lanes back to column order before the k tail
// and the dequant write.

// Scalar tile epilogue shared by the 4-row and tail-row paths: maps the
// two spilled accumulator registers (`ta` = columns [0..3, 8..11], `tb` =
// [4..7, 12..15]) back to column order, folds the odd-k tail, and writes
// the dequantized floats. No intrinsics, so it needs no target attribute.
inline void Int8TileEpilogue(const int32_t* EXPLAINTI_RESTRICT ta,
                             const int32_t* EXPLAINTI_RESTRICT tb,
                             const int8_t* EXPLAINTI_RESTRICT arow,
                             const int8_t* EXPLAINTI_RESTRICT pb,
                             const float* EXPLAINTI_RESTRICT b_scales,
                             const int32_t* EXPLAINTI_RESTRICT b_col_sums,
                             float* EXPLAINTI_RESTRICT crow, int64_t k,
                             int64_t k2, int64_t n, int64_t jt, float s,
                             int32_t z) {
  int32_t cols[16];
  for (int t = 0; t < 4; ++t) {
    cols[t] = ta[t];
    cols[4 + t] = tb[t];
    cols[8 + t] = ta[4 + t];
    cols[12 + t] = tb[4 + t];
  }
  for (int64_t kk = k2; kk < k; ++kk) {
    const int32_t x = arow[kk];
    const int8_t* EXPLAINTI_RESTRICT br = pb + kk * n + jt;
    for (int jj = 0; jj < 16; ++jj) cols[jj] += x * br[jj];
  }
  for (int jj = 0; jj < 16; ++jj) {
    const int64_t j = jt + jj;
    crow[j] =
        static_cast<float>(cols[jj] - z * b_col_sums[j]) * (s * b_scales[j]);
  }
}

__attribute__((target("avx2"))) void GemmRowsChunkInt8Avx2(
    const int8_t* EXPLAINTI_RESTRICT pa,
    const float* EXPLAINTI_RESTRICT a_scales,
    const int32_t* EXPLAINTI_RESTRICT a_zps,
    const int8_t* EXPLAINTI_RESTRICT pb,
    const float* EXPLAINTI_RESTRICT b_scales,
    const int32_t* EXPLAINTI_RESTRICT b_col_sums,
    float* EXPLAINTI_RESTRICT pc, int64_t ldc, int64_t k, int64_t n,
    int64_t ib, int64_t ie) {
  if (k > kInt8MaxK) {
    GemmRowsChunkInt8(pa, a_scales, a_zps, pb, b_scales, b_col_sums, pc, ldc,
                      k, n, ib, ie);
    return;
  }
  const int64_t kp = k / 2;        // Complete k pairs; odd tail is scalar.
  const int64_t n16 = n & ~int64_t{15};
  alignas(32) int32_t pairs[4][kInt8MaxK / 2];
  for (int64_t i = ib; i < ie; i += 4) {
    const int rows = static_cast<int>(std::min<int64_t>(4, ie - i));
    for (int r = 0; r < rows; ++r) {
      const int8_t* EXPLAINTI_RESTRICT arow = pa + (i + r) * k;
      for (int64_t p = 0; p < kp; ++p) {
        const uint32_t lo16 =
            static_cast<uint16_t>(static_cast<int16_t>(arow[2 * p]));
        const uint32_t hi16 =
            static_cast<uint16_t>(static_cast<int16_t>(arow[2 * p + 1]));
        pairs[r][p] = static_cast<int32_t>(lo16 | (hi16 << 16));
      }
    }
    if (rows == 4) {
      // Hot path: named accumulators so they live in ymm registers for
      // the whole k reduction (a runtime-bounded row loop would spill
      // them to the stack on every madd).
      for (int64_t jt = 0; jt < n16; jt += 16) {
        __m256i a0 = _mm256_setzero_si256(), b0acc = _mm256_setzero_si256();
        __m256i a1 = _mm256_setzero_si256(), b1acc = _mm256_setzero_si256();
        __m256i a2 = _mm256_setzero_si256(), b2acc = _mm256_setzero_si256();
        __m256i a3 = _mm256_setzero_si256(), b3acc = _mm256_setzero_si256();
        const int8_t* EXPLAINTI_RESTRICT bbase = pb + jt;
        for (int64_t p = 0; p < kp; ++p) {
          const int8_t* EXPLAINTI_RESTRICT b0 = bbase + (2 * p) * n;
          const __m256i b0w = _mm256_cvtepi8_epi16(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(b0)));
          const __m256i b1w = _mm256_cvtepi8_epi16(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(b0 + n)));
          const __m256i lo = _mm256_unpacklo_epi16(b0w, b1w);
          const __m256i hi = _mm256_unpackhi_epi16(b0w, b1w);
          const __m256i x0 = _mm256_set1_epi32(pairs[0][p]);
          a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(lo, x0));
          b0acc = _mm256_add_epi32(b0acc, _mm256_madd_epi16(hi, x0));
          const __m256i x1 = _mm256_set1_epi32(pairs[1][p]);
          a1 = _mm256_add_epi32(a1, _mm256_madd_epi16(lo, x1));
          b1acc = _mm256_add_epi32(b1acc, _mm256_madd_epi16(hi, x1));
          const __m256i x2 = _mm256_set1_epi32(pairs[2][p]);
          a2 = _mm256_add_epi32(a2, _mm256_madd_epi16(lo, x2));
          b2acc = _mm256_add_epi32(b2acc, _mm256_madd_epi16(hi, x2));
          const __m256i x3 = _mm256_set1_epi32(pairs[3][p]);
          a3 = _mm256_add_epi32(a3, _mm256_madd_epi16(lo, x3));
          b3acc = _mm256_add_epi32(b3acc, _mm256_madd_epi16(hi, x3));
        }
        alignas(32) int32_t ta[4][8], tb[4][8];
        _mm256_store_si256(reinterpret_cast<__m256i*>(ta[0]), a0);
        _mm256_store_si256(reinterpret_cast<__m256i*>(tb[0]), b0acc);
        _mm256_store_si256(reinterpret_cast<__m256i*>(ta[1]), a1);
        _mm256_store_si256(reinterpret_cast<__m256i*>(tb[1]), b1acc);
        _mm256_store_si256(reinterpret_cast<__m256i*>(ta[2]), a2);
        _mm256_store_si256(reinterpret_cast<__m256i*>(tb[2]), b2acc);
        _mm256_store_si256(reinterpret_cast<__m256i*>(ta[3]), a3);
        _mm256_store_si256(reinterpret_cast<__m256i*>(tb[3]), b3acc);
        for (int r = 0; r < 4; ++r) {
          Int8TileEpilogue(ta[r], tb[r], pa + (i + r) * k, pb, b_scales,
                           b_col_sums, pc + (i + r) * ldc, k, kp * 2, n, jt,
                           a_scales[i + r], a_zps[i + r]);
        }
      }
    } else {
      for (int64_t jt = 0; jt < n16; jt += 16) {
        __m256i acc_a[4], acc_b[4];
        for (int r = 0; r < rows; ++r) {
          acc_a[r] = _mm256_setzero_si256();
          acc_b[r] = _mm256_setzero_si256();
        }
        const int8_t* EXPLAINTI_RESTRICT bbase = pb + jt;
        for (int64_t p = 0; p < kp; ++p) {
          const int8_t* EXPLAINTI_RESTRICT b0 = bbase + (2 * p) * n;
          const __m256i b0w = _mm256_cvtepi8_epi16(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(b0)));
          const __m256i b1w = _mm256_cvtepi8_epi16(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(b0 + n)));
          const __m256i lo = _mm256_unpacklo_epi16(b0w, b1w);
          const __m256i hi = _mm256_unpackhi_epi16(b0w, b1w);
          for (int r = 0; r < rows; ++r) {
            const __m256i x = _mm256_set1_epi32(pairs[r][p]);
            acc_a[r] = _mm256_add_epi32(acc_a[r], _mm256_madd_epi16(lo, x));
            acc_b[r] = _mm256_add_epi32(acc_b[r], _mm256_madd_epi16(hi, x));
          }
        }
        for (int r = 0; r < rows; ++r) {
          alignas(32) int32_t ta[8], tb[8];
          _mm256_store_si256(reinterpret_cast<__m256i*>(ta), acc_a[r]);
          _mm256_store_si256(reinterpret_cast<__m256i*>(tb), acc_b[r]);
          Int8TileEpilogue(ta, tb, pa + (i + r) * k, pb, b_scales, b_col_sums,
                           pc + (i + r) * ldc, k, kp * 2, n, jt,
                           a_scales[i + r], a_zps[i + r]);
        }
      }
    }
    for (int r = 0; r < rows; ++r) {  // Column tail [n16, n), scalar.
      const int8_t* EXPLAINTI_RESTRICT arow = pa + (i + r) * k;
      float* EXPLAINTI_RESTRICT crow = pc + (i + r) * ldc;
      const float s = a_scales[i + r];
      const int32_t z = a_zps[i + r];
      for (int64_t j = n16; j < n; ++j) {
        int32_t acc = 0;
        for (int64_t kk = 0; kk < k; ++kk) {
          acc += static_cast<int32_t>(arow[kk]) * pb[kk * n + j];
        }
        crow[j] = static_cast<float>(acc - z * b_col_sums[j]) *
                  (s * b_scales[j]);
      }
    }
  }
}

// AVX-512BW variant: identical structure to the AVX2 4-row body with the
// tile width doubled to 32 columns (zmm madd). Same exact integer math,
// so still bit-identical to the scalar kernel. zmm unpack{lo,hi}_epi16
// interleave per 128-bit lane, so lane L of the two accumulators holds
// columns [L*8 .. L*8+3] and [L*8+4 .. L*8+7] of the tile.
inline void Int8TileEpilogue32(const int32_t* EXPLAINTI_RESTRICT ta,
                               const int32_t* EXPLAINTI_RESTRICT tb,
                               const int8_t* EXPLAINTI_RESTRICT arow,
                               const int8_t* EXPLAINTI_RESTRICT pb,
                               const float* EXPLAINTI_RESTRICT b_scales,
                               const int32_t* EXPLAINTI_RESTRICT b_col_sums,
                               float* EXPLAINTI_RESTRICT crow, int64_t k,
                               int64_t k2, int64_t n, int64_t jt, float s,
                               int32_t z) {
  int32_t cols[32];
  for (int lane = 0; lane < 4; ++lane) {
    for (int t = 0; t < 4; ++t) {
      cols[lane * 8 + t] = ta[lane * 4 + t];
      cols[lane * 8 + 4 + t] = tb[lane * 4 + t];
    }
  }
  for (int64_t kk = k2; kk < k; ++kk) {
    const int32_t x = arow[kk];
    const int8_t* EXPLAINTI_RESTRICT br = pb + kk * n + jt;
    for (int jj = 0; jj < 32; ++jj) cols[jj] += x * br[jj];
  }
  for (int jj = 0; jj < 32; ++jj) {
    const int64_t j = jt + jj;
    crow[j] =
        static_cast<float>(cols[jj] - z * b_col_sums[j]) * (s * b_scales[j]);
  }
}

__attribute__((target("avx512f,avx512bw"))) void GemmRowsChunkInt8Avx512(
    const int8_t* EXPLAINTI_RESTRICT pa,
    const float* EXPLAINTI_RESTRICT a_scales,
    const int32_t* EXPLAINTI_RESTRICT a_zps,
    const int8_t* EXPLAINTI_RESTRICT pb,
    const float* EXPLAINTI_RESTRICT b_scales,
    const int32_t* EXPLAINTI_RESTRICT b_col_sums,
    float* EXPLAINTI_RESTRICT pc, int64_t ldc, int64_t k, int64_t n,
    int64_t ib, int64_t ie) {
  if (k > kInt8MaxK) {
    GemmRowsChunkInt8(pa, a_scales, a_zps, pb, b_scales, b_col_sums, pc, ldc,
                      k, n, ib, ie);
    return;
  }
  const int64_t kp = k / 2;
  const int64_t n32 = n & ~int64_t{31};
  alignas(64) int32_t pairs[4][kInt8MaxK / 2];
  int64_t i = ib;
  for (; i + 4 <= ie; i += 4) {
    for (int r = 0; r < 4; ++r) {
      const int8_t* EXPLAINTI_RESTRICT arow = pa + (i + r) * k;
      for (int64_t p = 0; p < kp; ++p) {
        const uint32_t lo16 =
            static_cast<uint16_t>(static_cast<int16_t>(arow[2 * p]));
        const uint32_t hi16 =
            static_cast<uint16_t>(static_cast<int16_t>(arow[2 * p + 1]));
        pairs[r][p] = static_cast<int32_t>(lo16 | (hi16 << 16));
      }
    }
    for (int64_t jt = 0; jt < n32; jt += 32) {
      __m512i a0 = _mm512_setzero_si512(), b0acc = _mm512_setzero_si512();
      __m512i a1 = _mm512_setzero_si512(), b1acc = _mm512_setzero_si512();
      __m512i a2 = _mm512_setzero_si512(), b2acc = _mm512_setzero_si512();
      __m512i a3 = _mm512_setzero_si512(), b3acc = _mm512_setzero_si512();
      const int8_t* EXPLAINTI_RESTRICT bbase = pb + jt;
      for (int64_t p = 0; p < kp; ++p) {
        const int8_t* EXPLAINTI_RESTRICT b0 = bbase + (2 * p) * n;
        const __m512i b0w = _mm512_cvtepi8_epi16(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b0)));
        const __m512i b1w = _mm512_cvtepi8_epi16(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b0 + n)));
        const __m512i lo = _mm512_unpacklo_epi16(b0w, b1w);
        const __m512i hi = _mm512_unpackhi_epi16(b0w, b1w);
        const __m512i x0 = _mm512_set1_epi32(pairs[0][p]);
        a0 = _mm512_add_epi32(a0, _mm512_madd_epi16(lo, x0));
        b0acc = _mm512_add_epi32(b0acc, _mm512_madd_epi16(hi, x0));
        const __m512i x1 = _mm512_set1_epi32(pairs[1][p]);
        a1 = _mm512_add_epi32(a1, _mm512_madd_epi16(lo, x1));
        b1acc = _mm512_add_epi32(b1acc, _mm512_madd_epi16(hi, x1));
        const __m512i x2 = _mm512_set1_epi32(pairs[2][p]);
        a2 = _mm512_add_epi32(a2, _mm512_madd_epi16(lo, x2));
        b2acc = _mm512_add_epi32(b2acc, _mm512_madd_epi16(hi, x2));
        const __m512i x3 = _mm512_set1_epi32(pairs[3][p]);
        a3 = _mm512_add_epi32(a3, _mm512_madd_epi16(lo, x3));
        b3acc = _mm512_add_epi32(b3acc, _mm512_madd_epi16(hi, x3));
      }
      alignas(64) int32_t ta[4][16], tb[4][16];
      _mm512_store_si512(reinterpret_cast<void*>(ta[0]), a0);
      _mm512_store_si512(reinterpret_cast<void*>(tb[0]), b0acc);
      _mm512_store_si512(reinterpret_cast<void*>(ta[1]), a1);
      _mm512_store_si512(reinterpret_cast<void*>(tb[1]), b1acc);
      _mm512_store_si512(reinterpret_cast<void*>(ta[2]), a2);
      _mm512_store_si512(reinterpret_cast<void*>(tb[2]), b2acc);
      _mm512_store_si512(reinterpret_cast<void*>(ta[3]), a3);
      _mm512_store_si512(reinterpret_cast<void*>(tb[3]), b3acc);
      for (int r = 0; r < 4; ++r) {
        Int8TileEpilogue32(ta[r], tb[r], pa + (i + r) * k, pb, b_scales,
                           b_col_sums, pc + (i + r) * ldc, k, kp * 2, n, jt,
                           a_scales[i + r], a_zps[i + r]);
      }
    }
    for (int r = 0; r < 4; ++r) {  // Column tail [n32, n), scalar.
      const int8_t* EXPLAINTI_RESTRICT arow = pa + (i + r) * k;
      float* EXPLAINTI_RESTRICT crow = pc + (i + r) * ldc;
      const float s = a_scales[i + r];
      const int32_t z = a_zps[i + r];
      for (int64_t j = n32; j < n; ++j) {
        int32_t acc = 0;
        for (int64_t kk = 0; kk < k; ++kk) {
          acc += static_cast<int32_t>(arow[kk]) * pb[kk * n + j];
        }
        crow[j] = static_cast<float>(acc - z * b_col_sums[j]) *
                  (s * b_scales[j]);
      }
    }
  }
  if (i < ie) {  // Trailing 1-3 rows: the AVX2 body handles short groups.
    GemmRowsChunkInt8Avx2(pa, a_scales, a_zps, pb, b_scales, b_col_sums, pc,
                          ldc, k, n, i, ie);
  }
}

#endif  // EXPLAINTI_X86_DISPATCH

using Int8RowsChunkFn = void (*)(const int8_t*, const float*, const int32_t*,
                                 const int8_t*, const float*, const int32_t*,
                                 float*, int64_t, int64_t, int64_t, int64_t,
                                 int64_t);

Int8RowsChunkFn ResolveInt8RowsChunk() {
#if EXPLAINTI_X86_DISPATCH
  if (__builtin_cpu_supports("avx512bw")) return GemmRowsChunkInt8Avx512;
  if (__builtin_cpu_supports("avx2")) return GemmRowsChunkInt8Avx2;
#endif
  return GemmRowsChunkInt8;
}

// Resolved once at startup; both bodies produce identical bits.
const Int8RowsChunkFn kInt8RowsChunk = ResolveInt8RowsChunk();

}  // namespace

void ServingGemmInt8(const int8_t* a, const float* a_scales,
                     const int32_t* a_zero_points, const int8_t* b,
                     const float* b_scales, const int32_t* b_col_sums,
                     float* c, int64_t ldc, int64_t m, int64_t k, int64_t n) {
  // Same chunking policy as ServingGemm: disjoint output rows (or, for a
  // single row, disjoint columns), with the direct single-chunk call
  // keeping a warmed-up single-threaded plan execution at zero
  // allocations. The row chunk's int32 accumulators are a fixed-size
  // stack tile, so the int8 path allocates nothing at any thread count.
  if (m > 1) {
    const int64_t grain = util::GrainForCost(k * n);
    if (m <= grain || util::GlobalThreadPool().num_threads() <= 1) {
      kInt8RowsChunk(a, a_scales, a_zero_points, b, b_scales, b_col_sums,
                        c, ldc, k, n, 0, m);
      return;
    }
    util::ParallelFor(0, m, grain, [&](int64_t ib, int64_t ie) {
      kInt8RowsChunk(a, a_scales, a_zero_points, b, b_scales, b_col_sums,
                        c, ldc, k, n, ib, ie);
    });
  } else {
    const int64_t grain = util::GrainForCost(k);
    if (n <= grain || util::GlobalThreadPool().num_threads() <= 1) {
      GemmVecChunkInt8(a, a_scales[0], a_zero_points[0], b, b_scales,
                       b_col_sums, c, k, n, 0, n);
      return;
    }
    util::ParallelFor(0, n, grain, [&](int64_t jb, int64_t je) {
      GemmVecChunkInt8(a, a_scales[0], a_zero_points[0], b, b_scales,
                       b_col_sums, c, k, n, jb, je);
    });
  }
}

void EmbedLayerNormRows(const float* token_table, const float* position_table,
                        const float* segment_table, const int* ids,
                        const int* segment_ids, float* out, int64_t rows,
                        int64_t cols, const float* gamma, const float* beta,
                        float eps) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* EXPLAINTI_RESTRICT tok =
        token_table + static_cast<int64_t>(ids[r]) * cols;
    const float* EXPLAINTI_RESTRICT pos = position_table + r * cols;
    float* EXPLAINTI_RESTRICT row = out + r * cols;
    if (segment_table != nullptr) {
      const float* EXPLAINTI_RESTRICT seg =
          segment_table + static_cast<int64_t>(segment_ids[r]) * cols;
      // Left-associative (token + position) + segment — the order the
      // unfused Add chain used.
      for (int64_t j = 0; j < cols; ++j) row[j] = (tok[j] + pos[j]) + seg[j];
    } else {
      for (int64_t j = 0; j < cols; ++j) row[j] = tok[j] + pos[j];
    }
    LayerNormRowInPlace(row, cols, gamma, beta, eps);
  }
}

}  // namespace explainti::tensor
