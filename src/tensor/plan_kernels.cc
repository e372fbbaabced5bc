#include "tensor/plan_kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/thread_pool.h"

#if defined(__GNUC__) || defined(__clang__)
#define EXPLAINTI_RESTRICT __restrict__
#else
#define EXPLAINTI_RESTRICT
#endif

// The GEMM and the tanh rows ship hand-vectorized bodies selected once at
// start-up (GCC/Clang `target` attribute + __builtin_cpu_supports): the
// library's baseline -O2 build does not register-tile the GEMM loop nest.
// Every vector body produces the same bits as its scalar reference by
// keeping each element's rounding sequence, so dispatch never changes
// results, only throughput.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EXPLAINTI_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace explainti::tensor {

namespace {

// The tanh-GELU constants. Every GELU in the library (the plan's FFN
// pass, the Gelu op forward and backward) reaches them through the row
// kernels below.
constexpr float kGeluCoef = 0.044715f;
const float kSqrt2OverPi = std::sqrt(2.0f / static_cast<float>(M_PI));

// The tanh argument of GELU: sqrt(2/pi) * (x + ((coef * x) * x) * x).
inline float GeluInner(float x) {
  return kSqrt2OverPi * (x + kGeluCoef * x * x * x);
}

constexpr float FromBits(uint32_t bits) { return std::bit_cast<float>(bits); }
constexpr uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }

// fdlibm's s_expm1f.c constants, by bit pattern.
constexpr float kLn2Hi = FromBits(0x3f317180);
constexpr float kLn2Lo = FromBits(0x3717f7d1);
constexpr float kInvLn2 = FromBits(0x3fb8aa3b);
constexpr float kExpm1Q1 = FromBits(0xbd088889);
constexpr float kExpm1Q2 = FromBits(0x3ad00d01);
constexpr float kExpm1Q3 = FromBits(0xb8a670cd);
constexpr float kExpm1Q4 = FromBits(0x36867e54);
constexpr float kExpm1Q5 = FromBits(0xb457edbb);
constexpr float kOThreshold = FromBits(0x42b17180);
constexpr float kHuge = 1.0e30f;
constexpr float kTiny = 1.0e-30f;

// fdlibm's s_expm1f.c, float only, each operation in its order. The
// thresholds compare the bits of |x|. fdlibm's `huge + x` and `x + tiny`
// evaluations only raise the inexact flag, so those branches return their
// values directly.
float Expm1f(float x) {
  const uint32_t xsb = Bits(x) & 0x80000000u;
  const uint32_t hx = Bits(x) & 0x7fffffffu;
  if (hx >= 0x4195b844u) {    // |x| >= 27 ln2
    if (hx >= 0x42b17218u) {  // |x| >= 88.72
      if (hx > 0x7f800000u) return x + x;  // NaN
      if (hx == 0x7f800000u) return xsb == 0 ? x : -1.0f;
      if (x > kOThreshold) return kHuge * kHuge;  // overflow
    }
    if (xsb != 0) return kTiny - 1.0f;  // x < -27 ln2: -1
  }
  // Argument reduction: x = k ln2 + hi - lo, with c the rounding error.
  float hi, lo, c = 0.0f;
  int32_t k;
  if (hx > 0x3eb17218u) {    // |x| > 0.5 ln2
    if (hx < 0x3f851592u) {  // and |x| < 1.5 ln2
      if (xsb == 0) {
        hi = x - kLn2Hi;
        lo = kLn2Lo;
        k = 1;
      } else {
        hi = x + kLn2Hi;
        lo = -kLn2Lo;
        k = -1;
      }
    } else {
      k = static_cast<int32_t>(kInvLn2 * x + (xsb == 0 ? 0.5f : -0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t * ln2_hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25
    return x;
  } else {
    k = 0;
  }
  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0f +
      hxs * (kExpm1Q1 +
             hxs * (kExpm1Q2 + hxs * (kExpm1Q3 + hxs * (kExpm1Q4 +
                                                        hxs * kExpm1Q5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);  // c is 0
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return 1.0f + 2.0f * (x - e);
  }
  // Adding k << 23 to the bits multiplies by 2^k.
  const uint32_t scale = static_cast<uint32_t>(k) << 23;
  if (k <= -2 || k > 56) {  // exp(x) - 1 suffices
    const float y = 1.0f - (e - x);
    return FromBits(Bits(y) + scale) - 1.0f;
  }
  if (k < 23) {
    t = FromBits(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    const float y = t - (e - x);
    return FromBits(Bits(y) + scale);
  }
  t = FromBits(static_cast<uint32_t>(0x7f - k) << 23);  // 2^-k
  float y = x - (e + t);
  y += 1.0f;
  return FromBits(Bits(y) + scale);
}

}  // namespace

float Tanhf(float x) {
  const uint32_t jx = Bits(x);
  const uint32_t ix = jx & 0x7fffffffu;
  const bool negative = (jx & 0x80000000u) != 0;
  if (ix >= 0x7f800000u) {  // tanh(+-inf) = +-1, tanh(NaN) = NaN
    return negative ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  }
  float z;
  if (ix < 0x41b00000u) {          // |x| < 22
    if (ix == 0) return x;         // +-0
    if (ix < 0x24000000u) return x * (1.0f + x);  // |x| < 2^-55
    if (ix >= 0x3f800000u) {       // |x| >= 1
      const float t = Expm1f(2.0f * std::fabs(x));
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = Expm1f(-2.0f * std::fabs(x));
      z = -t / (t + 2.0f);
    }
  } else {  // |x| >= 22: +-1
    z = 1.0f - kTiny;
  }
  return negative ? -z : z;
}

float GeluScalar(float x) { return 0.5f * x * (1.0f + Tanhf(GeluInner(x))); }

namespace {

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

// The elementwise rows built on Tanhf: plain tanh (the Tanh op), GELU
// with and without a bias added first (the plan's FFN pass, the Gelu
// op), and GELU's inner tanh alone (the Gelu op's backward).
enum class TanhRowOp { kTanh, kGelu, kBiasGelu, kGeluTanh };

template <TanhRowOp kOp>
inline float TanhRowElement(float x, float bias) {
  if constexpr (kOp == TanhRowOp::kTanh) {
    return Tanhf(x);
  } else if constexpr (kOp == TanhRowOp::kGeluTanh) {
    return Tanhf(GeluInner(x));
  } else {
    if constexpr (kOp == TanhRowOp::kBiasGelu) x = x + bias;
    return GeluScalar(x);
  }
}

#if EXPLAINTI_X86_DISPATCH

// AVX2 body of Tanhf, eight lanes at a time with identical bits. Tanhf
// is fdlibm code built from single float operations, and each has an
// _mm256 counterpart that rounds the same way: _mm256_mul/add/sub/div_ps,
// _mm256_cvttps_epi32 for the truncating int conversion, integer adds on
// the bits for the 2^k scaling. Every branch is computed on every lane and
// the lane's own branch is selected with a blend, so a lane sees exactly
// the operations the scalar code runs for it. As in the GEMM, the
// functions carry target("avx2") and never "fma".

// mask ? a : b, lane by lane (mask lanes are all ones or all zeros).
__attribute__((target("avx2"))) inline __m256 Select(__m256i mask, __m256 a,
                                                      __m256 b) {
  return _mm256_blendv_ps(b, a, _mm256_castsi256_ps(mask));
}

// Lanes whose bits exceed `bound`; signed compares suffice because both
// sides are |x| bits, below 2^31.
__attribute__((target("avx2"))) inline __m256i BitsAbove(__m256i bits,
                                                         uint32_t bound) {
  return _mm256_cmpgt_epi32(bits, _mm256_set1_epi32(static_cast<int>(bound)));
}

__attribute__((target("avx2"))) inline __m256i BitsBelow(__m256i bits,
                                                         uint32_t bound) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(bound)), bits);
}

// Expm1f for the arguments Tanhf passes: 2|x| < 44 or -2 < -2|x| < 0, so
// the huge and non-finite filter at the top of Expm1f never applies.
// Lanes outside that range compute garbage that TanhAvx2 discards.
__attribute__((target("avx2"))) inline __m256 Expm1Avx2(__m256 a) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 ln2_hi = _mm256_set1_ps(kLn2Hi);
  const __m256 ln2_lo = _mm256_set1_ps(kLn2Lo);
  const __m256i bits = _mm256_castps_si256(a);
  const __m256i hx = _mm256_and_si256(bits, _mm256_set1_epi32(0x7fffffff));
  const __m256 sign = _mm256_and_ps(a, _mm256_set1_ps(-0.0f));
  // Argument reduction. k = +-1 for 0.5 ln2 < |a| < 1.5 ln2, the computed
  // (int)(invln2 * a +- 0.5) above, 0 below.
  const __m256i reduce = BitsAbove(hx, 0x3eb17218u);
  const __m256i k_one =
      _mm256_andnot_si256(BitsAbove(hx, 0x3f851591u), reduce);
  __m256i k = _mm256_cvttps_epi32(_mm256_add_ps(
      _mm256_mul_ps(_mm256_set1_ps(kInvLn2), a), _mm256_or_ps(half, sign)));
  const __m256 tk = _mm256_cvtepi32_ps(k);
  const __m256 hi = Select(k_one, _mm256_sub_ps(a, _mm256_xor_ps(ln2_hi, sign)),
                           _mm256_sub_ps(a, _mm256_mul_ps(tk, ln2_hi)));
  const __m256 lo = Select(k_one, _mm256_xor_ps(ln2_lo, sign),
                           _mm256_mul_ps(tk, ln2_lo));
  const __m256i k_sign = _mm256_or_si256(_mm256_srai_epi32(bits, 31),
                                         _mm256_set1_epi32(1));
  k = _mm256_and_si256(_mm256_blendv_epi8(k, k_sign, k_one), reduce);
  const __m256 reduced = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, reduced), lo);
  const __m256 x = Select(reduce, reduced, a);
  // Primary range.
  const __m256 hfx = _mm256_mul_ps(half, x);
  const __m256 hxs = _mm256_mul_ps(x, hfx);
  __m256 r1 = _mm256_mul_ps(hxs, _mm256_set1_ps(kExpm1Q5));
  r1 = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(kExpm1Q4), r1));
  r1 = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(kExpm1Q3), r1));
  r1 = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(kExpm1Q2), r1));
  r1 = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(kExpm1Q1), r1));
  r1 = _mm256_add_ps(one, r1);
  const __m256 t = _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1, hfx));
  __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t),
                         _mm256_sub_ps(_mm256_set1_ps(6.0f),
                                       _mm256_mul_ps(x, t))));
  const __m256 r_k0 =
      _mm256_sub_ps(x, _mm256_sub_ps(_mm256_mul_ps(x, e), hxs));
  e = _mm256_sub_ps(_mm256_mul_ps(x, _mm256_sub_ps(e, c)), c);
  e = _mm256_sub_ps(e, hxs);
  const __m256 r_km1 =
      _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(x, e)), half);
  const __m256 r_k1 = _mm256_blendv_ps(
      _mm256_add_ps(one, _mm256_mul_ps(_mm256_set1_ps(2.0f),
                                       _mm256_sub_ps(x, e))),
      _mm256_mul_ps(_mm256_set1_ps(-2.0f),
                    _mm256_sub_ps(e, _mm256_add_ps(x, half))),
      _mm256_cmp_ps(x, _mm256_set1_ps(-0.25f), _CMP_LT_OQ));
  const __m256i scale = _mm256_slli_epi32(k, 23);
  const __m256 y_far = _mm256_sub_ps(one, _mm256_sub_ps(e, x));
  const __m256 r_far = _mm256_sub_ps(
      _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y_far), scale)),
      one);
  // For k < 0 the unsigned shift count is >= 32 and the shift gives 0;
  // those lanes take r_far.
  const __m256 t_lt = _mm256_castsi256_ps(
      _mm256_sub_epi32(_mm256_set1_epi32(0x3f800000),
                       _mm256_srlv_epi32(_mm256_set1_epi32(0x1000000), k)));
  const __m256 y_lt = _mm256_sub_ps(t_lt, _mm256_sub_ps(e, x));
  const __m256 r_lt =
      _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y_lt), scale));
  const __m256 t_ge = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_sub_epi32(_mm256_set1_epi32(0x7f), k), 23));
  const __m256 y_ge =
      _mm256_add_ps(_mm256_sub_ps(x, _mm256_add_ps(e, t_ge)), one);
  const __m256 r_ge =
      _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y_ge), scale));
  // Select in reverse order of the scalar code's tests.
  const __m256i k_far = _mm256_or_si256(
      _mm256_cmpgt_epi32(_mm256_set1_epi32(-1), k),
      _mm256_cmpgt_epi32(k, _mm256_set1_epi32(56)));
  __m256 r = Select(_mm256_cmpgt_epi32(_mm256_set1_epi32(23), k), r_lt, r_ge);
  r = Select(k_far, r_far, r);
  r = Select(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(1)), r_k1, r);
  r = Select(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1)), r_km1, r);
  r = Select(_mm256_cmpeq_epi32(k, _mm256_setzero_si256()), r_k0, r);
  return Select(BitsBelow(hx, 0x33000000u), a, r);
}

__attribute__((target("avx2"))) inline __m256 TanhAvx2(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 sign_bit = _mm256_set1_ps(-0.0f);
  const __m256i ix =
      _mm256_and_si256(_mm256_castps_si256(x), _mm256_set1_epi32(0x7fffffff));
  const __m256i big = BitsAbove(ix, 0x3f7fffffu);  // |x| >= 1
  const __m256 t = Expm1Avx2(_mm256_mul_ps(
      Select(big, two, _mm256_set1_ps(-2.0f)), _mm256_castsi256_ps(ix)));
  // 1 - 2/(t+2) for |x| >= 1, -t/(t+2) below: one division with a blended
  // numerator, still one correctly rounded quotient per lane.
  const __m256 q = _mm256_div_ps(Select(big, two, _mm256_xor_ps(t, sign_bit)),
                                 _mm256_add_ps(t, two));
  __m256 z = Select(big, _mm256_sub_ps(one, q), q);
  z = Select(BitsAbove(ix, 0x41afffffu), _mm256_set1_ps(1.0f - kTiny), z);
  z = _mm256_xor_ps(z, _mm256_and_ps(x, sign_bit));
  z = Select(BitsBelow(ix, 0x24000000u),
             _mm256_mul_ps(x, _mm256_add_ps(one, x)), z);
  z = Select(_mm256_cmpeq_epi32(ix, _mm256_setzero_si256()), x, z);
  const __m256i special = BitsAbove(ix, 0x7f7fffffu);  // inf or NaN
  if (_mm256_movemask_ps(_mm256_castsi256_ps(special)) != 0) {
    const __m256 inv = _mm256_div_ps(one, x);
    const __m256i negative =
        _mm256_srai_epi32(_mm256_castps_si256(x), 31);
    z = Select(special,
               Select(negative, _mm256_sub_ps(inv, one),
                      _mm256_add_ps(inv, one)),
               z);
  }
  return z;
}

template <TanhRowOp kOp>
__attribute__((target("avx2"))) inline __m256 TanhRowVector(__m256 x,
                                                            __m256 bias) {
  if constexpr (kOp == TanhRowOp::kTanh) {
    return TanhAvx2(x);
  } else {
    // GeluScalar's operations in its order.
    if constexpr (kOp == TanhRowOp::kBiasGelu) x = _mm256_add_ps(x, bias);
    const __m256 cube = _mm256_mul_ps(
        _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(kGeluCoef), x), x), x);
    const __m256 t = TanhAvx2(_mm256_mul_ps(_mm256_set1_ps(kSqrt2OverPi),
                                            _mm256_add_ps(x, cube)));
    if constexpr (kOp == TanhRowOp::kGeluTanh) return t;
    return _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5f), x),
                         _mm256_add_ps(_mm256_set1_ps(1.0f), t));
  }
}

// Columns [0, n - n % 8) of the row; returns where the scalar tail starts.
template <TanhRowOp kOp>
__attribute__((target("avx2"))) int64_t TanhRowAvx2(const float* x,
                                                    const float* bias,
                                                    float* y, int64_t n) {
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 b = kOp == TanhRowOp::kBiasGelu ? _mm256_loadu_ps(bias + j)
                                                 : _mm256_setzero_ps();
    _mm256_storeu_ps(y + j, TanhRowVector<kOp>(_mm256_loadu_ps(x + j), b));
  }
  return j;
}

#endif  // EXPLAINTI_X86_DISPATCH

// Resolved once at start-up; both bodies produce identical bits.
const bool kAvx2TanhRows =
#if EXPLAINTI_X86_DISPATCH
    __builtin_cpu_supports("avx2");
#else
    false;
#endif

// y[j] = the op on x[j] (x == y allowed): the AVX2 body over whole
// vectors, Tanhf for the n % 8 tail or on hosts without AVX2.
template <TanhRowOp kOp>
void TanhRow(const float* x, const float* bias, float* y, int64_t n) {
  int64_t j = 0;
#if EXPLAINTI_X86_DISPATCH
  if (kAvx2TanhRows) j = TanhRowAvx2<kOp>(x, bias, y, n);
#endif
  for (; j < n; ++j) {
    y[j] = TanhRowElement<kOp>(x[j],
                               kOp == TanhRowOp::kBiasGelu ? bias[j] : 0.0f);
  }
}

}  // namespace

void TanhRows(const float* x, float* y, int64_t n) {
  TanhRow<TanhRowOp::kTanh>(x, nullptr, y, n);
}

void GeluRows(const float* x, float* y, int64_t n) {
  TanhRow<TanhRowOp::kGelu>(x, nullptr, y, n);
}

void GeluTanhRows(const float* x, float* t, int64_t n) {
  TanhRow<TanhRowOp::kGeluTanh>(x, nullptr, t, n);
}

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
    TanhRow<TanhRowOp::kBiasGelu>(c + i * ldc, bias, c + i * ldc, n);
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
