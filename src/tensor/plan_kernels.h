#ifndef EXPLAINTI_TENSOR_PLAN_KERNELS_H_
#define EXPLAINTI_TENSOR_PLAN_KERNELS_H_

#include <cstdint>

namespace explainti::tensor {

/// Shared serving kernels: the register-blocked no-grad GEMM plus the
/// fused elementwise chains executed by compiled inference plans.
///
/// Bit-identity is the whole point of this file. The graph walk
/// (tensor_ops.cc) and the plan executor (core/inference_plan.cc) both
/// call ONE compiled copy of each kernel, built once with this library's
/// vectorization flags and no fast-math, so the two execution paths
/// cannot drift: every output element receives the same individually
/// rounded float operations in the same order on both. Fusions below are
/// chosen so that folding ops into one pass never reassociates a float
/// expression — they only skip materialising intermediates (slice /
/// transpose / concat copies, separate bias and activation passes).
///
/// All kernels run on the calling thread except ServingGemm, which chunks
/// over the thread pool exactly like the MatMul it was extracted from
/// (disjoint output rows/columns, so chunking never changes bits).

/// C[m,n] += A[m,k] * B[k,n], with C pre-zeroed by the caller (see
/// ZeroRows). Row strides lda/ldb/ldc express sub-matrix views: the
/// plan executor reads per-head q/k/v slices and writes per-head context
/// columns in place, eliminating the SliceCols/ConcatCols copies of the
/// graph walk. `trans_b` reads B as B^T (element [kk, j] at
/// b[j * ldb + kk]), folding the materialised Transpose(kh) of the
/// attention-score GEMM. Accumulation order per output element is
/// ascending-k with every product and add individually rounded —
/// identical to the tape kernel and independent of strides, transposition
/// and ParallelFor chunking. On AVX2 hosts the non-transposed rows run a
/// register-tiled body picked once at start-up (separate mul and add,
/// never FMA), which gives the same bits as the scalar body; only C's
/// m x n window is ever written.
void ServingGemm(const float* a, int64_t lda, const float* b, int64_t ldb,
                 bool trans_b, float* c, int64_t ldc, int64_t m, int64_t k,
                 int64_t n);

/// Zero-fills the m x n output window of C (row stride ldc) so ServingGemm
/// accumulates from +0.0f, exactly like the zero-initialised MatMul node.
void ZeroRows(float* c, int64_t ldc, int64_t m, int64_t n);

/// C[i, j] += bias[j] over the m x n window — the broadcast Add a Linear
/// performs after its MatMul, applied in place after the full GEMM.
void AddBiasRows(float* c, int64_t ldc, const float* bias, int64_t m,
                 int64_t n);

/// tanh in float: a port of fdlibm's s_tanhf.c and s_expm1f.c, the
/// float-only code glibc ships as `tanhf`, with the same constants,
/// thresholds and operation order. It returns the bits of that libm on
/// every input, and the same bits on every host whatever its own libm.
/// The reference of every tanh and GELU kernel below.
float Tanhf(float x);

/// The tanh-approximated GELU of one value, as BERT defines it:
/// (0.5 x) (1 + Tanhf(sqrt(2/pi) (x + ((0.044715 x) x) x))). The
/// reference of GeluRows and BiasGeluRows.
float GeluScalar(float x);

/// y[j] = Tanhf(x[j]) for j < n (x == y allowed). On AVX2 hosts an
/// 8-lane body picked once at start-up runs whole vectors and Tanhf the
/// n % 8 tail; both give the same bits.
void TanhRows(const float* x, float* y, int64_t n);

/// y[j] = GeluScalar(x[j]) for j < n (x == y allowed): the Gelu op's
/// forward, through the same 8-lane body as TanhRows.
void GeluRows(const float* x, float* y, int64_t n);

/// t[j] = the Tanhf inside GeluScalar(x[j]) for j < n: what the Gelu op's
/// backward needs, through the same 8-lane body.
void GeluTanhRows(const float* x, float* t, int64_t n);

/// C[i, j] = GeluScalar(C[i, j] + bias[j]) over the m x n window: the
/// bias-add + tanh-GELU chain of the FFN expansion as one pass, through
/// the same 8-lane body as GeluRows.
void BiasGeluRows(float* c, int64_t ldc, const float* bias, int64_t m,
                  int64_t n);

/// C[i, :] = softmax(C[i, :] * scale) row by row over a contiguous
/// [rows, cols] matrix: the Scale + Softmax chain of the attention scores
/// as one in-place pass (scale everything first, then the max/exp/sum
/// normalisation exactly as Softmax's row loop).
void ScaleSoftmaxRows(float* c, int64_t rows, int64_t cols, float scale);

/// out[i, :] = layernorm(x[i, :] + f[i, :]; gamma, beta, eps): the
/// residual Add + LayerNorm chain as one pass. The row sums are written
/// into `out` first, then normalised in place, so the mean/variance/
/// normalise passes read exactly the values the unfused Add produced.
void ResidualLayerNormRows(const float* x, const float* f, float* out,
                           int64_t rows, int64_t cols, const float* gamma,
                           const float* beta, float eps);

/// out[i, :] = layernorm(token[ids[i]] + position[i] (+ segment[seg[i]]))
/// — the whole embedding stack (three gather-adds, left-associative in
/// this order, then LayerNorm) as one pass. `segment_table` may be null
/// (no segment term; pass `segment_ids` null too).
void EmbedLayerNormRows(const float* token_table, const float* position_table,
                        const float* segment_table, const int* ids,
                        const int* segment_ids, float* out, int64_t rows,
                        int64_t cols, const float* gamma, const float* beta,
                        float eps);

}  // namespace explainti::tensor

#endif  // EXPLAINTI_TENSOR_PLAN_KERNELS_H_
