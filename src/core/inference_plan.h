#ifndef EXPLAINTI_CORE_INFERENCE_PLAN_H_
#define EXPLAINTI_CORE_INFERENCE_PLAN_H_

#include <cstdint>
#include <vector>

#include "nn/lowering.h"
#include "util/status.h"

namespace explainti::core {

/// Compiled inference plans: the frozen eval graph, lowered once at
/// InferenceSession construction into a flat, topologically-ordered
/// instruction stream over a single pre-planned scratch arena.
///
/// Where the graph walk re-builds its op graph every call — allocating a
/// node per op (pooled, but still dispatched), materialising per-head
/// slice/transpose/concat copies, and running bias, activation, residual
/// and normalisation as separate passes — a plan is a POD array of
/// PlanInstr executed by one switch loop:
///
///   * fused elementwise chains: Linear bias-add folded into its GEMM,
///     bias+GELU as one pass, scale+softmax in place on the attention
///     scores, residual-add+LayerNorm as one pass, and the whole
///     embedding stack (token+position+segment gathers + LayerNorm) as a
///     single kernel;
///   * strided per-head GEMMs: attention heads read q/k/v column slices
///     and write their context columns directly via lda/ldb/ldc, so
///     SliceCols/ConcatCols never materialise. Only k_h^T is materialised
///     (kTranspose into one reused planned buffer): the AVX2 tile kernel
///     needs each k step's B columns contiguous, which only the
///     non-transposed layout gives, while trans_b runs the scalar strided
///     gather — the 16 x L-float copy is far cheaper than running the
///     scores GEMM scalar;
///   * a [CLS]-only last layer: ExplainTI reads the encoder's row 0 for
///     SE, GE and every head; only LE pools the other rows. Last-layer
///     instructions whose output rows feed only row 0 — everything but
///     the K/V projections and kTranspose — carry cls_rows = 1, and a run
///     that reads at most one encoder row (PlanRun::encoder_out_rows <= 1:
///     logits-only runs, EncodeBatch, Predict without LE) computes just
///     that row of each. Rows are independent in every such kernel, so
///     row 0 keeps its bits;
///   * fixed offsets: every intermediate lives at a liveness-planned
///     byte offset (tensor::PlanBufferOffsets) in one flat arena, so
///     steady-state execution performs zero tensor dispatch and zero heap
///     allocation — the executor acquires the arena from the per-thread
///     workspace pool and walks the array.
///
/// Bit-identity with the graph walk is structural, not approximate: both
/// paths call the one compiled copy of each serving kernel
/// (tensor/plan_kernels.h), and no fusion reassociates a float
/// expression. InferenceSession's EXPLAINTI_PLAN=verify mode re-checks
/// the equivalence at runtime on every call.
///
/// Plans are keyed by (task, sequence length, segment use): sequences are
/// unpadded and serve one sample per call (batching is per-sample
/// fan-out), so shape — not batch size — is the axis that changes the
/// instruction stream. The builder runs eagerly over every distinct key
/// in the task data; an unsupported shape fails the build and the session
/// falls back to the graph walk for everything.

enum class PlanOpCode : uint8_t {
  /// out = LN(token[ids] + position (+ segment[seg])) — one pass.
  kEmbedLayerNorm,
  /// out = A * B (+post). B is a weight matrix or an arena view.
  kGemm,
  /// out = LN(a + b) — residual add + LayerNorm, one pass.
  kResidualLayerNorm,
  /// out[j*ldc + i] = a[i*lda + j] for i < m, j < n — materialises a
  /// transposed copy of an [m, n] view. Element values and every
  /// downstream accumulation order are unchanged; only the memory layout
  /// B is read from differs, which the GEMM kernels document as
  /// bit-irrelevant.
  kTranspose,
};

/// Epilogue fused into a kGemm instruction.
enum class PlanPostOp : uint8_t {
  kNone,
  kBias,          ///< C += bias (Linear's broadcast add).
  kBiasGelu,      ///< C = gelu(C + bias) (FFN expansion).
  kScaleSoftmax,  ///< C = softmax(C * scale) per row (attention scores).
};

/// One instruction. POD: fixed dims and strides, arena BYTE offsets for
/// activation operands (b_off < 0 selects the `weight` pointer instead),
/// and raw parameter pointers that borrow the model's storage. During
/// building the *_off fields hold logical buffer ids; Finalize patches them
/// to arena byte offsets (folding per-head column offsets in).
struct PlanInstr {
  PlanOpCode op = PlanOpCode::kGemm;
  PlanPostOp post = PlanPostOp::kNone;
  bool trans_b = false;
  int64_t m = 0, k = 0, n = 0;        ///< GEMM dims; LN ops use m rows, n cols.
  /// Rows RunPlan computes when only the [CLS] row of the encoder output
  /// is read (PlanRun::encoder_out_rows <= 1): 1 for the last layer's
  /// instructions that feed only row 0, m everywhere else.
  int64_t cls_rows = 0;
  int64_t lda = 0, ldb = 0, ldc = 0;  ///< Row strides of A / B / C views.
  int64_t a_off = -1;                 ///< Arena byte offset of A (LN input x).
  int64_t b_off = -1;                 ///< Arena byte offset of B (LN input f).
  int64_t out_off = -1;               ///< Arena byte offset of C / out.
  const float* weight = nullptr;  ///< GEMM B weight; token table for embed.
  const float* bias = nullptr;    ///< Post-op bias; position table for embed.
  const float* aux = nullptr;     ///< Segment table for embed (may be null).
  const float* gamma = nullptr;   ///< LayerNorm gain.
  const float* beta = nullptr;    ///< LayerNorm bias.
  float scale = 1.0f;             ///< kScaleSoftmax multiplier.
  float eps = 0.0f;               ///< LayerNorm epsilon.
};

/// A compiled plan for one (task, seq_len, has_segments) key.
struct InferencePlan {
  std::vector<PlanInstr> instrs;
  /// Instructions [0, encoder_end) compute the encoder; the remainder
  /// (present when a head was folded in) compute classifier logits.
  int32_t encoder_end = 0;
  int64_t arena_bytes = 0;   ///< Scratch bytes the executor needs.
  int64_t enc_out_off = 0;   ///< Arena byte offset of encoder output [L, d].
  int64_t logits_off = -1;   ///< Arena byte offset of the logits; -1 if none.
  int64_t seq_len = 0;
  int64_t d_model = 0;
  int64_t num_labels = 0;    ///< 0 when no head was folded in.
  bool has_segments = false;
};

/// Per-call inputs and outputs of RunPlan. Token/segment ids are the only
/// runtime inputs (the plan bakes shapes and weights); outputs are copied
/// into caller-owned storage so the arena never escapes.
struct PlanRun {
  const int* token_ids = nullptr;    ///< [seq_len]; required.
  const int* segment_ids = nullptr;  ///< [seq_len]; required iff has_segments.
  /// If non-null, receives the first `encoder_out_rows` rows of the
  /// encoder output ([rows, d_model], contiguous). rows <= 1 — just the
  /// [CLS] embedding, or logits alone — runs the last layer on row 0
  /// only (PlanInstr::cls_rows); only rows == seq_len computes them all.
  float* encoder_out = nullptr;
  int64_t encoder_out_rows = 0;
  /// If non-null, receives the `num_labels` logits; the head instructions
  /// only execute when this is requested (and the plan has them).
  float* logits = nullptr;
};

/// Lowers one (seq_len, has_segments) call shape of `encoder` into a
/// plan; `head` (optional) folds a classifier into the stream. Returns an
/// error — and the session falls back to the graph walk — when the shape
/// is outside the encoder's envelope (seq_len out of [1, max_len],
/// d_model not divisible by num_heads, segment request without a table).
util::StatusOr<InferencePlan> BuildInferencePlan(
    const nn::EncoderLowering& encoder, const nn::LinearLowering* head,
    int64_t seq_len, bool has_segments);

/// Executes `plan` on the calling thread (GEMMs fan out across the pool
/// exactly like the graph walk's MatMul). Zero heap allocations once the
/// per-thread workspace has warmed: the arena is acquired from and
/// returned to the workspace buffer pool around the instruction loop.
void RunPlan(const InferencePlan& plan, const PlanRun& run);

}  // namespace explainti::core

#endif  // EXPLAINTI_CORE_INFERENCE_PLAN_H_
