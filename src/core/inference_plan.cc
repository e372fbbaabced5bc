#include "core/inference_plan.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "tensor/buffer_planner.h"
#include "tensor/plan_kernels.h"
#include "tensor/workspace.h"
#include "util/logging.h"

namespace explainti::core {

namespace {

constexpr float kLayerNormEps = 1e-5f;  // tensor::LayerNorm's default.

/// Emission state: instructions plus the liveness interval of every
/// logical buffer. Buffer ids index `bufs`; instruction emission order is
/// the topological order, so an operand's interval is simply
/// [first touch, last touch].
class PlanBuilder {
 public:
  int64_t NewBuffer(int64_t size) {
    bufs_.push_back({size, std::numeric_limits<int32_t>::max(), -1});
    return static_cast<int64_t>(bufs_.size()) - 1;
  }

  /// Appends `instr` — computing all m rows in a [CLS]-only run until
  /// LimitToClsRow says otherwise — and extends the liveness of its arena
  /// operands to this instruction.
  void Emit(const PlanInstr& instr) {
    const int32_t at = static_cast<int32_t>(instrs_.size());
    for (int64_t buf : {instr.a_off, instr.b_off, instr.out_off}) {
      if (buf < 0) continue;
      tensor::PlannedBuffer& b = bufs_[static_cast<size_t>(buf)];
      b.first_def = std::min(b.first_def, at);
      b.last_use = std::max(b.last_use, at);
    }
    instrs_.push_back(instr);
    instrs_.back().cls_rows = instr.m;
  }

  /// Stamps instruction `at` to compute only row 0 in a [CLS]-only run.
  void LimitToClsRow(size_t at) { instrs_[at].cls_rows = 1; }

  /// Pins `buf` as a plan output: it survives the whole program so the
  /// executor can copy it out after the loop.
  void KeepToEnd(int64_t buf) {
    bufs_[static_cast<size_t>(buf)].last_use =
        static_cast<int32_t>(instrs_.size());
  }

  /// Plans arena offsets and patches every instruction's logical buffer
  /// ids (plus the given per-instruction column extras, in elements of
  /// the operand buffer) into arena BYTE offsets. `extras` is parallel
  /// to the instruction stream.
  struct Patched {
    std::vector<PlanInstr> instrs;
    std::vector<int64_t> offsets;  ///< Bytes, per logical buffer.
    int64_t arena_bytes = 0;
  };
  struct OperandExtras {
    int64_t a = 0, b = 0, out = 0;
  };
  Patched Finalize(const std::vector<OperandExtras>& extras) {
    CHECK_EQ(extras.size(), instrs_.size());
    const tensor::BufferPlan layout = tensor::PlanBufferOffsets(bufs_);
    Patched out;
    out.instrs = instrs_;
    out.offsets = layout.offsets;
    out.arena_bytes = layout.arena_bytes;
    for (size_t i = 0; i < out.instrs.size(); ++i) {
      PlanInstr& instr = out.instrs[i];
      auto patch = [&](int64_t& field, int64_t extra) {
        if (field >= 0) {
          const size_t buf = static_cast<size_t>(field);
          field = layout.offsets[buf] +
                  extra * tensor::PlannedBuffer::kElemBytes;
        }
      };
      patch(instr.a_off, extras[i].a);
      patch(instr.b_off, extras[i].b);
      patch(instr.out_off, extras[i].out);
    }
    return out;
  }

  size_t instr_count() const { return instrs_.size(); }
  const PlanInstr& instr(size_t at) const { return instrs_[at]; }

 private:
  std::vector<PlanInstr> instrs_;
  std::vector<tensor::PlannedBuffer> bufs_;
};

}  // namespace

util::StatusOr<InferencePlan> BuildInferencePlan(
    const nn::EncoderLowering& encoder, const nn::LinearLowering* head,
    int64_t seq_len, bool has_segments) {
  const int64_t L = seq_len;
  const int64_t d = encoder.d_model;
  const int64_t ffn = encoder.ffn_dim;
  const int64_t heads = encoder.num_heads;
  const nn::EmbeddingsLowering& emb = encoder.embeddings;
  if (L < 1 || L > emb.max_len) {
    return util::Status::InvalidArgument(
        "plan: seq_len " + std::to_string(L) + " outside [1, " +
        std::to_string(emb.max_len) + "]");
  }
  if (heads <= 0 || d % heads != 0) {
    return util::Status::InvalidArgument(
        "plan: d_model not divisible by num_heads");
  }
  if (has_segments && emb.segment_table == nullptr) {
    return util::Status::InvalidArgument(
        "plan: segments requested but encoder has no segment table");
  }
  if (head != nullptr && head->in != d) {
    return util::Status::InvalidArgument(
        "plan: head input width != d_model (structural heads are not "
        "lowerable)");
  }
  const int64_t head_dim = d / heads;
  const float attn_scale = 1.0f / std::sqrt(static_cast<float>(head_dim));

  PlanBuilder b;
  std::vector<PlanBuilder::OperandExtras> extras;
  auto emit = [&](const PlanInstr& instr,
                  const PlanBuilder::OperandExtras& e =
                      PlanBuilder::OperandExtras()) {
    b.Emit(instr);
    extras.push_back(e);
  };
  // C[m,n] (+= post) = A * B over arena/weight views, C pre-zeroed by the
  // executor.
  auto gemm = [&](int64_t a_buf, int64_t a_col, int64_t lda, int64_t b_buf,
                  int64_t b_col, int64_t ldb, bool trans_b,
                  const float* weight, int64_t out_buf, int64_t out_col,
                  int64_t ldc, int64_t m, int64_t k, int64_t n, PlanPostOp post,
                  const float* bias, float scale) {
    PlanInstr instr;
    instr.op = PlanOpCode::kGemm;
    instr.post = post;
    instr.trans_b = trans_b;
    instr.m = m;
    instr.k = k;
    instr.n = n;
    instr.lda = lda;
    instr.ldb = ldb;
    instr.ldc = ldc;
    instr.a_off = a_buf;
    instr.b_off = b_buf;
    instr.out_off = out_buf;
    instr.weight = weight;
    instr.bias = bias;
    instr.scale = scale;
    emit(instr, {a_col, b_col, out_col});
  };
  // y[L, out] = x W + b: the fused Linear (contiguous operands).
  auto linear = [&](int64_t x_buf, const nn::LinearLowering& lin,
                    int64_t out_buf, int64_t m, PlanPostOp post) {
    gemm(x_buf, 0, lin.in, /*b_buf=*/-1, 0, lin.out, /*trans_b=*/false,
         lin.weight, out_buf, 0, lin.out, m, lin.in, lin.out, post, lin.bias,
         1.0f);
  };
  auto residual_ln = [&](int64_t x_buf, int64_t f_buf, int64_t out_buf,
                         int64_t rows, int64_t cols, const float* gamma,
                         const float* beta) {
    PlanInstr instr;
    instr.op = PlanOpCode::kResidualLayerNorm;
    instr.m = rows;
    instr.n = cols;
    instr.a_off = x_buf;
    instr.b_off = f_buf;
    instr.out_off = out_buf;
    instr.gamma = gamma;
    instr.beta = beta;
    instr.eps = kLayerNormEps;
    emit(instr);
  };

  // -- Embeddings: one fused gather + LayerNorm pass ----------------------
  int64_t x = b.NewBuffer(L * d);
  {
    PlanInstr instr;
    instr.op = PlanOpCode::kEmbedLayerNorm;
    instr.m = L;
    instr.n = d;
    instr.out_off = x;
    instr.weight = emb.token_table;
    instr.bias = emb.position_table;
    instr.aux = has_segments ? emb.segment_table : nullptr;
    instr.gamma = emb.ln_gamma;
    instr.beta = emb.ln_beta;
    instr.eps = kLayerNormEps;
    emit(instr);
  }

  // -- Encoder layers -----------------------------------------------------
  for (size_t li = 0; li < encoder.layers.size(); ++li) {
    const nn::EncoderLayerLowering& layer = encoder.layers[li];
    const size_t layer_begin = b.instr_count();
    const int64_t q = b.NewBuffer(L * d);
    const int64_t k = b.NewBuffer(L * d);
    const int64_t v = b.NewBuffer(L * d);
    linear(x, layer.wq, q, L, PlanPostOp::kBias);
    // K and V are read by every query row, so they stay full-height even
    // when only the [CLS] query is computed.
    const size_t kv_begin = b.instr_count();
    linear(x, layer.wk, k, L, PlanPostOp::kBias);
    linear(x, layer.wv, v, L, PlanPostOp::kBias);
    const size_t kv_end = b.instr_count();

    // One scores buffer and one k^T buffer serve every head in sequence;
    // the context buffer collects per-head columns in place (the graph
    // walk's ConcatCols, without the copy). k^T is the one copy worth
    // keeping: with it the scores GEMM runs the vectorised non-transposed
    // kernel instead of the scalar trans_b gather.
    const int64_t scores = b.NewBuffer(L * L);
    const int64_t kt = b.NewBuffer(head_dim * L);
    const int64_t ctx = b.NewBuffer(L * d);
    for (int64_t h = 0; h < heads; ++h) {
      const int64_t col = h * head_dim;
      // kt[kk, j] = k[j, col + kk] — head_dim x L, contiguous rows.
      {
        PlanInstr instr;
        instr.op = PlanOpCode::kTranspose;
        instr.m = L;
        instr.n = head_dim;
        instr.lda = d;
        instr.ldc = L;
        instr.a_off = k;
        instr.out_off = kt;
        emit(instr, {col, 0, 0});
      }
      // scores = softmax((q_h k_h^T) * 1/sqrt(head_dim)), fused in place.
      gemm(q, col, d, kt, 0, L, /*trans_b=*/false, nullptr, scores, 0, L, L,
           head_dim, L, PlanPostOp::kScaleSoftmax, nullptr, attn_scale);
      // ctx[:, h] = scores * v_h, written straight into its column block.
      gemm(scores, 0, L, v, col, d, /*trans_b=*/false, nullptr, ctx, col, d,
           L, L, head_dim, PlanPostOp::kNone, nullptr, 1.0f);
    }

    const int64_t attn = b.NewBuffer(L * d);
    linear(ctx, layer.wo, attn, L, PlanPostOp::kBias);
    const int64_t h1 = b.NewBuffer(L * d);
    residual_ln(x, attn, h1, L, d, layer.ln1_gamma, layer.ln1_beta);

    const int64_t f1 = b.NewBuffer(L * ffn);
    linear(h1, layer.ffn_in, f1, L, PlanPostOp::kBiasGelu);
    const int64_t f2 = b.NewBuffer(L * d);
    linear(f1, layer.ffn_out, f2, L, PlanPostOp::kBias);
    const int64_t x_next = b.NewBuffer(L * d);
    residual_ln(h1, f2, x_next, L, d, layer.ln2_gamma, layer.ln2_beta);
    x = x_next;

    // [CLS]-only cone: in the last layer, output row 0 depends on the
    // other rows only through K and V (and k^T, their transpose). Every
    // other instruction is row-wise — row i of its output reads only row
    // i of its inputs — so a run that reads just the [CLS] row computes
    // one row of each. Row-wise kernels give each row the same bits
    // whatever the row count.
    if (li + 1 == encoder.layers.size()) {
      for (size_t at = layer_begin; at < b.instr_count(); ++at) {
        const bool kv = at >= kv_begin && at < kv_end;
        if (!kv && b.instr(at).op != PlanOpCode::kTranspose) {
          b.LimitToClsRow(at);
        }
      }
    }
  }
  b.KeepToEnd(x);
  const int32_t encoder_end = static_cast<int32_t>(b.instr_count());

  // -- Optional classifier head over the [CLS] row ------------------------
  int64_t logits = -1;
  if (head != nullptr) {
    logits = b.NewBuffer(head->out);
    // m == 1 from row 0 of x: the rank-1 cls GEMM, same kernel branch the
    // graph walk's MatMul(cls, W) takes.
    linear(x, *head, logits, 1, PlanPostOp::kBias);
    b.KeepToEnd(logits);
  }

  PlanBuilder::Patched patched = b.Finalize(extras);
  InferencePlan plan;
  plan.instrs = std::move(patched.instrs);
  plan.encoder_end = encoder_end;
  plan.arena_bytes = patched.arena_bytes;
  plan.enc_out_off = patched.offsets[static_cast<size_t>(x)];
  plan.logits_off =
      logits >= 0 ? patched.offsets[static_cast<size_t>(logits)] : -1;
  plan.seq_len = L;
  plan.d_model = d;
  plan.num_labels = head != nullptr ? head->out : 0;
  plan.has_segments = has_segments;
  return plan;
}

void RunPlan(const InferencePlan& plan, const PlanRun& run) {
  CHECK(run.token_ids != nullptr);
  CHECK(!plan.has_segments || run.segment_ids != nullptr)
      << "plan compiled with segments requires segment_ids";
  const bool want_logits = run.logits != nullptr;
  CHECK(!want_logits || plan.logits_off >= 0)
      << "plan has no head folded in but logits were requested";

  // The whole scratch arena comes from the per-thread workspace buffer
  // pool: steady state is zero heap allocations, and nested ParallelFor
  // workers never touch it (GEMM chunks write disjoint rows of views
  // passed by pointer). Offsets and the arena size are in bytes.
  tensor::ScratchBuffer arena(static_cast<size_t>(
      plan.arena_bytes / tensor::PlannedBuffer::kElemBytes));
  char* base = reinterpret_cast<char*>(arena.data());
  auto f32 = [base](int64_t off) {
    return reinterpret_cast<float*>(base + off);
  };

  const size_t end = want_logits ? plan.instrs.size()
                                 : static_cast<size_t>(plan.encoder_end);
  // A caller that reads at most the [CLS] row (logits, or one row of the
  // encoder output) gets the last layer's row-0 cone only.
  const bool cls_only = run.encoder_out_rows <= 1;
  for (size_t i = 0; i < end; ++i) {
    const PlanInstr& instr = plan.instrs[i];
    const int64_t m = cls_only ? instr.cls_rows : instr.m;
    switch (instr.op) {
      case PlanOpCode::kEmbedLayerNorm:
        tensor::EmbedLayerNormRows(
            instr.weight, instr.bias, instr.aux, run.token_ids,
            instr.aux != nullptr ? run.segment_ids : nullptr,
            f32(instr.out_off), m, instr.n, instr.gamma, instr.beta,
            instr.eps);
        break;
      case PlanOpCode::kGemm: {
        const float* a = f32(instr.a_off);
        float* c = f32(instr.out_off);
        const float* bm = instr.b_off >= 0 ? f32(instr.b_off) : instr.weight;
        tensor::ZeroRows(c, instr.ldc, m, instr.n);
        tensor::ServingGemm(a, instr.lda, bm, instr.ldb, instr.trans_b, c,
                            instr.ldc, m, instr.k, instr.n);
        switch (instr.post) {
          case PlanPostOp::kNone:
            break;
          case PlanPostOp::kBias:
            tensor::AddBiasRows(c, instr.ldc, instr.bias, m, instr.n);
            break;
          case PlanPostOp::kBiasGelu:
            tensor::BiasGeluRows(c, instr.ldc, instr.bias, m, instr.n);
            break;
          case PlanPostOp::kScaleSoftmax:
            tensor::ScaleSoftmaxRows(c, m, instr.n, instr.scale);
            break;
        }
        break;
      }
      case PlanOpCode::kResidualLayerNorm:
        tensor::ResidualLayerNormRows(f32(instr.a_off), f32(instr.b_off),
                                      f32(instr.out_off), m, instr.n,
                                      instr.gamma, instr.beta, instr.eps);
        break;
      case PlanOpCode::kTranspose: {
        const float* a = f32(instr.a_off);
        float* c = f32(instr.out_off);
        for (int64_t r = 0; r < m; ++r) {
          for (int64_t j = 0; j < instr.n; ++j) {
            c[j * instr.ldc + r] = a[r * instr.lda + j];
          }
        }
        break;
      }
    }
  }

  if (run.encoder_out != nullptr && run.encoder_out_rows > 0) {
    CHECK_LE(run.encoder_out_rows, plan.seq_len);
    std::memcpy(run.encoder_out, f32(plan.enc_out_off),
                sizeof(float) *
                    static_cast<size_t>(run.encoder_out_rows * plan.d_model));
  }
  if (want_logits) {
    std::memcpy(run.logits, f32(plan.logits_off),
                sizeof(float) * static_cast<size_t>(plan.num_labels));
  }
}

}  // namespace explainti::core
