#ifndef EXPLAINTI_NN_LOWERING_H_
#define EXPLAINTI_NN_LOWERING_H_

#include <cstdint>
#include <vector>

namespace explainti::nn {

class Linear;
class TransformerEncoder;

/// Graph metadata for lowering the frozen eval graph into a compiled
/// inference plan (core/inference_plan.cc).
///
/// The tensor library is eager — each forward call rebuilds its graph —
/// so there is no persistent tape to capture. What IS persistent is the
/// module structure: the encoder's op sequence is fixed by construction
/// (embeddings -> N x [attention, FFN] -> output), and only the weight
/// pointers and dimensions vary between models. These structs are that
/// structure, flattened: everything a plan builder needs to emit the
/// exact op stream TransformerEncoder::Forward would execute, without
/// ever running it. The pointers borrow the module's parameter storage;
/// they stay valid across LoadWeights (which copies into the existing
/// buffers) but die with the encoder.
///
/// EXPLAINTI_PLAN=verify (see InferenceSession) provides the runtime
/// complement: every serving call executes both the lowered plan and the
/// graph walk and checks bit-equality.

/// y = x W + b with W [in, out] row-major, b [out].
struct LinearLowering {
  const float* weight = nullptr;
  const float* bias = nullptr;
  int64_t in = 0;
  int64_t out = 0;
};

/// token + position (+ optional segment) gather-adds, then LayerNorm.
struct EmbeddingsLowering {
  const float* token_table = nullptr;     // [vocab, d]
  const float* position_table = nullptr;  // [max_len, d]
  const float* segment_table = nullptr;   // [2, d]; null: no segment term
  const float* ln_gamma = nullptr;        // [d]
  const float* ln_beta = nullptr;         // [d]
  int64_t vocab_size = 0;
  int64_t max_len = 0;
  bool use_segments = false;
};

/// One post-LN encoder block:
///   h = LN(x + Attn(x)); out = LN(h + W2 gelu(W1 h + b1) + b2).
struct EncoderLayerLowering {
  LinearLowering wq, wk, wv, wo;          // d -> d each.
  LinearLowering ffn_in;                  // d -> ffn_dim (GELU after).
  LinearLowering ffn_out;                 // ffn_dim -> d.
  const float* ln1_gamma = nullptr;
  const float* ln1_beta = nullptr;
  const float* ln2_gamma = nullptr;
  const float* ln2_beta = nullptr;
};

/// The full encoder: embeddings plus the layer stack.
struct EncoderLowering {
  EmbeddingsLowering embeddings;
  std::vector<EncoderLayerLowering> layers;
  int64_t d_model = 0;
  int64_t num_heads = 0;
  int64_t ffn_dim = 0;
};

/// Flattens `encoder`'s structure and weight pointers for plan building.
/// Always succeeds (the encoder architecture is closed); whether a
/// particular *call shape* is supported — sequence length in range, no
/// additive attention mask, d_model divisible by num_heads — is decided
/// by the plan builder, which falls back to the graph walk otherwise.
EncoderLowering LowerEncoder(const TransformerEncoder& encoder);

/// Flattens one affine head for plan building.
LinearLowering LowerLinear(const Linear& linear);

}  // namespace explainti::nn

#endif  // EXPLAINTI_NN_LOWERING_H_
