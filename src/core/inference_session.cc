#include "core/inference_session.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "nn/exec_context.h"
#include "nn/lowering.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace explainti::core {

namespace {

// Plans are keyed by the only two shape-relevant properties of a sample:
// its (unpadded) sequence length and whether the embedding stack adds a
// segment term (config-enabled AND the sample carries segment ids —
// mirroring TransformerEmbeddings::Forward's condition).
int64_t PlanKey(const TaskSample& sample, bool encoder_uses_segments) {
  const bool has_seg =
      encoder_uses_segments && !sample.seq.segments.empty();
  return static_cast<int64_t>(sample.seq.ids.size()) * 2 + (has_seg ? 1 : 0);
}

// Bit-exact comparison for the verify mode: float == would accept -0.0f
// vs +0.0f and reject NaN payload matches; the contract is byte identity.
bool BitsEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

}  // namespace

InferenceSession::InferenceSession(const ExplainTiModel& model)
    : model_(&model) {
  // Latch both serving modes once, at construction: the session rebuilds
  // its plans across the weights lifecycle (SuspendQuantizedTier /
  // ReloadWeights), and a rebuild must not change behaviour because the
  // environment moved underneath it.
  const char* plan_env = std::getenv("EXPLAINTI_PLAN");
  const std::string mode = plan_env != nullptr ? plan_env : "on";
  if (mode == "off") {
    plan_mode_ = PlanMode::kOff;
  } else {
    plan_mode_ = mode == "verify" ? PlanMode::kVerify : PlanMode::kOn;
    if (mode != "on" && mode != "verify") {
      LOG(WARNING) << "unknown EXPLAINTI_PLAN value \"" << mode
                   << "\" (expected on/off/verify); serving from plans";
    }
  }
  const char* prec_env = std::getenv("EXPLAINTI_PRECISION");
  const std::string precision =
      prec_env != nullptr ? prec_env : model.config().precision;
  if (precision == "int8") {
    precision_policy_ = PrecisionMode::kInt8;
  } else if (precision == "mixed") {
    precision_policy_ = PrecisionMode::kMixed;
  } else {
    precision_policy_ = PrecisionMode::kFp32;
    if (precision != "fp32") {
      LOG(WARNING) << "unknown precision value \"" << precision
                   << "\" (expected fp32/int8/mixed); serving fp32";
    }
  }
  BuildPlans();
}

void InferenceSession::BuildPlans() {
  if (plan_mode_ == PlanMode::kOff) {
    if (precision_policy_ != PrecisionMode::kFp32) {
      precision_status_ = util::Status::FailedPrecondition(
          "EXPLAINTI_PLAN=off disables compiled plans, and the quantized "
          "tier lives in them; serving fp32 through the graph walk");
    }
    return;
  }
  // Chaos site: models a lowering defect shipping in a new build — plan
  // compilation fails outright and serving must degrade to the graph
  // walk, never to an error.
  if (util::Status fault = FAULT_POINT("plan.build"); !fault.ok()) {
    LOG(WARNING) << "inference plan build faulted (" << fault.ToString()
                 << "); serving from the graph walk";
    if (precision_policy_ != PrecisionMode::kFp32) {
      precision_status_ = util::Status::FailedPrecondition(
          "plan build faulted; the quantized tier requires compiled plans");
    }
    return;
  }

  const nn::EncoderLowering lowered = nn::LowerEncoder(*model_->encoder_);
  if (util::Status built = BuildPlanSet(lowered, /*quantized=*/false);
      !built.ok()) {
    // All or nothing: a per-shape mix of plan and graph serving would
    // make the fast path data-dependent and the fallback untestable.
    LOG(WARNING) << "inference plan build failed (" << built.ToString()
                 << "); serving from the graph walk";
    return;
  }
  if (precision_policy_ == PrecisionMode::kFp32) return;
  if (suppress_quant_) {
    precision_status_ = util::Status::FailedPrecondition(
        "quantized tier suspended for training; fp32 until ReloadWeights");
    return;
  }
  if (plan_mode_ == PlanMode::kVerify) {
    precision_status_ = util::Status::FailedPrecondition(
        "EXPLAINTI_PLAN=verify forces fp32: the int8 tier is deliberately "
        "not bit-identical to the graph walk");
    LOG(WARNING) << "EXPLAINTI_PLAN=verify: quantized tier disabled, "
                    "serving the bit-exact fp32 plans";
    return;
  }
  if (util::Status quant = BuildQuantizedTier(lowered); !quant.ok()) {
    // Fail closed, all or nothing: a failed quantized build never leaves
    // a half-quantized mix installed — the session re-lands on the exact
    // fp32 plan set that just built above, and precision_status() carries
    // the typed reason.
    precision_status_ = quant;
    LOG(WARNING) << "quantized tier build failed (" << quant.ToString()
                 << "); failing closed to the all-fp32 plans";
    DropQuantState();
    const util::Status refp32 = BuildPlanSet(lowered, /*quantized=*/false);
    CHECK(refp32.ok()) << "fp32 plan rebuild failed after a quantized-tier "
                          "failure, but the same build succeeded moments "
                          "ago: " << refp32.ToString();
  } else {
    precision_status_ = util::Status::OK();
  }
}

util::Status InferenceSession::BuildPlanSet(
    const nn::EncoderLowering& lowered, bool quantized) {
  type_plans_.clear();
  relation_plans_.clear();
  plans_built_ = 0;
  quantized_active_ = false;
  const bool use_segments = model_->encoder_->config().use_segments;
  int64_t int8_instrs = 0;
  for (TaskKind kind : {TaskKind::kType, TaskKind::kRelation}) {
    if (!model_->HasTask(kind)) continue;
    auto& plans = kind == TaskKind::kType ? type_plans_ : relation_plans_;
    const TaskData& task = model_->Task(kind);
    const nn::LinearLowering head =
        nn::LowerLinear(model_->Heads(kind).base->projection());
    PlanQuantSpec spec;
    const PlanQuantSpec* spec_ptr = nullptr;
    if (quantized) {
      spec.encoder = qencoder_.get();
      spec.layer_int8 = &layer_int8_;
      spec.head = head_int8_ ? (kind == TaskKind::kType
                                    ? qhead_type_.get()
                                    : qhead_relation_.get())
                             : nullptr;
      spec_ptr = &spec;
    }
    for (const TaskSample& sample : task.samples) {
      const int64_t key = PlanKey(sample, use_segments);
      if (plans.find(key) != plans.end()) continue;
      util::StatusOr<InferencePlan> plan = BuildInferencePlan(
          lowered, &head, static_cast<int64_t>(sample.seq.ids.size()),
          /*has_segments=*/(key & 1) != 0, spec_ptr);
      if (!plan.ok()) {
        type_plans_.clear();
        relation_plans_.clear();
        plans_built_ = 0;
        return plan.status();
      }
      InferencePlan built = std::move(plan).value();
      int8_instrs += built.int8_gemms;
      plans.emplace(key, std::move(built));
      ++plans_built_;
    }
  }
  quantized_active_ = int8_instrs > 0;
  return util::Status::OK();
}

util::Status InferenceSession::BuildQuantizedTier(
    const nn::EncoderLowering& lowered) {
  // Chaos site: models a quantizer defect shipping in a new build — the
  // tier must fail closed to the fp32 plans, never to an error or a
  // half-quantized mix.
  if (util::Status fault = FAULT_POINT("plan.quantize"); !fault.ok()) {
    return fault;
  }
  qencoder_ =
      std::make_unique<nn::QuantizedEncoder>(nn::QuantizeEncoder(lowered));
  for (TaskKind kind : {TaskKind::kType, TaskKind::kRelation}) {
    if (!model_->HasTask(kind)) continue;
    auto& qhead =
        kind == TaskKind::kType ? qhead_type_ : qhead_relation_;
    qhead = std::make_unique<nn::QuantizedLinear>(nn::QuantizeLinear(
        nn::LowerLinear(model_->Heads(kind).base->projection())));
  }
  layer_int8_.assign(lowered.layers.size(), 1);
  head_int8_ = true;
  if (precision_policy_ != PrecisionMode::kMixed) {
    return BuildPlanSet(lowered, /*quantized=*/true);
  }

  // Mixed mode: the fp32 plans (installed right now) are the baseline.
  // The calibration signal is the compiled base-head prediction — pure
  // encoder + head, no embedding stores — so calibration works even on a
  // freshly constructed model whose stores have not been built yet.
  std::vector<std::pair<TaskKind, int>> slice;
  const int per_task =
      std::max(1, model_->config().precision_calibration_samples);
  for (TaskKind kind : {TaskKind::kType, TaskKind::kRelation}) {
    if (!model_->HasTask(kind)) continue;
    const TaskData& task = model_->Task(kind);
    const std::vector<int>& ids =
        task.valid_ids.empty() ? task.train_ids : task.valid_ids;
    if (!ids.empty()) {
      const size_t take =
          std::min(static_cast<size_t>(per_task), ids.size());
      for (size_t i = 0; i < take; ++i) slice.emplace_back(kind, ids[i]);
    } else {
      const size_t take = std::min(static_cast<size_t>(per_task),
                                   task.samples.size());
      for (size_t i = 0; i < take; ++i) {
        slice.emplace_back(kind, static_cast<int>(i));
      }
    }
  }
  if (slice.empty()) {
    return util::Status::FailedPrecondition(
        "mixed-precision calibration has no samples to measure agreement "
        "on");
  }
  std::vector<std::vector<int>> baseline;
  baseline.reserve(slice.size());
  for (const auto& [kind, id] : slice) {
    baseline.push_back(PlanHeadLabels(kind, id));
  }
  return CalibrateQuantMask(lowered, slice, baseline);
}

util::Status InferenceSession::CalibrateQuantMask(
    const nn::EncoderLowering& lowered,
    const std::vector<std::pair<TaskKind, int>>& slice,
    const std::vector<std::vector<int>>& baseline) {
  const size_t num_layers = lowered.layers.size();
  const double min_agree =
      static_cast<double>(model_->config().precision_min_agreement);
  std::vector<uint8_t> accepted(num_layers, 0);
  bool head_accepted = false;
  // Probe one candidate at a time — exactly one layer (or the head) int8,
  // everything else fp32 — so each probe isolates that layer's
  // quantization error against the fp32 baseline.
  for (size_t cand = 0; cand <= num_layers; ++cand) {
    layer_int8_.assign(num_layers, 0);
    head_int8_ = cand == num_layers;
    if (cand < num_layers) layer_int8_[cand] = 1;
    if (util::Status st = BuildPlanSet(lowered, /*quantized=*/true);
        !st.ok()) {
      return st;
    }
    const double agree = AgreementOnSlice(slice, baseline);
    if (agree >= min_agree) {
      if (cand < num_layers) {
        accepted[cand] = 1;
      } else {
        head_accepted = true;
      }
    }
  }
  layer_int8_ = accepted;
  head_int8_ = head_accepted;
  if (util::Status st = BuildPlanSet(lowered, /*quantized=*/true);
      !st.ok()) {
    return st;
  }
  if (!quantized_active_) {
    return util::Status::FailedPrecondition(
        "mixed-precision calibration rejected every layer and the head; "
        "nothing to quantize");
  }
  // Per-layer probes pass independently; errors can still compound when
  // the accepted layers stack, so gate the combined mask too.
  const double combined = AgreementOnSlice(slice, baseline);
  if (combined < min_agree) {
    return util::Status::FailedPrecondition(
        "combined int8 mask agreement fell below the calibration "
        "threshold; individually-acceptable layers compound");
  }
  return util::Status::OK();
}

std::vector<int> InferenceSession::PlanHeadLabels(TaskKind kind,
                                                  int sample_id) const {
  tensor::InferenceModeGuard guard;
  const InferencePlan* plan = PlanFor(kind, sample_id);
  CHECK(plan != nullptr && plan->logits_off >= 0)
      << "calibration requires compiled plans with a folded head";
  const TaskSample& sample =
      model_->Task(kind).samples[static_cast<size_t>(sample_id)];
  std::vector<float> logits(static_cast<size_t>(plan->num_labels));
  PlanRun run;
  run.token_ids = sample.seq.ids.data();
  run.segment_ids =
      plan->has_segments ? sample.seq.segments.data() : nullptr;
  run.logits = logits.data();
  RunPlan(*plan, run);
  return model_->DecodeLabels(kind, logits);
}

double InferenceSession::AgreementOnSlice(
    const std::vector<std::pair<TaskKind, int>>& slice,
    const std::vector<std::vector<int>>& baseline) const {
  CHECK_EQ(slice.size(), baseline.size());
  if (slice.empty()) return 1.0;
  size_t match = 0;
  for (size_t i = 0; i < slice.size(); ++i) {
    if (PlanHeadLabels(slice[i].first, slice[i].second) == baseline[i]) {
      ++match;
    }
  }
  return static_cast<double>(match) / static_cast<double>(slice.size());
}

void InferenceSession::DropQuantState() {
  // Any installed int8 plan borrows qencoder_/qhead storage by pointer;
  // the plans must die with the storage, never outlive it.
  type_plans_.clear();
  relation_plans_.clear();
  plans_built_ = 0;
  qencoder_.reset();
  qhead_type_.reset();
  qhead_relation_.reset();
  layer_int8_.clear();
  head_int8_ = false;
  quantized_active_ = false;
}

const char* InferenceSession::served_precision() const {
  if (!quantized_active_) return "fp32";
  return precision_policy_ == PrecisionMode::kMixed ? "mixed" : "int8";
}

InferenceSession::PrecisionStats InferenceSession::precision_stats() const {
  PrecisionStats s;
  s.policy = precision_policy_;
  s.served = served_precision();
  if (!quantized_active_ || qencoder_ == nullptr) return s;
  for (const uint8_t bit : layer_int8_) s.int8_layers += bit;
  s.fp32_fallback_layers =
      static_cast<int64_t>(layer_int8_.size()) - s.int8_layers;
  s.head_int8 = head_int8_;
  const auto add = [&s](const nn::QuantizedLinear& q) {
    s.weight_bytes_fp32 += q.Fp32Bytes();
    s.weight_bytes_int8 += q.Int8Bytes();
  };
  for (size_t i = 0; i < layer_int8_.size(); ++i) {
    if (layer_int8_[i] == 0) continue;
    const nn::QuantizedEncoderLayer& ql = qencoder_->layers[i];
    add(ql.wq);
    add(ql.wk);
    add(ql.wv);
    add(ql.wo);
    add(ql.ffn_in);
    add(ql.ffn_out);
  }
  if (head_int8_) {
    if (qhead_type_ != nullptr) add(*qhead_type_);
    if (qhead_relation_ != nullptr) add(*qhead_relation_);
  }
  return s;
}

void InferenceSession::SuspendQuantizedTier() {
  suppress_quant_ = true;
  if (qencoder_ == nullptr && !quantized_active_) return;
  DropQuantState();
  precision_status_ = util::Status::OK();
  BuildPlans();  // Rebuilds fp32-only; suppress_quant_ restates the why.
}

void InferenceSession::ReloadWeights() {
  suppress_quant_ = false;
  if (plan_mode_ == PlanMode::kOff) return;
  // fp32 plans borrow the model's weight storage by pointer — a weight
  // update never staled them, so the reference policy stays zero-cost.
  if (precision_policy_ == PrecisionMode::kFp32) return;
  if (precision_policy_ == PrecisionMode::kInt8 && quantized_active_ &&
      qencoder_ != nullptr) {
    // Fast path: the int8 mask is static under the int8 policy, so new
    // weights only need their int8 bytes rewritten in place. The
    // installed plans borrow the quantized storage by pointer
    // (borrowed-pointer contract) and stay exactly as compiled.
    const nn::EncoderLowering lowered = nn::LowerEncoder(*model_->encoder_);
    nn::RequantizeEncoder(lowered, qencoder_.get());
    for (TaskKind kind : {TaskKind::kType, TaskKind::kRelation}) {
      if (!model_->HasTask(kind)) continue;
      nn::QuantizedLinear* qhead = kind == TaskKind::kType
                                       ? qhead_type_.get()
                                       : qhead_relation_.get();
      if (qhead != nullptr) {
        nn::RequantizeLinear(
            nn::LowerLinear(model_->Heads(kind).base->projection()), qhead);
      }
    }
    return;
  }
  // First arm after a suspension, mixed-mode recalibration against the
  // new weights, or a second chance for a tier that previously failed.
  DropQuantState();
  precision_status_ = util::Status::OK();
  BuildPlans();
}

const InferencePlan* InferenceSession::PlanFor(TaskKind kind,
                                               int sample_id) const {
  const auto& plans =
      kind == TaskKind::kType ? type_plans_ : relation_plans_;
  if (plans.empty() || !model_->HasTask(kind)) return nullptr;
  const TaskData& task = model_->Task(kind);
  if (sample_id < 0 ||
      sample_id >= static_cast<int>(task.samples.size())) {
    return nullptr;
  }
  const auto it =
      plans.find(PlanKey(task.samples[static_cast<size_t>(sample_id)],
                         model_->encoder_->config().use_segments));
  return it == plans.end() ? nullptr : &it->second;
}

tensor::Tensor InferenceSession::PlanEncode(const InferencePlan& plan,
                                            const TaskSample& sample,
                                            int64_t rows) const {
  // The encoder output is the one plan intermediate that must outlive the
  // arena (the RunForward tail reads it), so it gets a pooled workspace
  // node of its own — the first `rows` rows of what the graph walk's
  // final LayerNorm would have produced.
  auto node = tensor::internal::AllocNode({rows, plan.d_model},
                                          /*zero_init=*/false);
  PlanRun run;
  run.token_ids = sample.seq.ids.data();
  run.segment_ids = plan.has_segments ? sample.seq.segments.data() : nullptr;
  run.encoder_out = node->data.data();
  run.encoder_out_rows = rows;
  RunPlan(plan, run);
  return tensor::Tensor(std::move(node));
}

ExplainTiModel::Forward InferenceSession::PlanForward(
    TaskKind kind, int sample_id, const InferencePlan& plan, util::Rng& rng,
    bool with_local, bool with_global) const {
  plan_runs_.fetch_add(1, std::memory_order_relaxed);
  const TaskData& task = model_->Task(kind);
  const TaskSample& sample = task.samples[static_cast<size_t>(sample_id)];
  // Only LE pools the non-[CLS] token rows; SE, GE and the heads read row
  // 0 alone, so without LE the plan computes the [CLS] row only.
  tensor::Tensor embeddings =
      PlanEncode(plan, sample, with_local ? plan.seq_len : 1);
  // The tail (SE/LE/GE and head selection) is the graph walk's own code:
  // the plan replaces only the encoder, so the two paths cannot diverge
  // in anything but encoder numerics — which the plan contract (and the
  // verify mode below) pins to bit-identity. The inference-mode encoder
  // draws nothing from the RNG, so the tail sees the same stream either
  // way (SE neighbour sampling stays deterministic per sample).
  ExplainTiModel::Forward fwd =
      model_->RunForward(kind, sample_id, nn::ExecContext::Inference(&rng),
                         with_local, with_global, &embeddings);
  if (plan_mode_ == PlanMode::kVerify) {
    util::Rng ref_rng(model_->InferenceSeed(sample_id));
    ExplainTiModel::Forward ref = model_->RunForward(
        kind, sample_id, nn::ExecContext::Inference(&ref_rng), with_local,
        with_global);
    // Compare the rows the plan computed: all of them, or just [CLS].
    const std::vector<float> got = embeddings.ToVector();
    std::vector<float> want = ref.embeddings.ToVector();
    want.resize(got.size());
    CHECK(BitsEqual(got, want))
        << "plan verify: encoder output diverged from the graph walk "
           "(task sample " << sample_id << ", seq_len " << plan.seq_len
        << ")";
    CHECK(BitsEqual(fwd.final_logits.ToVector(),
                    ref.final_logits.ToVector()))
        << "plan verify: final logits diverged from the graph walk "
           "(task sample " << sample_id << ")";
  }
  return fwd;
}

std::vector<float> InferenceSession::FinalLogits(TaskKind kind,
                                                 int sample_id) const {
  tensor::InferenceModeGuard guard;
  util::Rng rng(model_->InferenceSeed(sample_id));
  const InferencePlan* plan = PlanFor(kind, sample_id);
  if (plan == nullptr) {
    graph_runs_.fetch_add(1, std::memory_order_relaxed);
    return model_
        ->RunForward(kind, sample_id, nn::ExecContext::Inference(&rng),
                     /*with_local=*/false, /*with_global=*/false)
        .final_logits.ToVector();
  }
  if (model_->config().use_structural || plan->logits_off < 0) {
    // Structural logits depend on store state and sampled neighbours, so
    // the head is not compiled in; run the compiled encoder and the
    // shared tail.
    return PlanForward(kind, sample_id, *plan, rng, /*with_local=*/false,
                       /*with_global=*/false)
        .final_logits.ToVector();
  }
  // Base head: the plan covers the whole sample — one instruction-array
  // walk, no graph dispatch at all.
  plan_runs_.fetch_add(1, std::memory_order_relaxed);
  const TaskSample& sample =
      model_->Task(kind).samples[static_cast<size_t>(sample_id)];
  std::vector<float> logits(static_cast<size_t>(plan->num_labels));
  PlanRun run;
  run.token_ids = sample.seq.ids.data();
  run.segment_ids = plan->has_segments ? sample.seq.segments.data() : nullptr;
  run.logits = logits.data();
  RunPlan(*plan, run);
  if (plan_mode_ == PlanMode::kVerify) {
    util::Rng ref_rng(model_->InferenceSeed(sample_id));
    const std::vector<float> ref =
        model_
            ->RunForward(kind, sample_id,
                         nn::ExecContext::Inference(&ref_rng),
                         /*with_local=*/false, /*with_global=*/false)
            .final_logits.ToVector();
    CHECK(BitsEqual(logits, ref))
        << "plan verify: compiled head logits diverged from the graph "
           "walk (task sample " << sample_id << ")";
  }
  return logits;
}

std::vector<int> InferenceSession::Predict(TaskKind kind,
                                           int sample_id) const {
  return model_->DecodeLabels(kind, FinalLogits(kind, sample_id));
}

std::vector<float> InferenceSession::PredictProbabilities(
    TaskKind kind, int sample_id) const {
  const TaskData& task = model_->Task(kind);
  const std::vector<float> logits = FinalLogits(kind, sample_id);
  return task.multi_label ? tensor::SigmoidValues(logits)
                          : tensor::SoftmaxValues(logits);
}

Explanation InferenceSession::Explain(TaskKind kind, int sample_id) const {
  tensor::InferenceModeGuard guard;
  util::Rng rng(model_->InferenceSeed(sample_id));
  if (const InferencePlan* plan = PlanFor(kind, sample_id)) {
    ExplainTiModel::Forward fwd =
        PlanForward(kind, sample_id, *plan, rng, model_->config().use_local,
                    model_->config().use_global);
    return model_->MakeExplanation(kind, std::move(fwd));
  }
  graph_runs_.fetch_add(1, std::memory_order_relaxed);
  ExplainTiModel::Forward fwd =
      model_->RunForward(kind, sample_id, nn::ExecContext::Inference(&rng));
  return model_->MakeExplanation(kind, std::move(fwd));
}

namespace {

// Shared fan-out shape for the batched serving entry points: each sample
// is an independent single-sample call (own guard, own InferenceSeed
// RNG, writes only its own output slot), so chunking over the pool keeps
// results bit-identical to the serial per-sample loop at any thread
// count and any batch composition.
template <typename Result, typename Fn>
std::vector<Result> ForEachSample(const std::vector<int>& sample_ids,
                                  const Fn& fn) {
  std::vector<Result> results(sample_ids.size());
  util::ParallelFor(0, static_cast<int64_t>(sample_ids.size()), 1,
                    [&](int64_t ib, int64_t ie) {
                      for (int64_t i = ib; i < ie; ++i) {
                        results[static_cast<size_t>(i)] =
                            fn(sample_ids[static_cast<size_t>(i)]);
                      }
                    });
  return results;
}

}  // namespace

std::vector<std::vector<int>> InferenceSession::PredictBatch(
    TaskKind kind, const std::vector<int>& sample_ids) const {
  return ForEachSample<std::vector<int>>(
      sample_ids, [&](int id) { return Predict(kind, id); });
}

std::vector<std::vector<float>> InferenceSession::PredictProbabilitiesBatch(
    TaskKind kind, const std::vector<int>& sample_ids) const {
  return ForEachSample<std::vector<float>>(
      sample_ids, [&](int id) { return PredictProbabilities(kind, id); });
}

std::vector<Explanation> InferenceSession::ExplainBatch(
    TaskKind kind, const std::vector<int>& sample_ids) const {
  return ForEachSample<Explanation>(
      sample_ids, [&](int id) { return Explain(kind, id); });
}

std::vector<std::vector<float>> InferenceSession::EncodeBatch(
    TaskKind kind, const std::vector<int>& sample_ids) const {
  const TaskData& task = model_->Task(kind);
  std::vector<std::vector<float>> embeddings(sample_ids.size());
  // Every sample writes only its own slot, and no-grad encoding is
  // bit-identical to the eval tape, so batched encoding fans out across
  // the pool with results identical to the serial tape loop. The guard is
  // per-chunk: inference mode is thread-local, so each executing thread
  // arms its own flag and allocates from its own workspace.
  util::ParallelFor(
      0, static_cast<int64_t>(sample_ids.size()), 1,
      [&](int64_t ib, int64_t ie) {
        tensor::InferenceModeGuard guard;
        for (int64_t i = ib; i < ie; ++i) {
          const int id = sample_ids[static_cast<size_t>(i)];
          CHECK(id >= 0 && id < static_cast<int>(task.samples.size()));
          const TaskSample& sample = task.samples[static_cast<size_t>(id)];
          std::vector<float>& out = embeddings[static_cast<size_t>(i)];
          if (const InferencePlan* plan = PlanFor(kind, id)) {
            // The store rebuild only needs the [CLS] row: run the
            // compiled encoder and copy out row 0 directly.
            plan_runs_.fetch_add(1, std::memory_order_relaxed);
            out.resize(static_cast<size_t>(plan->d_model));
            PlanRun run;
            run.token_ids = sample.seq.ids.data();
            run.segment_ids =
                plan->has_segments ? sample.seq.segments.data() : nullptr;
            run.encoder_out = out.data();
            run.encoder_out_rows = 1;
            RunPlan(*plan, run);
            if (plan_mode_ == PlanMode::kVerify) {
              tensor::Tensor hidden = model_->encoder_->Forward(
                  sample.seq.ids, sample.seq.segments,
                  nn::ExecContext::Inference());
              CHECK(BitsEqual(out, tensor::Row(hidden, 0).ToVector()))
                  << "plan verify: [CLS] embedding diverged from the "
                     "graph walk (task sample " << id << ")";
            }
          } else {
            graph_runs_.fetch_add(1, std::memory_order_relaxed);
            tensor::Tensor hidden =
                model_->encoder_->Forward(sample.seq.ids,
                                          sample.seq.segments,
                                          nn::ExecContext::Inference());
            out = tensor::Row(hidden, 0).ToVector();
          }
        }
      });
  return embeddings;
}

eval::F1Scores InferenceSession::Evaluate(TaskKind kind,
                                          data::SplitPart part) const {
  const TaskData& task = model_->Task(kind);
  const std::vector<int>* ids = nullptr;
  switch (part) {
    case data::SplitPart::kTrain:
      ids = &task.train_ids;
      break;
    case data::SplitPart::kValid:
      ids = &task.valid_ids;
      break;
    case data::SplitPart::kTest:
      ids = &task.test_ids;
      break;
  }
  // Predict seeds a per-sample RNG (InferenceSeed) and mutates no model
  // state, so samples evaluate concurrently with the same predictions the
  // serial loop produced.
  std::vector<eval::LabeledPrediction> predictions(ids->size());
  util::ParallelFor(
      0, static_cast<int64_t>(ids->size()), 1, [&](int64_t ib, int64_t ie) {
        for (int64_t i = ib; i < ie; ++i) {
          const int id = (*ids)[static_cast<size_t>(i)];
          eval::LabeledPrediction& p = predictions[static_cast<size_t>(i)];
          p.gold = task.samples[static_cast<size_t>(id)].labels;
          p.predicted = Predict(kind, id);
        }
      });
  return eval::ComputeF1(predictions, task.num_labels);
}

util::StatusOr<std::unique_ptr<ExplainTiModel>> LoadReplicaForSwap(
    const ExplainTiConfig& config, const data::TableCorpus& corpus,
    const std::string& weights_path) {
  // Chaos site: models a checkpoint store outage mid-rollout — the
  // replica never comes up, and the caller keeps the old generation.
  if (util::Status fault = FAULT_POINT("swap.load_weights"); !fault.ok()) {
    return fault;
  }
  auto replica = std::make_unique<ExplainTiModel>(config, corpus);
  // LoadWeights warms the GE/SE stores itself: it reopens the persisted
  // segmented stores from config.store_dir when set (mmap, no corpus
  // re-encode) and re-encodes in memory otherwise — so the first
  // post-swap Explain is never a cold start. No extra RefreshStores here;
  // the old double re-encode is gone.
  if (util::Status loaded = replica->LoadWeights(weights_path);
      !loaded.ok()) {
    return loaded;
  }
  return replica;
}

}  // namespace explainti::core
