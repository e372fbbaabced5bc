#include "core/inference_session.h"

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
  BuildPlans();
}

void InferenceSession::BuildPlans() {
  if (plan_mode_ == PlanMode::kOff) return;
  // Chaos site: models a lowering defect shipping in a new build — plan
  // compilation fails outright and serving must degrade to the graph
  // walk, never to an error.
  if (util::Status fault = FAULT_POINT("plan.build"); !fault.ok()) {
    LOG(WARNING) << "inference plan build faulted (" << fault.ToString()
                 << "); serving from the graph walk";
    return;
  }

  const nn::EncoderLowering lowered = nn::LowerEncoder(*model_->encoder_);
  const bool use_segments = model_->encoder_->config().use_segments;
  for (TaskKind kind : {TaskKind::kType, TaskKind::kRelation}) {
    if (!model_->HasTask(kind)) continue;
    auto& plans = kind == TaskKind::kType ? type_plans_ : relation_plans_;
    const TaskData& task = model_->Task(kind);
    const nn::LinearLowering head =
        nn::LowerLinear(model_->Heads(kind).base->projection());
    for (const TaskSample& sample : task.samples) {
      const int64_t key = PlanKey(sample, use_segments);
      if (plans.find(key) != plans.end()) continue;
      util::StatusOr<InferencePlan> plan = BuildInferencePlan(
          lowered, &head, static_cast<int64_t>(sample.seq.ids.size()),
          /*has_segments=*/(key & 1) != 0);
      if (!plan.ok()) {
        // All or nothing: a per-shape mix of plan and graph serving would
        // make the fast path data-dependent and the fallback untestable.
        LOG(WARNING) << "inference plan build failed ("
                     << plan.status().ToString()
                     << "); serving from the graph walk";
        type_plans_.clear();
        relation_plans_.clear();
        plans_built_ = 0;
        return;
      }
      plans.emplace(key, std::move(plan).value());
      ++plans_built_;
    }
  }
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
