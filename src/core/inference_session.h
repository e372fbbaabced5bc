#ifndef EXPLAINTI_CORE_INFERENCE_SESSION_H_
#define EXPLAINTI_CORE_INFERENCE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/explain_ti_model.h"
#include "core/explanation.h"
#include "core/inference_plan.h"
#include "core/task_data.h"
#include "data/corpus.h"
#include "eval/f1_metrics.h"
#include "util/status.h"

namespace explainti::core {

/// Frozen, read-only serving facade over a trained ExplainTiModel.
///
/// Every call runs the no-grad execution path: an InferenceModeGuard on
/// the executing thread makes the tensor ops skip the autograd tape and
/// draw scratch storage from the per-thread Workspace arena, so a
/// warmed-up Predict performs zero tensor heap allocations. Outputs are
/// bit-identical to the model's tape-building Predict/Explain.
///
/// Compiled plans. At construction the session lowers the frozen eval
/// graph once into linearized inference plans (core/inference_plan.h) —
/// one per distinct (task, sequence length, segment use) in the task
/// data — and serves from them: fused kernels, fixed workspace offsets,
/// zero per-call dispatch. The graph walk remains as the fallback (and
/// the reference): if any plan fails to build the session logs, drops all
/// plans, and serves every call through the walk. `EXPLAINTI_PLAN`
/// selects the mode at construction: "on" (default) serves from plans,
/// "off" disables them, "verify" runs BOTH paths on every call and checks
/// the outputs are bit-identical before answering. Plans borrow the
/// model's weight storage (updated in place by Fit/LoadWeights), so they
/// never go stale; they die with the session, which under serve's
/// hot-swap means a new generation always carries freshly built plans.
///
/// Precision tiers. On top of the fp32 plan set the session can arm an
/// int8 post-training-quantized tier (config.precision or
/// `EXPLAINTI_PRECISION` = fp32|int8|mixed, latched at construction):
/// encoder weight GEMMs and the folded base classifier head run
/// ServingGemmInt8 against per-output-column symmetric int8 weights,
/// quantized once from the frozen fp32 storage. "mixed" calibrates a
/// per-layer fp32-fallback bit against the fp32 baseline's predictions on
/// the validation slice and keeps only layers (and the head) whose
/// agreement clears config.precision_min_agreement. The tier is strictly
/// additive and fails closed: any quantization or calibration failure
/// stores a typed precision_status() and rebuilds the all-fp32 plan set,
/// "fp32" policy leaves every output bit-identical to today, verify mode
/// forces fp32 (the quantized path is intentionally not bit-identical to
/// the walk), and training always serves fp32 (the model suspends the
/// tier over Fit and re-quantizes from the new weights afterwards).
///
/// All methods are const and touch no mutable model state (per-call RNGs
/// are derived from ExplainTiModel::InferenceSeed), so one session may be
/// shared across threads serving concurrent requests. The only contract
/// is lifetime/ordering: the model must outlive the session, and
/// weights-mutating calls (Fit, LoadWeights) must not run concurrently
/// with session use. Obtain a session via ExplainTiModel::session(), e.g.
/// after LoadWeights:
///
///   ExplainTiModel model(config, corpus);
///   CHECK(model.LoadWeights(path).ok());
///   const InferenceSession& session = model.session();
///   std::vector<int> labels = session.Predict(TaskKind::kType, id);
///   Explanation z = session.Explain(TaskKind::kType, id);
class InferenceSession {
 public:
  /// How the session dispatches serving calls (from `EXPLAINTI_PLAN`).
  enum class PlanMode {
    kOff,     ///< Graph walk only; no plans are built.
    kOn,      ///< Serve from compiled plans, graph walk as fallback.
    kVerify,  ///< Run both paths per call; CHECK bit-identical outputs.
  };

  /// Serving-path counters, for tests and the bench regression gate.
  struct PlanStats {
    int64_t plans_built = 0;  ///< Distinct plans compiled at construction.
    int64_t plan_runs = 0;    ///< Calls served by the compiled path.
    int64_t graph_runs = 0;   ///< Calls served by the graph walk.
  };

  /// Precision policy requested for this session (from config.precision /
  /// `EXPLAINTI_PRECISION`, latched at construction).
  enum class PrecisionMode {
    kFp32,   ///< Reference tier; bit-identical to the graph walk.
    kInt8,   ///< Every encoder weight GEMM + base head quantized.
    kMixed,  ///< Per-layer int8, calibrated against the fp32 baseline.
  };

  /// Quantized-tier summary, for tests, serve metrics and the bench gate.
  struct PrecisionStats {
    PrecisionMode policy = PrecisionMode::kFp32;
    /// What calls actually run: "fp32" (tier off, suspended, or failed
    /// closed), "int8", or "mixed". Static storage — safe to stamp into
    /// responses without copying.
    const char* served = "fp32";
    int64_t int8_layers = 0;           ///< Encoder layers running int8.
    int64_t fp32_fallback_layers = 0;  ///< Layers calibration kept fp32.
    bool head_int8 = false;            ///< Base classifier head is int8.
    /// Fp32 bytes of the weights the armed tier replaced, and the int8
    /// bytes (data + dequant params) replacing them. Both 0 when the tier
    /// is not armed.
    int64_t weight_bytes_fp32 = 0;
    int64_t weight_bytes_int8 = 0;
  };

  explicit InferenceSession(const ExplainTiModel& model);

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  bool HasTask(TaskKind kind) const { return model_->HasTask(kind); }
  const ExplainTiConfig& config() const { return model_->config(); }
  const TaskData& task_data(TaskKind kind) const {
    return model_->task_data(kind);
  }

  /// Predicted label ids for one sample (no explanation overhead).
  std::vector<int> Predict(TaskKind kind, int sample_id) const;

  /// Per-label sigma outputs for one sample (probabilities).
  std::vector<float> PredictProbabilities(TaskKind kind, int sample_id) const;

  /// Prediction plus the multi-view explanation set Z.
  Explanation Explain(TaskKind kind, int sample_id) const;

  /// Batched Predict: one label vector per entry of `sample_ids`, fanned
  /// out across the pool (each chunk under its own guard/workspace).
  /// Outputs are bit-identical to per-sample Predict — every sample still
  /// runs the same single-sample forward with its own InferenceSeed RNG,
  /// so results do not depend on batch composition or thread count. This
  /// is the dispatch point for the serve::InferenceServer micro-batcher.
  std::vector<std::vector<int>> PredictBatch(
      TaskKind kind, const std::vector<int>& sample_ids) const;

  /// Batched PredictProbabilities; same contract as PredictBatch.
  std::vector<std::vector<float>> PredictProbabilitiesBatch(
      TaskKind kind, const std::vector<int>& sample_ids) const;

  /// Batched Explain; same contract as PredictBatch. Each returned
  /// Explanation carries its own per-sample ANN degradation flag/note —
  /// batching never drops the annotation.
  std::vector<Explanation> ExplainBatch(
      TaskKind kind, const std::vector<int>& sample_ids) const;

  /// [CLS] embeddings for `sample_ids`, encoded in parallel across the
  /// pool (each worker under its own guard/workspace). Feeds the GE/SE
  /// embedding-store rebuilds.
  std::vector<std::vector<float>> EncodeBatch(
      TaskKind kind, const std::vector<int>& sample_ids) const;

  /// Test/valid/train F1 for one task, predictions fanned out across the
  /// pool.
  eval::F1Scores Evaluate(TaskKind kind, data::SplitPart part) const;

  /// True when this session serves from compiled plans (mode is not off
  /// and every plan built).
  bool plans_enabled() const {
    return !type_plans_.empty() || !relation_plans_.empty();
  }

  PlanMode plan_mode() const { return plan_mode_; }

  /// The compiled plan that would serve `sample_id`, or null when the
  /// session is in graph-walk mode (or the sample's shape has no plan —
  /// which, by eager construction over the task data, only happens for
  /// out-of-range ids).
  const InferencePlan* PlanFor(TaskKind kind, int sample_id) const;

  PlanStats plan_stats() const {
    PlanStats s;
    s.plans_built = plans_built_;
    s.plan_runs = plan_runs_.load(std::memory_order_relaxed);
    s.graph_runs = graph_runs_.load(std::memory_order_relaxed);
    return s;
  }

  PrecisionMode precision_mode() const { return precision_policy_; }

  /// The precision calls actually serve at right now ("fp32"/"int8"/
  /// "mixed"); static storage, stable for the session's lifetime between
  /// weight-mutating calls.
  const char* served_precision() const;

  /// OK while the requested tier is armed (or the policy is fp32); a
  /// typed error explaining why the session failed closed to fp32
  /// otherwise (quantization fault, calibration rejected everything,
  /// verify mode forcing the reference path).
  const util::Status& precision_status() const { return precision_status_; }

  PrecisionStats precision_stats() const;

  /// Drops the quantized tier and serves fp32 until ReloadWeights(); the
  /// model calls this at Fit() entry so training-time evaluation is
  /// always the bit-exact fp32 path. Idempotent; no-op when no tier is
  /// armed.
  void SuspendQuantizedTier();

  /// Re-arms the precision policy after the model's weights changed
  /// (Fit() end, LoadWeights()). fp32 policy: no-op — fp32 plans borrow
  /// the model's storage and are never stale. int8 policy with a live
  /// tier: re-quantizes the int8 bytes in place WITHOUT rebuilding plans
  /// (plans borrow the session's quantized storage by pointer, so the
  /// rewrite is all they need). Mixed policy (or a tier that previously
  /// failed / was suspended): full rebuild + recalibration.
  void ReloadWeights();

 private:
  /// Lowers the model and compiles the plan set, then arms the quantized
  /// tier when the policy asks for one; on fp32-build failure drops every
  /// plan and leaves the session on the graph walk, on quantized-tier
  /// failure fails closed to the all-fp32 plan set with a typed
  /// precision_status_.
  void BuildPlans();

  /// Compiles one plan per distinct (task, seq_len, has_segments) key,
  /// quantized per the session's current mask when `quantized`. All or
  /// nothing: on error the plan maps are left empty.
  util::Status BuildPlanSet(const nn::EncoderLowering& lowered,
                            bool quantized);

  /// Quantizes the frozen weights, calibrates the mixed-mode mask, and
  /// rebuilds the plan set quantized. On error the caller fails closed.
  util::Status BuildQuantizedTier(const nn::EncoderLowering& lowered);

  /// Mixed mode: per-layer (and head) agreement probe against `baseline`
  /// (the fp32 plan-head predictions on the calibration slice).
  util::Status CalibrateQuantMask(
      const nn::EncoderLowering& lowered,
      const std::vector<std::pair<TaskKind, int>>& slice,
      const std::vector<std::vector<int>>& baseline);

  /// Base-head predicted labels straight off the compiled plan (no
  /// stores, no structural tail) — the calibration signal.
  std::vector<int> PlanHeadLabels(TaskKind kind, int sample_id) const;

  /// Fraction of `slice` whose PlanHeadLabels match `baseline` under the
  /// currently-installed plan set.
  double AgreementOnSlice(
      const std::vector<std::pair<TaskKind, int>>& slice,
      const std::vector<std::vector<int>>& baseline) const;

  /// Releases quantized weight storage and resets the mask/counters —
  /// and drops every installed plan with it, since int8 plans borrow the
  /// storage by pointer.
  void DropQuantState();

  /// Runs `plan`'s encoder range for `sample` and wraps the first `rows`
  /// rows of its output as a workspace tensor for the RunForward tail:
  /// E [L, d] when rows == L, or just the [CLS] row [1, d] when rows == 1
  /// (RunPlan then computes only that row through the last layer). Caller
  /// must hold an InferenceModeGuard.
  tensor::Tensor PlanEncode(const InferencePlan& plan,
                            const TaskSample& sample, int64_t rows) const;

  /// Single-sample forward through the plan path: compiled encoder, then
  /// the shared RunForward tail (SE/LE/GE/head). Without `with_local` the
  /// encoder output handed to the tail is the [CLS] row alone. In kVerify
  /// mode also runs the full graph walk and CHECKs the computed encoder
  /// rows and the final logits are bit-identical.
  ExplainTiModel::Forward PlanForward(TaskKind kind, int sample_id,
                                      const InferencePlan& plan,
                                      util::Rng& rng, bool with_local,
                                      bool with_global) const;

  /// Final logits for one sample on whichever path the session serves
  /// from — the shared core of Predict/PredictProbabilities. When the
  /// model runs without structural explanations the compiled plan covers
  /// the classifier head too, so this is the zero-dispatch path.
  std::vector<float> FinalLogits(TaskKind kind, int sample_id) const;

  const ExplainTiModel* model_;
  PlanMode plan_mode_ = PlanMode::kOn;
  /// Keyed by seq_len * 2 + has_segments; mutated only by the
  /// weights-lifecycle calls (construction, SuspendQuantizedTier,
  /// ReloadWeights), which the session contract already serializes
  /// against serving.
  std::unordered_map<int64_t, InferencePlan> type_plans_;
  std::unordered_map<int64_t, InferencePlan> relation_plans_;
  int64_t plans_built_ = 0;
  mutable std::atomic<int64_t> plan_runs_{0};
  mutable std::atomic<int64_t> graph_runs_{0};

  // -- Quantized tier state (see class comment "Precision tiers") --------
  PrecisionMode precision_policy_ = PrecisionMode::kFp32;
  bool suppress_quant_ = false;  ///< Armed by SuspendQuantizedTier().
  util::Status precision_status_;
  /// Quantized weight storage the int8 plan instructions borrow by
  /// pointer; pointer-stable across ReloadWeights()'s in-place
  /// re-quantization fast path.
  std::unique_ptr<nn::QuantizedEncoder> qencoder_;
  std::unique_ptr<nn::QuantizedLinear> qhead_type_;
  std::unique_ptr<nn::QuantizedLinear> qhead_relation_;
  std::vector<uint8_t> layer_int8_;  ///< Per-layer bit; 0 = fp32 fallback.
  bool head_int8_ = false;
  /// True when the installed plan set actually contains int8 GEMMs.
  bool quantized_active_ = false;
};

/// Loads a complete serving replica for a model hot-swap: constructs a
/// fresh ExplainTiModel, loads the checkpoint at `weights_path`, and
/// warms its GE/SE embedding stores — entirely off to the side, touching
/// no live state, so the currently-serving model keeps answering while
/// the replica loads. On success the replica's session() is ready to hand
/// to serve::InferenceServer::SwapSession (with freshly compiled plans of
/// its own — plans are per-session, so the drained generation's plans die
/// with it); on any failure (unreadable or corrupt checkpoint, or the
/// "swap.load_weights" chaos fault) the error Status is returned and
/// there is nothing to roll back — the caller simply keeps the old
/// generation.
util::StatusOr<std::unique_ptr<ExplainTiModel>> LoadReplicaForSwap(
    const ExplainTiConfig& config, const data::TableCorpus& corpus,
    const std::string& weights_path);

}  // namespace explainti::core

#endif  // EXPLAINTI_CORE_INFERENCE_SESSION_H_
