#include "core/inference_plan.h"

#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/explain_ti_model.h"
#include "core/inference_session.h"
#include "data/wiki_generator.h"
#include "golden_evidence.h"
#include "nn/encoder.h"
#include "nn/linear.h"
#include "nn/lowering.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"
#include "util/alloc_counter.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace explainti::core {
namespace {

// Pins EXPLAINTI_PLAN for one model construction and restores the outer
// environment after — the mode is latched in the session constructor, so
// scoping the variable around the ctor is enough.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

class GlobalPoolGuard {
 public:
  GlobalPoolGuard() = default;
  ~GlobalPoolGuard() {
    util::SetGlobalThreadCount(util::ConfiguredThreadCount());
  }
};

// Arms one fault site for the scope (mirrors the serve chaos harness).
class ArmedFault {
 public:
  explicit ArmedFault(const std::string& site) {
    util::fault::FaultSpec spec;
    spec.kind = util::fault::FaultKind::kError;
    spec.code = util::StatusCode::kInternal;
    spec.message = "chaos: " + site;
    util::fault::FaultRegistry::Instance().Arm(site, spec);
  }
  ~ArmedFault() { util::fault::FaultRegistry::Instance().DisarmAll(); }
};

data::TableCorpus TinyCorpus() {
  data::WikiTableOptions options;
  options.num_tables = 28;
  return data::GenerateWikiTableCorpus(options);
}

ExplainTiConfig TinyConfig() {
  ExplainTiConfig config;
  config.base_model = "bert";
  config.sample_size = 4;
  config.top_k = 3;
  return config;
}

void ExpectBitEqual(const std::vector<float>& a, const std::vector<float>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << what;
  }
}

uint32_t Bits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Full structural comparison of two explanations: prediction, LE windows,
// GE retrievals, and SE neighbours must all match bit for bit between the
// compiled-plan path and the graph walk.
void ExpectExplanationsBitEqual(const Explanation& want,
                                const Explanation& got) {
  EXPECT_EQ(want.predicted_labels, got.predicted_labels);
  ExpectBitEqual(want.probabilities, got.probabilities, "probabilities");
  ASSERT_EQ(want.local.size(), got.local.size());
  for (size_t i = 0; i < want.local.size(); ++i) {
    EXPECT_EQ(want.local[i].window_start, got.local[i].window_start);
    EXPECT_EQ(want.local[i].window_end, got.local[i].window_end);
    EXPECT_EQ(Bits(want.local[i].relevance), Bits(got.local[i].relevance))
        << "LE relevance at " << i;
  }
  ASSERT_EQ(want.global.size(), got.global.size());
  for (size_t i = 0; i < want.global.size(); ++i) {
    EXPECT_EQ(want.global[i].train_sample_id, got.global[i].train_sample_id);
    EXPECT_EQ(Bits(want.global[i].influence), Bits(got.global[i].influence))
        << "GE influence at " << i;
  }
  ASSERT_EQ(want.structural.size(), got.structural.size());
  for (size_t i = 0; i < want.structural.size(); ++i) {
    EXPECT_EQ(want.structural[i].neighbor_sample_id,
              got.structural[i].neighbor_sample_id);
    EXPECT_EQ(Bits(want.structural[i].attention),
              Bits(got.structural[i].attention))
        << "SE attention at " << i;
  }
  EXPECT_EQ(want.ann_degraded, got.ann_degraded);
}

std::vector<int> SampleIds(const TaskData& task) {
  std::vector<int> ids;
  const int n = static_cast<int>(task.samples.size());
  for (int id = 0; id < n && static_cast<int>(ids.size()) < 6; id += 3) {
    ids.push_back(id);
  }
  return ids;
}

// -- Golden bit-equality: compiled plans vs the graph walk -----------------

// Two sessions over identical weights (same seed, same corpus), one
// serving from compiled plans, one forced onto the graph walk: every
// serving method must agree bit for bit on every sample of every task.
// Without LE (use_local off) Explain, like Predict, hands the tail only
// the [CLS] row.
TEST(InferencePlanTest, PlanServesBitIdenticalToGraphWalk) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(2);
  const data::TableCorpus corpus = TinyCorpus();
  for (bool use_local : {true, false}) {
    SCOPED_TRACE(use_local ? "with LE" : "without LE");
    ExplainTiConfig config = TinyConfig();
    config.use_local = use_local;
    auto plan_model = [&] {
      ScopedEnv env("EXPLAINTI_PLAN", "on");
      return std::make_unique<ExplainTiModel>(config, corpus);
    }();
    auto graph_model = [&] {
      ScopedEnv env("EXPLAINTI_PLAN", "off");
      return std::make_unique<ExplainTiModel>(config, corpus);
    }();
    plan_model->RefreshStores();
    graph_model->RefreshStores();
    const InferenceSession& plan = plan_model->session();
    const InferenceSession& graph = graph_model->session();
    ASSERT_TRUE(plan.plans_enabled());
    ASSERT_GT(plan.plan_stats().plans_built, 0);
    ASSERT_FALSE(graph.plans_enabled());

    for (TaskKind kind : {TaskKind::kType, TaskKind::kRelation}) {
      if (!plan.HasTask(kind)) continue;
      const std::vector<int> ids = SampleIds(plan.task_data(kind));
      for (int id : ids) {
        EXPECT_EQ(plan.Predict(kind, id), graph.Predict(kind, id))
            << "Predict diverged, sample " << id;
        ExpectBitEqual(plan.PredictProbabilities(kind, id),
                       graph.PredictProbabilities(kind, id),
                       "PredictProbabilities");
        ExpectExplanationsBitEqual(graph.Explain(kind, id),
                                   plan.Explain(kind, id));
      }
      const auto plan_embs = plan.EncodeBatch(kind, ids);
      const auto graph_embs = graph.EncodeBatch(kind, ids);
      ASSERT_EQ(plan_embs.size(), graph_embs.size());
      for (size_t i = 0; i < plan_embs.size(); ++i) {
        ExpectBitEqual(plan_embs[i], graph_embs[i], "EncodeBatch");
      }
    }
    EXPECT_GT(plan.plan_stats().plan_runs, 0);
    EXPECT_EQ(plan.plan_stats().graph_runs, 0)
        << "a sample unexpectedly fell back to the graph walk";
    EXPECT_GT(graph.plan_stats().graph_runs, 0);
    EXPECT_EQ(graph.plan_stats().plan_runs, 0);
  }
}

// With structural explanations off the plan folds the classifier head in
// and Predict never touches the tensor graph at all; outputs must still
// match the graph walk bit for bit.
TEST(InferencePlanTest, FullPlanWithFoldedHeadWhenStructuralOff) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  ExplainTiConfig config = TinyConfig();
  config.use_structural = false;
  auto plan_model = [&] {
    ScopedEnv env("EXPLAINTI_PLAN", "on");
    return std::make_unique<ExplainTiModel>(config, corpus);
  }();
  auto graph_model = [&] {
    ScopedEnv env("EXPLAINTI_PLAN", "off");
    return std::make_unique<ExplainTiModel>(config, corpus);
  }();
  const InferenceSession& plan = plan_model->session();
  ASSERT_TRUE(plan.plans_enabled());

  const std::vector<int> ids = SampleIds(plan.task_data(TaskKind::kType));
  const InferencePlan* compiled = plan.PlanFor(TaskKind::kType, ids.front());
  ASSERT_NE(compiled, nullptr);
  EXPECT_GE(compiled->logits_off, 0) << "head was not folded into the plan";
  EXPECT_GT(compiled->num_labels, 0);

  for (int id : ids) {
    EXPECT_EQ(plan.Predict(TaskKind::kType, id),
              graph_model->session().Predict(TaskKind::kType, id));
    ExpectBitEqual(
        plan.PredictProbabilities(TaskKind::kType, id),
        graph_model->session().PredictProbabilities(TaskKind::kType, id),
        "folded-head probabilities");
  }
}

// -- Plan keying: per task, per sequence length ----------------------------

// Switching task mid-stream must select the right compiled plan each
// call: plans are keyed per (task, seq_len), so interleaved type/relation
// traffic answers exactly like two separate per-task streams.
TEST(InferencePlanTest, TaskSwitchMidStreamSelectsTheRightPlan) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  ScopedEnv env("EXPLAINTI_PLAN", "on");
  ExplainTiModel model(TinyConfig(), corpus);
  const InferenceSession& session = model.session();
  ASSERT_TRUE(session.plans_enabled());
  if (!session.HasTask(TaskKind::kRelation)) {
    GTEST_SKIP() << "corpus produced no relation task";
  }

  const std::vector<int> type_ids = SampleIds(session.task_data(TaskKind::kType));
  const std::vector<int> rel_ids =
      SampleIds(session.task_data(TaskKind::kRelation));

  // Each sample's plan matches its own shape (the relation serialization
  // differs from the type one, so the two tasks genuinely exercise
  // distinct plans even at equal lengths — head widths differ).
  for (int id : type_ids) {
    const InferencePlan* p = session.PlanFor(TaskKind::kType, id);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->seq_len,
              static_cast<int64_t>(session.task_data(TaskKind::kType)
                                       .samples[static_cast<size_t>(id)]
                                       .seq.ids.size()));
  }
  ASSERT_NE(session.PlanFor(TaskKind::kType, type_ids.front()),
            session.PlanFor(TaskKind::kRelation, rel_ids.front()))
      << "type and relation traffic share one plan object";

  // Per-task reference results from task-homogeneous streams...
  std::vector<std::vector<float>> want_type, want_rel;
  for (int id : type_ids) {
    want_type.push_back(session.PredictProbabilities(TaskKind::kType, id));
  }
  for (int id : rel_ids) {
    want_rel.push_back(session.PredictProbabilities(TaskKind::kRelation, id));
  }
  // ...must be reproduced exactly by an interleaved stream.
  const size_t rounds = std::max(type_ids.size(), rel_ids.size());
  for (size_t i = 0; i < rounds; ++i) {
    if (i < type_ids.size()) {
      ExpectBitEqual(session.PredictProbabilities(TaskKind::kType, type_ids[i]),
                     want_type[i], "interleaved type");
    }
    if (i < rel_ids.size()) {
      ExpectBitEqual(
          session.PredictProbabilities(TaskKind::kRelation, rel_ids[i]),
          want_rel[i], "interleaved relation");
    }
  }
}

// Batch composition must not affect results: a sample served alone, in a
// full batch, or per-sample gives identical bits (each plan execution is
// independent — per-thread arenas, no cross-sample state).
TEST(InferencePlanTest, BatchSizeOneMatchesFullBatch) {
  GlobalPoolGuard guard;
  const data::TableCorpus corpus = TinyCorpus();
  ScopedEnv env("EXPLAINTI_PLAN", "on");
  ExplainTiModel model(TinyConfig(), corpus);
  model.RefreshStores();
  const InferenceSession& session = model.session();
  ASSERT_TRUE(session.plans_enabled());
  const std::vector<int> ids = SampleIds(session.task_data(TaskKind::kType));

  util::SetGlobalThreadCount(4);
  const auto full = session.PredictProbabilitiesBatch(TaskKind::kType, ids);
  ASSERT_EQ(full.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const auto single =
        session.PredictProbabilitiesBatch(TaskKind::kType, {ids[i]});
    ASSERT_EQ(single.size(), 1u);
    ExpectBitEqual(single[0], full[i], "batch=1 vs full batch");
    util::SetGlobalThreadCount(1);
    ExpectBitEqual(session.PredictProbabilities(TaskKind::kType, ids[i]),
                   full[i], "per-sample vs full batch");
    util::SetGlobalThreadCount(4);
  }
}

// -- Fallback and mode selection -------------------------------------------

// A failed plan build (here: the plan.build chaos fault) must degrade the
// session to the graph walk — same answers, zero plans, no error.
TEST(InferencePlanTest, BuildFaultFallsBackToGraphWalkBitIdentically) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  auto reference = [&] {
    ScopedEnv env("EXPLAINTI_PLAN", "on");
    return std::make_unique<ExplainTiModel>(TinyConfig(), corpus);
  }();
  ASSERT_TRUE(reference->session().plans_enabled());

  auto faulted = [&] {
    ScopedEnv env("EXPLAINTI_PLAN", "on");
    ArmedFault fault("plan.build");
    return std::make_unique<ExplainTiModel>(TinyConfig(), corpus);
  }();
  const InferenceSession& degraded = faulted->session();
  EXPECT_FALSE(degraded.plans_enabled());
  EXPECT_EQ(degraded.plan_stats().plans_built, 0);
  EXPECT_EQ(degraded.PlanFor(TaskKind::kType, 0), nullptr);

  for (int id : SampleIds(degraded.task_data(TaskKind::kType))) {
    ExpectBitEqual(degraded.PredictProbabilities(TaskKind::kType, id),
                   reference->session().PredictProbabilities(TaskKind::kType,
                                                             id),
                   "faulted-session probabilities");
  }
  EXPECT_GT(degraded.plan_stats().graph_runs, 0);
  EXPECT_EQ(degraded.plan_stats().plan_runs, 0);
}

TEST(InferencePlanTest, EnvOffDisablesPlans) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  ScopedEnv env("EXPLAINTI_PLAN", "off");
  ExplainTiModel model(TinyConfig(), corpus);
  const InferenceSession& session = model.session();
  EXPECT_FALSE(session.plans_enabled());
  EXPECT_EQ(session.plan_mode(), InferenceSession::PlanMode::kOff);
  EXPECT_FALSE(session.Predict(TaskKind::kType, 0).empty());
  EXPECT_GT(session.plan_stats().graph_runs, 0);
}

// Verify mode runs both paths per call and CHECK-fails the process on any
// bit divergence — so simply serving a few calls is the assertion.
// Predict and PredictProbabilities compute only the [CLS] row through the
// last layer (the structural head via PlanForward, or the folded head),
// Explain computes every row for LE, and EncodeBatch the [CLS] row; verify
// mode compares exactly the rows each call computed.
TEST(InferencePlanTest, VerifyModeCrossChecksEveryCall) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  for (bool structural : {true, false}) {
    ExplainTiConfig config = TinyConfig();
    config.use_structural = structural;
    ScopedEnv env("EXPLAINTI_PLAN", "verify");
    ExplainTiModel model(config, corpus);
    model.RefreshStores();
    const InferenceSession& session = model.session();
    ASSERT_TRUE(session.plans_enabled());
    EXPECT_EQ(session.plan_mode(), InferenceSession::PlanMode::kVerify);

    const std::vector<int> ids =
        SampleIds(session.task_data(TaskKind::kType));
    for (int id : ids) {
      session.Predict(TaskKind::kType, id);
      session.PredictProbabilities(TaskKind::kType, id);
      session.Explain(TaskKind::kType, id);
    }
    session.EncodeBatch(TaskKind::kType, ids);
    EXPECT_GT(session.plan_stats().plan_runs, 0);
  }
}

// -- [CLS]-only runs: the last layer computes row 0 alone ------------------

// Runs `plan` three ways: every encoder row plus logits, the [CLS] row
// plus logits, and logits alone. The two [CLS]-only runs must reproduce
// row 0 and the logits of the full run bit for bit.
void ExpectClsOnlyRunMatchesFullRun(const InferencePlan& plan,
                                    const std::vector<int>& ids,
                                    const std::vector<int>& segments,
                                    const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(static_cast<int64_t>(ids.size()), plan.seq_len);
  const size_t d = static_cast<size_t>(plan.d_model);
  const size_t labels = static_cast<size_t>(plan.num_labels);
  PlanRun run;
  run.token_ids = ids.data();
  run.segment_ids = plan.has_segments ? segments.data() : nullptr;

  std::vector<float> full(static_cast<size_t>(plan.seq_len) * d);
  std::vector<float> full_logits(labels);
  run.encoder_out = full.data();
  run.encoder_out_rows = plan.seq_len;
  run.logits = full_logits.data();
  RunPlan(plan, run);

  std::vector<float> cls(d);
  std::vector<float> cls_logits(labels);
  run.encoder_out = cls.data();
  run.encoder_out_rows = 1;
  run.logits = cls_logits.data();
  RunPlan(plan, run);

  std::vector<float> only_logits(labels);
  run.encoder_out = nullptr;
  run.encoder_out_rows = 0;
  run.logits = only_logits.data();
  RunPlan(plan, run);

  ExpectBitEqual(std::vector<float>(full.begin(), full.begin() + d), cls,
                 "[CLS] row");
  ExpectBitEqual(full_logits, cls_logits, "logits with the [CLS] row");
  ExpectBitEqual(full_logits, only_logits, "logits alone");
}

// Number of instructions a [CLS]-only run shortens.
int CountClsLimited(const InferencePlan& plan) {
  int limited = 0;
  for (const PlanInstr& instr : plan.instrs) {
    if (instr.cls_rows < instr.m) ++limited;
  }
  return limited;
}

// Every plan key the sessions compiled — fp32 and int8, both tasks — and
// standalone plans down to L = 1.
TEST(InferencePlanTest, ClsOnlyRunMatchesFullRunOnEveryPlanKey) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  for (const char* precision : {"fp32", "int8"}) {
    ScopedEnv plan_env("EXPLAINTI_PLAN", "on");
    ScopedEnv prec_env("EXPLAINTI_PRECISION", precision);
    ExplainTiModel model(TinyConfig(), corpus);
    const InferenceSession& session = model.session();
    ASSERT_TRUE(session.plans_enabled());
    ASSERT_STREQ(session.served_precision(), precision);
    std::set<const InferencePlan*> seen;
    for (TaskKind kind : {TaskKind::kType, TaskKind::kRelation}) {
      if (!session.HasTask(kind)) continue;
      const TaskData& task = session.task_data(kind);
      for (size_t id = 0; id < task.samples.size(); ++id) {
        const InferencePlan* plan =
            session.PlanFor(kind, static_cast<int>(id));
        ASSERT_NE(plan, nullptr);
        if (!seen.insert(plan).second) continue;
        EXPECT_EQ(plan->int8_gemms > 0, std::string(precision) == "int8");
        EXPECT_GT(CountClsLimited(*plan), 0);
        ExpectClsOnlyRunMatchesFullRun(
            *plan, task.samples[id].seq.ids, task.samples[id].seq.segments,
            std::string(precision) + " seq_len " +
                std::to_string(plan->seq_len));
      }
    }
    EXPECT_GT(seen.size(), 1u);
  }

  // Standalone plans over a fresh encoder: L = 1 (which no task sample
  // has) up to a few rows, fp32 and all-int8, the [CLS] row also checked
  // against the graph walk.
  nn::TransformerConfig config;
  config.vocab_size = 40;
  util::Rng rng(11);
  nn::TransformerEncoder encoder(config, rng);
  nn::Linear head(config.d_model, 5, rng);
  const nn::EncoderLowering lowered = nn::LowerEncoder(encoder);
  const nn::LinearLowering head_lowered = nn::LowerLinear(head);
  const nn::QuantizedEncoder qencoder = nn::QuantizeEncoder(lowered);
  const nn::QuantizedLinear qhead = nn::QuantizeLinear(head_lowered);
  PlanQuantSpec int8_spec;
  int8_spec.encoder = &qencoder;
  int8_spec.head = &qhead;
  for (int64_t len : {1, 2, 5}) {
    std::vector<int> ids, segments;
    for (int64_t i = 0; i < len; ++i) {
      ids.push_back(static_cast<int>(rng.UniformInt(uint64_t{40})));
      segments.push_back(2 * i < len ? 0 : 1);
    }
    for (const PlanQuantSpec* spec : {static_cast<PlanQuantSpec*>(nullptr),
                                      &int8_spec}) {
      util::StatusOr<InferencePlan> plan = BuildInferencePlan(
          lowered, &head_lowered, len, /*has_segments=*/true, spec);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      EXPECT_EQ(CountClsLimited(*plan) > 0, len > 1);
      ExpectClsOnlyRunMatchesFullRun(
          *plan, ids, segments,
          std::string(spec != nullptr ? "int8" : "fp32") + " L=" +
              std::to_string(len));
      if (spec != nullptr) continue;
      std::vector<float> cls(static_cast<size_t>(plan->d_model));
      PlanRun run;
      run.token_ids = ids.data();
      run.segment_ids = segments.data();
      run.encoder_out = cls.data();
      run.encoder_out_rows = 1;
      RunPlan(*plan, run);
      tensor::InferenceModeGuard mode;
      const tensor::Tensor hidden =
          encoder.Forward(ids, segments, nn::ExecContext::Inference());
      ExpectBitEqual(tensor::Row(hidden, 0).ToVector(), cls,
                     "[CLS] row vs graph walk");
    }
  }
}

// -- Hot-swap: plans are per-generation ------------------------------------

// A swap replica compiles its own plans (the old generation's die with
// its session), and serves the reloaded weights bit-identically.
TEST(InferencePlanTest, HotSwapReplicaGetsFreshPlans) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  ScopedEnv env("EXPLAINTI_PLAN", "on");
  ExplainTiModel model(TinyConfig(), corpus);
  model.RefreshStores();
  const std::string path = ::testing::TempDir() + "/plan_swap_weights.bin";
  ASSERT_TRUE(model.SaveWeights(path).ok());

  auto replica = LoadReplicaForSwap(TinyConfig(), corpus, path);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  const InferenceSession& fresh = (*replica)->session();
  ASSERT_TRUE(fresh.plans_enabled());
  EXPECT_GT(fresh.plan_stats().plans_built, 0);

  const std::vector<int> ids = SampleIds(model.task_data(TaskKind::kType));
  // Distinct plan objects per generation — the replica did not inherit
  // (or dangle into) the old session's cache.
  EXPECT_NE(fresh.PlanFor(TaskKind::kType, ids.front()),
            model.session().PlanFor(TaskKind::kType, ids.front()));
  for (int id : ids) {
    ExpectBitEqual(fresh.PredictProbabilities(TaskKind::kType, id),
                   model.session().PredictProbabilities(TaskKind::kType, id),
                   "replica probabilities");
  }
}

// -- Steady state: zero allocations, zero arena misses ---------------------

// The executor's whole scratch arena comes from the per-thread workspace
// pool: once warmed, RunPlan performs zero heap allocations and never
// misses the buffer pool.
TEST(InferencePlanTest, SteadyStateRunPlanIsZeroAlloc) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  ScopedEnv env("EXPLAINTI_PLAN", "on");
  ExplainTiModel model(TinyConfig(), corpus);
  const InferenceSession& session = model.session();
  ASSERT_TRUE(session.plans_enabled());

  const TaskData& task = session.task_data(TaskKind::kType);
  const int id = SampleIds(task).front();
  const InferencePlan* plan = session.PlanFor(TaskKind::kType, id);
  ASSERT_NE(plan, nullptr);
  const TaskSample& sample = task.samples[static_cast<size_t>(id)];

  std::vector<float> encoder_out(
      static_cast<size_t>(plan->seq_len * plan->d_model));
  std::vector<float> logits(static_cast<size_t>(plan->num_labels));
  ASSERT_GE(plan->logits_off, 0);
  // Every row, the [CLS] row alone, and logits alone: the last two run
  // the [CLS]-only last layer.
  for (int64_t rows : {plan->seq_len, int64_t{1}, int64_t{0}}) {
    SCOPED_TRACE("encoder_out_rows " + std::to_string(rows));
    PlanRun run;
    run.token_ids = sample.seq.ids.data();
    run.segment_ids =
        plan->has_segments ? sample.seq.segments.data() : nullptr;
    run.encoder_out = rows > 0 ? encoder_out.data() : nullptr;
    run.encoder_out_rows = rows;
    run.logits = logits.data();

    RunPlan(*plan, run);  // Warm-up: seeds the arena bucket.
    RunPlan(*plan, run);

    const tensor::WorkspaceStats ws_before =
        tensor::ThisThreadWorkspaceStats();
    const util::AllocCounts heap_before = util::ThisThreadAllocCounts();
    for (int i = 0; i < 16; ++i) RunPlan(*plan, run);
    const util::AllocCounts heap_after = util::ThisThreadAllocCounts();
    const tensor::WorkspaceStats ws_after =
        tensor::ThisThreadWorkspaceStats();

    EXPECT_EQ(heap_after.allocations - heap_before.allocations, 0u)
        << "warmed-up RunPlan allocated on the heap";
    EXPECT_EQ(ws_after.buffer_misses, ws_before.buffer_misses)
        << "warmed-up RunPlan missed the workspace buffer pool";
    EXPECT_GT(ws_after.buffer_acquires, ws_before.buffer_acquires);
  }
}

// -- Golden evidence: every fp32 path tells the same story -----------------

// The shared golden-evidence fixture (tests/golden_evidence.h) pins the
// explanation evidence across serving configurations: the compiled plan
// path, the graph walk, and an explicit EXPLAINTI_PRECISION=fp32 session
// must surface identical top-window token sets on the golden samples.
// (The quantized gate in quantized_test.cc scores int8 sessions against
// the same fixture with a tolerance; the fp32 paths get none.)
TEST(InferencePlanTest, GoldenEvidenceAgreesAcrossFp32Paths) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = explainti::testing::GoldenCorpus();
  auto plan_model = [&] {
    ScopedEnv env("EXPLAINTI_PLAN", "on");
    return std::make_unique<ExplainTiModel>(explainti::testing::GoldenConfig(),
                                            corpus);
  }();
  auto graph_model = [&] {
    ScopedEnv env("EXPLAINTI_PLAN", "off");
    return std::make_unique<ExplainTiModel>(explainti::testing::GoldenConfig(),
                                            corpus);
  }();
  auto fp32_model = [&] {
    ScopedEnv plan_env("EXPLAINTI_PLAN", "on");
    ScopedEnv prec_env("EXPLAINTI_PRECISION", "fp32");
    return std::make_unique<ExplainTiModel>(explainti::testing::GoldenConfig(),
                                            corpus);
  }();
  plan_model->RefreshStores();
  graph_model->RefreshStores();
  fp32_model->RefreshStores();
  ASSERT_STREQ(fp32_model->session().served_precision(), "fp32");

  for (TaskKind kind : {TaskKind::kType, TaskKind::kRelation}) {
    if (!plan_model->session().HasTask(kind)) continue;
    const auto want =
        explainti::testing::GoldenEvidence(graph_model->session(), kind);
    ASSERT_FALSE(want.empty());
    ASSERT_FALSE(want.front().empty()) << "golden sample produced no evidence";
    const auto from_plan =
        explainti::testing::GoldenEvidence(plan_model->session(), kind);
    const auto from_fp32 =
        explainti::testing::GoldenEvidence(fp32_model->session(), kind);
    // fp32 paths are bit-identical, so evidence agreement is exact — the
    // Jaccard tolerance exists only for the quantized tier.
    EXPECT_EQ(explainti::testing::MeanEvidenceAgreement(want, from_plan), 1.0);
    EXPECT_EQ(explainti::testing::MeanEvidenceAgreement(want, from_fp32), 1.0);
    EXPECT_EQ(want, from_plan);
    EXPECT_EQ(want, from_fp32);
  }
}

}  // namespace
}  // namespace explainti::core
