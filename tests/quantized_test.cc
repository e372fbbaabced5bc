// Precision-tiered serving: int8 kernels, quantized plan builds, the
// accuracy-driven mixed mode, fail-closed fallback, and the weight-update
// lifecycle (quantize once, re-quantize in place).

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/explain_ti_model.h"
#include "core/inference_plan.h"
#include "core/inference_session.h"
#include "data/wiki_generator.h"
#include "golden_evidence.h"
#include "nn/lowering.h"
#include "tensor/plan_kernels.h"
#include "tensor/quant.h"
#include "tensor/workspace.h"
#include "util/alloc_counter.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace explainti::core {
namespace {

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

data::TableCorpus TinyCorpus() { return explainti::testing::GoldenCorpus(); }
ExplainTiConfig TinyConfig() { return explainti::testing::GoldenConfig(); }

void ExpectBitEqual(const std::vector<float>& a, const std::vector<float>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << what;
  }
}

// -- Kernel level: quantization scheme and the int8 GEMM -------------------

// Symmetric per-column weight quantization reconstructs within one scale
// step per element, and the cached column sums match a direct count.
TEST(QuantizedKernelTest, WeightQuantizationRoundTripsWithinOneStep) {
  util::Rng rng(7);
  const int64_t rows = 37, cols = 19;
  std::vector<float> w(static_cast<size_t>(rows * cols));
  for (float& v : w) v = rng.Uniform(-2.5f, 2.5f);

  const tensor::QuantizedMatrix q =
      tensor::QuantizeWeightMatrix(w.data(), rows, cols);
  ASSERT_EQ(q.rows, rows);
  ASSERT_EQ(q.cols, cols);
  ASSERT_EQ(q.params.scales.size(), static_cast<size_t>(cols));
  ASSERT_EQ(q.col_sums.size(), static_cast<size_t>(cols));

  for (int64_t j = 0; j < cols; ++j) {
    EXPECT_EQ(q.params.zero_points[static_cast<size_t>(j)], 0)
        << "weights are symmetric";
    const float scale = q.params.scales[static_cast<size_t>(j)];
    int32_t sum = 0;
    for (int64_t i = 0; i < rows; ++i) {
      const int8_t qv = q.data[static_cast<size_t>(i * cols + j)];
      sum += qv;
      const float back = static_cast<float>(qv) * scale;
      EXPECT_NEAR(back, w[static_cast<size_t>(i * cols + j)], scale * 0.5f + 1e-6f);
      EXPECT_GE(qv, -127);  // Symmetric clamp: -128 never appears.
    }
    EXPECT_EQ(sum, q.col_sums[static_cast<size_t>(j)]);
  }
}

// QuantizeRowsInt8 must equal, bit for bit, the per-row formula its
// header documents, computed here with plain scalar code, whichever body
// the CPU dispatch selects. Rows cover every k % 8 tail, a strided view,
// a constant row, signed zeros, a tight cluster far from zero (whose
// scaled values leave the int32 range) and a NaN.
TEST(QuantizedKernelTest, QuantizeRowsMatchesScalarFormula) {
  util::Rng rng(23);
  std::vector<std::vector<float>> rows;
  for (int64_t k : {1, 3, 7, 8, 9, 16, 37, 64, 70, 128}) {
    std::vector<float> row(static_cast<size_t>(k));
    for (float& v : row) v = static_cast<float>(rng.Uniform(-4.0, 4.0));
    rows.push_back(row);
  }
  rows.push_back(std::vector<float>(19, 0.75f));
  rows.push_back({0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f});
  rows.push_back({-0.0f, 2.0f, -3.0f, 0.0f, 1.0f, -0.0f, 5.0f, 0.0f, -1.0f});
  std::vector<float> cluster(24);
  for (size_t i = 0; i < cluster.size(); ++i) {
    cluster[i] = 1.0e6f + 0.0625f * static_cast<float>(i % 2);
  }
  rows.push_back(cluster);
  std::vector<float> with_nan(17, 1.5f);
  with_nan[11] = std::nanf("");
  rows.push_back(with_nan);

  for (size_t r = 0; r < rows.size(); ++r) {
    const std::vector<float>& row = rows[r];
    const int64_t k = static_cast<int64_t>(row.size());
    // The row sits at column 2 of a 2-row view with lda = k + 5.
    const int64_t lda = k + 5;
    std::vector<float> a(static_cast<size_t>(2 * lda), 9.0f);
    std::copy(row.begin(), row.end(), a.begin() + lda + 2);
    std::vector<int8_t> aq(static_cast<size_t>(k));
    float scale = 0.0f;
    int32_t zp = 0;
    tensor::QuantizeRowsInt8(a.data() + lda + 2, lda, 1, k, aq.data(),
                             &scale, &zp);

    float lo = row[0], hi = row[0];
    for (float v : row) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const float range = hi - lo;
    const float want_scale = range > 0.0f ? range / 255.0f : 1.0f;
    const float inv = 1.0f / want_scale;
    const int32_t want_zp =
        -128 - static_cast<int32_t>(std::lrintf(lo * inv));
    uint32_t got_bits, want_bits;
    std::memcpy(&got_bits, &scale, sizeof(scale));
    std::memcpy(&want_bits, &want_scale, sizeof(want_scale));
    EXPECT_EQ(got_bits, want_bits) << "scale, row " << r;
    EXPECT_EQ(zp, want_zp) << "zero point, row " << r;
    for (int64_t kk = 0; kk < k; ++kk) {
      const int32_t q =
          static_cast<int32_t>(std::lrintf(row[static_cast<size_t>(kk)] *
                                           inv)) +
          want_zp;
      EXPECT_EQ(aq[static_cast<size_t>(kk)],
                static_cast<int8_t>(std::clamp(q, -128, 127)))
          << "row " << r << " element " << kk;
    }
  }
}

// dequant(int8 GEMM) tracks the fp32 GEMM within the quantization error
// bound on random matrices — the kernel's dequant epilogue (zero-point
// correction via column sums) is algebraically exact given the int32
// accumulation, so only representation error remains.
TEST(QuantizedKernelTest, Int8GemmTracksFp32WithinQuantizationError) {
  util::Rng rng(11);
  const int64_t m = 13, k = 64, n = 31;
  std::vector<float> a(static_cast<size_t>(m * k)), w(static_cast<size_t>(k * n));
  for (float& v : a) v = rng.Uniform(-3.0f, 3.0f);
  for (float& v : w) v = rng.Uniform(-0.8f, 0.8f);

  std::vector<float> want(static_cast<size_t>(m * n), 0.0f);
  tensor::ServingGemm(a.data(), k, w.data(), n, /*trans_b=*/false,
                      want.data(), n, m, k, n);

  const tensor::QuantizedMatrix q =
      tensor::QuantizeWeightMatrix(w.data(), k, n);
  std::vector<int8_t> aq(static_cast<size_t>(m * k));
  std::vector<float> a_scales(static_cast<size_t>(m));
  std::vector<int32_t> a_zps(static_cast<size_t>(m));
  tensor::QuantizeRowsInt8(a.data(), k, m, k, aq.data(), a_scales.data(),
                           a_zps.data());
  std::vector<float> got(static_cast<size_t>(m * n), 0.0f);
  tensor::ServingGemmInt8(aq.data(), a_scales.data(), a_zps.data(),
                          q.data.data(), q.params.scales.data(),
                          q.col_sums.data(), got.data(), n, m, k, n);

  double worst = 0.0;
  for (size_t i = 0; i < want.size(); ++i) {
    worst = std::max(worst, static_cast<double>(std::fabs(want[i] - got[i])));
  }
  // Loose analytic bound: per-product error ~ (a_step + w_step) * |.|,
  // accumulated over k. Random ±3 x ±0.8 at k=64 lands well under 0.5.
  EXPECT_LT(worst, 0.5) << "int8 GEMM diverged beyond quantization error";

  // Thread-count invariance: the chunked path must equal the single-
  // thread result exactly (int32 accumulation has no rounding order).
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(4);
  std::vector<float> chunked(static_cast<size_t>(m * n), 0.0f);
  tensor::ServingGemmInt8(aq.data(), a_scales.data(), a_zps.data(),
                          q.data.data(), q.params.scales.data(),
                          q.col_sums.data(), chunked.data(), n, m, k, n);
  EXPECT_EQ(std::memcmp(chunked.data(), got.data(),
                        chunked.size() * sizeof(float)),
            0)
      << "int8 GEMM results depend on thread count";
}

// Re-quantization rewrites the same storage: data/scale/col_sum pointers
// survive, contents track the new weights — the borrowed-pointer contract
// int8 plan instructions rely on.
TEST(QuantizedKernelTest, RequantizeIsInPlaceAndPointerStable) {
  util::Rng rng(3);
  const int64_t rows = 16, cols = 8;
  std::vector<float> w1(static_cast<size_t>(rows * cols)),
      w2(static_cast<size_t>(rows * cols));
  for (float& v : w1) v = rng.Uniform(-1.0f, 1.0f);
  for (float& v : w2) v = rng.Uniform(-1.0f, 1.0f);

  tensor::QuantizedMatrix q = tensor::QuantizeWeightMatrix(w1.data(), rows, cols);
  const int8_t* data_ptr = q.data.data();
  const float* scale_ptr = q.params.scales.data();
  const int32_t* sums_ptr = q.col_sums.data();

  tensor::RequantizeWeightMatrix(w2.data(), rows, cols, &q);
  EXPECT_EQ(q.data.data(), data_ptr);
  EXPECT_EQ(q.params.scales.data(), scale_ptr);
  EXPECT_EQ(q.col_sums.data(), sums_ptr);

  const tensor::QuantizedMatrix fresh =
      tensor::QuantizeWeightMatrix(w2.data(), rows, cols);
  EXPECT_EQ(q.data, fresh.data);
  EXPECT_EQ(q.params.scales, fresh.params.scales);
  EXPECT_EQ(q.col_sums, fresh.col_sums);
}

// -- Session level: the int8 tier ------------------------------------------

// An int8 session arms the full tier, reports it, and its base-head
// predictions agree with the fp32 reference on most golden samples.
TEST(QuantizedSessionTest, Int8PolicyArmsFullTierAndStaysAccurate) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  auto fp32_model = [&] {
    ScopedEnv env("EXPLAINTI_PLAN", "on");
    return std::make_unique<ExplainTiModel>(TinyConfig(), corpus);
  }();
  auto int8_model = [&] {
    ScopedEnv plan_env("EXPLAINTI_PLAN", "on");
    ScopedEnv prec_env("EXPLAINTI_PRECISION", "int8");
    return std::make_unique<ExplainTiModel>(TinyConfig(), corpus);
  }();
  const InferenceSession& int8 = int8_model->session();
  ASSERT_TRUE(int8.plans_enabled());
  ASSERT_TRUE(int8.precision_status().ok())
      << int8.precision_status().ToString();
  EXPECT_STREQ(int8.served_precision(), "int8");
  EXPECT_EQ(int8.precision_mode(), InferenceSession::PrecisionMode::kInt8);

  const InferenceSession::PrecisionStats stats = int8.precision_stats();
  EXPECT_GT(stats.int8_layers, 0);
  EXPECT_EQ(stats.fp32_fallback_layers, 0) << "int8 policy has no fallback";
  EXPECT_TRUE(stats.head_int8);
  ASSERT_GT(stats.weight_bytes_int8, 0);
  // ~4x weight-memory reduction. The per-column dequant params (fp32
  // scale + int32 col_sum = 8 bytes) amortise over the column's rows, so
  // at this repo's tiny d_model=64 the exact ratio is 4/(1 + 8/64) ≈ 3.5
  // for square weights and ~3.4 over the whole mix; production-size
  // columns (d >= 256) sit at 3.9+. Gate the tiny model at 3.0.
  EXPECT_GE(static_cast<double>(stats.weight_bytes_fp32) /
                static_cast<double>(stats.weight_bytes_int8),
            3.0);

  // Every plan carries int8 GEMMs, and the plan's quant scratch is wired.
  const std::vector<int> ids = explainti::testing::GoldenSampleIds(
      int8.task_data(TaskKind::kType));
  const InferencePlan* plan = int8.PlanFor(TaskKind::kType, ids.front());
  ASSERT_NE(plan, nullptr);
  EXPECT_GT(plan->int8_gemms, 0);
  EXPECT_GE(plan->qa_off, 0);

  // Prediction agreement with the fp32 reference on the golden samples.
  int agree = 0;
  for (int id : ids) {
    agree += int8.Predict(TaskKind::kType, id) ==
             fp32_model->session().Predict(TaskKind::kType, id);
  }
  EXPECT_GE(agree, static_cast<int>(ids.size()) - 1)
      << "int8 predictions diverged from fp32 on " << ids.size() - agree
      << " of " << ids.size() << " golden samples";
}

// EXPLAINTI_PRECISION=fp32 must be a true no-op: bit-identical outputs
// and zero quantized state, indistinguishable from an unset environment.
TEST(QuantizedSessionTest, Fp32PolicyIsBitIdenticalToDefault) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  auto default_model = [&] {
    ScopedEnv env("EXPLAINTI_PLAN", "on");
    return std::make_unique<ExplainTiModel>(TinyConfig(), corpus);
  }();
  auto fp32_model = [&] {
    ScopedEnv plan_env("EXPLAINTI_PLAN", "on");
    ScopedEnv prec_env("EXPLAINTI_PRECISION", "fp32");
    return std::make_unique<ExplainTiModel>(TinyConfig(), corpus);
  }();
  const InferenceSession& session = fp32_model->session();
  EXPECT_TRUE(session.precision_status().ok());
  EXPECT_STREQ(session.served_precision(), "fp32");
  EXPECT_EQ(session.precision_stats().weight_bytes_int8, 0);
  for (int id : explainti::testing::GoldenSampleIds(
           session.task_data(TaskKind::kType))) {
    ExpectBitEqual(
        session.PredictProbabilities(TaskKind::kType, id),
        default_model->session().PredictProbabilities(TaskKind::kType, id),
        "EXPLAINTI_PRECISION=fp32 changed the reference output");
  }
}

// A quantizer fault (plan.quantize chaos site) fails closed: the session
// keeps serving — from the all-fp32 plans, bit-identically — and reports
// a typed status, never an error or a half-quantized mix.
TEST(QuantizedSessionTest, QuantizeFaultFailsClosedToFp32Plans) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  auto reference = [&] {
    ScopedEnv env("EXPLAINTI_PLAN", "on");
    return std::make_unique<ExplainTiModel>(TinyConfig(), corpus);
  }();
  auto faulted = [&] {
    ScopedEnv plan_env("EXPLAINTI_PLAN", "on");
    ScopedEnv prec_env("EXPLAINTI_PRECISION", "int8");
    ArmedFault fault("plan.quantize");
    return std::make_unique<ExplainTiModel>(TinyConfig(), corpus);
  }();
  const InferenceSession& session = faulted->session();
  ASSERT_TRUE(session.plans_enabled())
      << "fp32 plans must survive a quantized-tier failure";
  EXPECT_STREQ(session.served_precision(), "fp32");
  EXPECT_FALSE(session.precision_status().ok());
  EXPECT_EQ(session.precision_status().code(), util::StatusCode::kInternal);
  EXPECT_EQ(session.precision_mode(), InferenceSession::PrecisionMode::kInt8)
      << "the requested policy is still reported";

  for (int id : explainti::testing::GoldenSampleIds(
           session.task_data(TaskKind::kType))) {
    ExpectBitEqual(
        session.PredictProbabilities(TaskKind::kType, id),
        reference->session().PredictProbabilities(TaskKind::kType, id),
        "failed-closed session diverged from the fp32 reference");
  }
  EXPECT_EQ(session.plan_stats().graph_runs, 0)
      << "fail-closed must land on fp32 plans, not the graph walk";
}

// Verify mode cross-checks bit-identity against the graph walk, which the
// int8 tier deliberately breaks — so verify forces fp32 with a typed
// status instead of CHECK-failing on the first call.
TEST(QuantizedSessionTest, VerifyModeForcesFp32) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  ScopedEnv plan_env("EXPLAINTI_PLAN", "verify");
  ScopedEnv prec_env("EXPLAINTI_PRECISION", "int8");
  ExplainTiModel model(TinyConfig(), corpus);
  const InferenceSession& session = model.session();
  ASSERT_TRUE(session.plans_enabled());
  EXPECT_STREQ(session.served_precision(), "fp32");
  EXPECT_FALSE(session.precision_status().ok());
  // Serving a few calls exercises the verify CHECKs — they must pass,
  // proving nothing quantized leaked into the served path.
  for (int id : explainti::testing::GoldenSampleIds(
           session.task_data(TaskKind::kType))) {
    EXPECT_FALSE(session.Predict(TaskKind::kType, id).empty());
  }
}

// Mixed mode calibrates per layer: accounting must be consistent, serving
// must work, and whatever mask calibration picked must keep golden-sample
// agreement at the configured threshold.
TEST(QuantizedSessionTest, MixedModeCalibratesPerLayerMask) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  auto fp32_model = [&] {
    ScopedEnv env("EXPLAINTI_PLAN", "on");
    return std::make_unique<ExplainTiModel>(TinyConfig(), corpus);
  }();
  auto mixed_model = [&] {
    ScopedEnv plan_env("EXPLAINTI_PLAN", "on");
    ScopedEnv prec_env("EXPLAINTI_PRECISION", "mixed");
    return std::make_unique<ExplainTiModel>(TinyConfig(), corpus);
  }();
  const InferenceSession& session = mixed_model->session();
  ASSERT_TRUE(session.plans_enabled());
  EXPECT_EQ(session.precision_mode(), InferenceSession::PrecisionMode::kMixed);

  const InferenceSession::PrecisionStats stats = session.precision_stats();
  if (session.precision_status().ok()) {
    // Calibration accepted a mask: layers split cleanly between tiers.
    EXPECT_STREQ(session.served_precision(), "mixed");
    EXPECT_GT(stats.int8_layers + (stats.head_int8 ? 1 : 0), 0);
    const auto& config = mixed_model->config();
    // The fp32 path still answers; agreement on the calibration metric
    // held by construction. Spot-check label agreement end to end.
    const std::vector<int> ids = explainti::testing::GoldenSampleIds(
        session.task_data(TaskKind::kType));
    int agree = 0;
    for (int id : ids) {
      agree += session.Predict(TaskKind::kType, id) ==
               fp32_model->session().Predict(TaskKind::kType, id);
    }
    EXPECT_GE(static_cast<double>(agree),
              config.precision_min_agreement *
                  static_cast<double>(ids.size()) -
                  1.0);
  } else {
    // Calibration rejected everything: fail-closed semantics apply.
    EXPECT_STREQ(session.served_precision(), "fp32");
    EXPECT_EQ(stats.int8_layers, 0);
  }
  // Either way the layer accounting is total.
  EXPECT_FALSE(session.Predict(TaskKind::kType, 0).empty());
}

// -- Weight-update lifecycle ------------------------------------------------

// ReloadWeights on an armed int8 session re-quantizes IN PLACE: the
// installed plan objects and their borrowed int8 pointers survive, and
// the refreshed session is bit-identical to a from-scratch int8 session
// over the same weights.
TEST(QuantizedSessionTest, ReloadWeightsRequantizesInPlace) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  ScopedEnv plan_env("EXPLAINTI_PLAN", "on");
  ScopedEnv prec_env("EXPLAINTI_PRECISION", "int8");

  // Pure-plan logits (no structural head) so the comparison below is
  // between the compiled paths alone, independent of store state.
  ExplainTiConfig base_config = TinyConfig();
  base_config.use_structural = false;
  base_config.use_global = false;

  // Donor checkpoint with different weights (different seed).
  ExplainTiConfig donor_config = base_config;
  donor_config.seed = 99;
  ExplainTiModel donor(donor_config, corpus);
  const std::string path = ::testing::TempDir() + "/quantized_reload.bin";
  ASSERT_TRUE(donor.SaveWeights(path).ok());

  ExplainTiModel model(base_config, corpus);
  InferenceSession session(model);  // Session under test (own instance).
  ASSERT_STREQ(session.served_precision(), "int8");

  const std::vector<int> ids = explainti::testing::GoldenSampleIds(
      session.task_data(TaskKind::kType));
  const InferencePlan* plan_before = session.PlanFor(TaskKind::kType, ids[0]);
  ASSERT_NE(plan_before, nullptr);
  const int8_t* weights_before = nullptr;
  for (const PlanInstr& instr : plan_before->instrs) {
    if (instr.dtype == tensor::DType::kI8) {
      weights_before = instr.weight_q;
      break;
    }
  }
  ASSERT_NE(weights_before, nullptr);

  // LoadWeights mutates the model's fp32 storage in place; the session's
  // quantized tier is now stale until ReloadWeights.
  ASSERT_TRUE(model.LoadWeights(path).ok());
  session.ReloadWeights();

  const InferencePlan* plan_after = session.PlanFor(TaskKind::kType, ids[0]);
  ASSERT_EQ(plan_after, plan_before)
      << "int8 fast path must not rebuild plan objects";
  const int8_t* weights_after = nullptr;
  for (const PlanInstr& instr : plan_after->instrs) {
    if (instr.dtype == tensor::DType::kI8) {
      weights_after = instr.weight_q;
      break;
    }
  }
  EXPECT_EQ(weights_after, weights_before)
      << "re-quantization must reuse the same int8 storage";

  // The refreshed session serves the donor's weights exactly like a
  // session quantized from scratch on them.
  const InferenceSession& fresh = donor.session();
  ASSERT_STREQ(fresh.served_precision(), "int8");
  for (int id : ids) {
    ExpectBitEqual(session.PredictProbabilities(TaskKind::kType, id),
                   fresh.PredictProbabilities(TaskKind::kType, id),
                   "reloaded int8 session vs fresh quantization");
  }
}

// LoadWeights through the model re-arms the tier automatically (suspend →
// store warm-up on fp32 → re-quantize), so a hot-swap replica always
// serves freshly quantized weights.
TEST(QuantizedSessionTest, LoadWeightsRearmsTheTier) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  ScopedEnv plan_env("EXPLAINTI_PLAN", "on");
  ScopedEnv prec_env("EXPLAINTI_PRECISION", "int8");

  ExplainTiConfig base_config = TinyConfig();
  base_config.use_structural = false;
  base_config.use_global = false;
  ExplainTiModel donor(base_config, corpus);
  const std::string path = ::testing::TempDir() + "/quantized_swap.bin";
  ASSERT_TRUE(donor.SaveWeights(path).ok());

  ExplainTiConfig config = base_config;
  config.seed = 4321;
  ExplainTiModel model(config, corpus);
  ASSERT_TRUE(model.LoadWeights(path).ok());
  const InferenceSession& session = model.session();
  EXPECT_STREQ(session.served_precision(), "int8");
  EXPECT_TRUE(session.precision_status().ok())
      << session.precision_status().ToString();
  for (int id : explainti::testing::GoldenSampleIds(
           session.task_data(TaskKind::kType))) {
    ExpectBitEqual(session.PredictProbabilities(TaskKind::kType, id),
                   donor.session().PredictProbabilities(TaskKind::kType, id),
                   "post-LoadWeights int8 serving vs donor");
  }
}

// -- Steady state: the int8 path allocates nothing --------------------------

// Mirrors the fp32 zero-alloc gate: a warmed int8 RunPlan — row
// quantization, int8 GEMMs, dequant epilogues — performs zero heap
// allocations and never misses the workspace buffer pool.
TEST(QuantizedSessionTest, SteadyStateInt8RunPlanIsZeroAlloc) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  ScopedEnv plan_env("EXPLAINTI_PLAN", "on");
  ScopedEnv prec_env("EXPLAINTI_PRECISION", "int8");
  ExplainTiModel model(TinyConfig(), corpus);
  const InferenceSession& session = model.session();
  ASSERT_TRUE(session.plans_enabled());
  ASSERT_STREQ(session.served_precision(), "int8");

  const TaskData& task = session.task_data(TaskKind::kType);
  const int id =
      explainti::testing::GoldenSampleIds(task).front();
  const InferencePlan* plan = session.PlanFor(TaskKind::kType, id);
  ASSERT_NE(plan, nullptr);
  ASSERT_GT(plan->int8_gemms, 0);
  const TaskSample& sample = task.samples[static_cast<size_t>(id)];

  std::vector<float> encoder_out(
      static_cast<size_t>(plan->seq_len * plan->d_model));
  std::vector<float> logits(static_cast<size_t>(plan->num_labels));
  PlanRun run;
  run.token_ids = sample.seq.ids.data();
  run.segment_ids = plan->has_segments ? sample.seq.segments.data() : nullptr;
  run.encoder_out = encoder_out.data();
  run.encoder_out_rows = plan->seq_len;
  run.logits = plan->logits_off >= 0 ? logits.data() : nullptr;

  RunPlan(*plan, run);  // Warm-up: seeds the arena bucket.
  RunPlan(*plan, run);

  const tensor::WorkspaceStats ws_before = tensor::ThisThreadWorkspaceStats();
  const util::AllocCounts heap_before = util::ThisThreadAllocCounts();
  for (int i = 0; i < 16; ++i) RunPlan(*plan, run);
  const util::AllocCounts heap_after = util::ThisThreadAllocCounts();
  const tensor::WorkspaceStats ws_after = tensor::ThisThreadWorkspaceStats();

  EXPECT_EQ(heap_after.allocations - heap_before.allocations, 0u)
      << "warmed-up int8 RunPlan allocated on the heap";
  EXPECT_EQ(ws_after.buffer_misses, ws_before.buffer_misses)
      << "warmed-up int8 RunPlan missed the workspace buffer pool";
}

// -- Golden evidence under the quantized tier -------------------------------

// Explanations from an int8 session must stay close to the fp32 golden
// evidence: the top-window token sets overlap strongly even where the
// relevance ordering wobbles within quantization error.
TEST(QuantizedSessionTest, GoldenEvidenceAgreementUnderInt8) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  auto fp32_model = [&] {
    ScopedEnv env("EXPLAINTI_PLAN", "on");
    return std::make_unique<ExplainTiModel>(TinyConfig(), corpus);
  }();
  auto int8_model = [&] {
    ScopedEnv plan_env("EXPLAINTI_PLAN", "on");
    ScopedEnv prec_env("EXPLAINTI_PRECISION", "int8");
    return std::make_unique<ExplainTiModel>(TinyConfig(), corpus);
  }();
  fp32_model->RefreshStores();
  int8_model->RefreshStores();
  ASSERT_STREQ(int8_model->session().served_precision(), "int8");

  const auto want = explainti::testing::GoldenEvidence(fp32_model->session(),
                                                       TaskKind::kType);
  const auto got = explainti::testing::GoldenEvidence(int8_model->session(),
                                                      TaskKind::kType);
  const double agreement = explainti::testing::MeanEvidenceAgreement(want, got);
  EXPECT_GE(agreement, 0.6)
      << "int8 explanations drifted too far from the fp32 golden evidence";
}

}  // namespace
}  // namespace explainti::core
