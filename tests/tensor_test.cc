#include "tensor/tensor.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/plan_kernels.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace explainti::tensor {
namespace {

TEST(TensorTest, ZerosHasShapeAndZeroData) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.size(), 6);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.at(i), 0.0f);
}

TEST(TensorTest, FullFillsValue) {
  Tensor t = Tensor::Full({4}, 2.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(t.at(i), 2.5f);
}

TEST(TensorTest, FromVectorRoundTrips) {
  Tensor t = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.ToVector(), (std::vector<float>{1, 2, 3, 4}));
}

TEST(TensorTest, ScalarItem) {
  EXPECT_FLOAT_EQ(Tensor::Scalar(7.0f).item(), 7.0f);
}

TEST(TensorTest, NegativeDimIndexing) {
  Tensor t = Tensor::Zeros({2, 5});
  EXPECT_EQ(t.dim(-1), 5);
  EXPECT_EQ(t.dim(-2), 2);
}

TEST(TensorTest, RandnIsDeterministicPerSeed) {
  util::Rng rng1(42);
  util::Rng rng2(42);
  Tensor a = Tensor::Randn({8}, rng1, 1.0f);
  Tensor b = Tensor::Randn({8}, rng2, 1.0f);
  EXPECT_EQ(a.ToVector(), b.ToVector());
}

TEST(TensorTest, DetachSharesValuesButNotGraph) {
  Tensor a = Tensor::Full({2}, 3.0f);
  a.set_requires_grad(true);
  Tensor b = Scale(a, 2.0f);
  Tensor d = b.Detach();
  EXPECT_EQ(d.ToVector(), b.ToVector());
  EXPECT_FALSE(d.requires_grad());
  // Backward through b still works; d is outside the graph.
  Sum(b).Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);
}

TEST(TensorTest, AddInPlaceAccumulates) {
  Tensor a = Tensor::Full({3}, 1.0f);
  Tensor b = Tensor::Full({3}, 2.0f);
  a.AddInPlace(b, 0.5f);
  for (int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(a.at(i), 2.0f);
}

TEST(TensorTest, ZeroGradClearsGradient) {
  Tensor a = Tensor::Full({2}, 1.0f);
  a.set_requires_grad(true);
  Sum(a).Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0f);
  a.ZeroGrad();
  EXPECT_FLOAT_EQ(a.grad()[0], 0.0f);
}

TEST(TensorTest, BackwardAccumulatesAcrossUses) {
  // y = a + a: dy/da = 2.
  Tensor a = Tensor::Full({2}, 1.0f);
  a.set_requires_grad(true);
  Tensor y = Sum(Add(a, a));
  y.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], 2.0f);
}

TEST(TensorTest, BackwardThroughDiamondGraph) {
  // y = sum(a*a + a): dy/da_i = 2a_i + 1.
  Tensor a = Tensor::FromVector({2}, {2.0f, 3.0f});
  a.set_requires_grad(true);
  Tensor y = Sum(Add(Mul(a, a), a));
  y.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 5.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], 7.0f);
}

TEST(TensorOpsTest, AddBroadcastsBias) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2}, {10, 20});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.ToVector(), (std::vector<float>{11, 22, 13, 24}));
}

TEST(TensorOpsTest, MatMulKnownProduct) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.ToVector(), (std::vector<float>{58, 64, 139, 154}));
}

TEST(TensorOpsTest, MatMulVectorTimesMatrix) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  Tensor b = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{3}));
  EXPECT_EQ(c.ToVector(), (std::vector<float>{9, 12, 15}));
}

TEST(TensorOpsTest, MatMulMatrixTimesVector) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2}, {5, 6});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2}));
  EXPECT_EQ(c.ToVector(), (std::vector<float>{17, 39}));
}

TEST(TensorOpsTest, DotProduct) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({3}, {4, 5, 6});
  EXPECT_FLOAT_EQ(Dot(a, b).item(), 32.0f);
}

TEST(TensorOpsTest, TransposeSwapsDims) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.ToVector(), (std::vector<float>{1, 4, 2, 5, 3, 6}));
}

TEST(TensorOpsTest, SoftmaxRowsSumToOne) {
  util::Rng rng(3);
  Tensor x = Tensor::Randn({4, 7}, rng, 2.0f);
  Tensor y = Softmax(x);
  for (int64_t r = 0; r < 4; ++r) {
    float total = 0.0f;
    for (int64_t c = 0; c < 7; ++c) total += y.at(r * 7 + c);
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(TensorOpsTest, SoftmaxIsShiftInvariant) {
  Tensor x = Tensor::FromVector({3}, {1, 2, 3});
  Tensor y = Softmax(x);
  Tensor x_shift = Tensor::FromVector({3}, {101, 102, 103});
  Tensor y_shift = Softmax(x_shift);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(y.at(i), y_shift.at(i), 1e-5f);
  }
}

TEST(TensorOpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor x = Tensor::FromVector({4}, {0.5f, -1.0f, 2.0f, 0.0f});
  Tensor ls = LogSoftmax(x);
  Tensor s = Softmax(x);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(ls.at(i), std::log(s.at(i)), 1e-5f);
  }
}

TEST(TensorOpsTest, LayerNormNormalisesRows) {
  Tensor x = Tensor::FromVector({2, 4}, {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor gamma = Tensor::Full({4}, 1.0f);
  Tensor beta = Tensor::Zeros({4});
  Tensor y = LayerNorm(x, gamma, beta);
  for (int64_t r = 0; r < 2; ++r) {
    float mean = 0.0f;
    for (int64_t c = 0; c < 4; ++c) mean += y.at(r * 4 + c);
    mean /= 4.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-5f);
    float var = 0.0f;
    for (int64_t c = 0; c < 4; ++c) {
      var += (y.at(r * 4 + c) - mean) * (y.at(r * 4 + c) - mean);
    }
    EXPECT_NEAR(var / 4.0f, 1.0f, 1e-3f);
  }
}

TEST(TensorOpsTest, EmbeddingLookupGathersRows) {
  Tensor table = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor out = EmbeddingLookup(table, {2, 0, 2});
  EXPECT_EQ(out.shape(), (Shape{3, 2}));
  EXPECT_EQ(out.ToVector(), (std::vector<float>{5, 6, 1, 2, 5, 6}));
}

TEST(TensorOpsTest, EmbeddingBackwardScatterAdds) {
  Tensor table = Tensor::Zeros({3, 2});
  table.set_requires_grad(true);
  Tensor out = EmbeddingLookup(table, {1, 1});
  Sum(out).Backward();
  // Row 1 used twice: gradient 2 per entry; other rows 0.
  EXPECT_FLOAT_EQ(table.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(table.grad()[2], 2.0f);
  EXPECT_FLOAT_EQ(table.grad()[3], 2.0f);
  EXPECT_FLOAT_EQ(table.grad()[4], 0.0f);
}

TEST(TensorOpsTest, SliceAndConcatRoundTrip) {
  Tensor a = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor top = SliceRows(a, 0, 1);
  Tensor rest = SliceRows(a, 1, 3);
  Tensor back = ConcatRows({top, rest});
  EXPECT_EQ(back.ToVector(), a.ToVector());
}

TEST(TensorOpsTest, SliceColsAndConcatColsRoundTrip) {
  Tensor a = Tensor::FromVector({2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor left = SliceCols(a, 0, 2);
  Tensor right = SliceCols(a, 2, 4);
  EXPECT_EQ(left.ToVector(), (std::vector<float>{1, 2, 5, 6}));
  Tensor back = ConcatCols({left, right});
  EXPECT_EQ(back.ToVector(), a.ToVector());
}

TEST(TensorOpsTest, RowExtractsVector) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Row(a, 1);
  EXPECT_EQ(r.shape(), (Shape{3}));
  EXPECT_EQ(r.ToVector(), (std::vector<float>{4, 5, 6}));
}

TEST(TensorOpsTest, MeanRowsAverages) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor m = MeanRows(a);
  EXPECT_EQ(m.ToVector(), (std::vector<float>{2, 3}));
}

TEST(TensorOpsTest, StackBuildsMatrix) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  Tensor b = Tensor::FromVector({2}, {3, 4});
  Tensor s = Stack({a, b});
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.ToVector(), (std::vector<float>{1, 2, 3, 4}));
}

TEST(TensorOpsTest, ReluClampsNegatives) {
  Tensor a = Tensor::FromVector({3}, {-1, 0, 2});
  EXPECT_EQ(Relu(a).ToVector(), (std::vector<float>{0, 0, 2}));
}

TEST(TensorOpsTest, GeluMatchesReference) {
  // Known values of tanh-approximated GELU.
  Tensor a = Tensor::FromVector({2}, {0.0f, 1.0f});
  Tensor y = Gelu(a);
  EXPECT_NEAR(y.at(0), 0.0f, 1e-6f);
  EXPECT_NEAR(y.at(1), 0.8412f, 1e-3f);
}

TEST(TensorOpsTest, SigmoidAtZeroIsHalf) {
  EXPECT_NEAR(SigmoidOp(Tensor::Zeros({1})).at(0), 0.5f, 1e-6f);
}

TEST(TensorOpsTest, L2NormalizeYieldsUnitVector) {
  Tensor a = Tensor::FromVector({2}, {3, 4});
  Tensor n = L2Normalize(a);
  EXPECT_NEAR(n.at(0), 0.6f, 1e-5f);
  EXPECT_NEAR(n.at(1), 0.8f, 1e-5f);
}

TEST(TensorOpsTest, CrossEntropyMatchesManual) {
  Tensor logits = Tensor::FromVector({3}, {1.0f, 2.0f, 0.5f});
  const std::vector<float> probs = SoftmaxValues(logits.ToVector());
  EXPECT_NEAR(CrossEntropyLoss(logits, 1).item(), -std::log(probs[1]), 1e-5f);
}

TEST(TensorOpsTest, BceWithLogitsMatchesManual) {
  Tensor logits = Tensor::FromVector({2}, {0.0f, 2.0f});
  const std::vector<float> target = {1.0f, 0.0f};
  const float expected =
      (-std::log(0.5f) - std::log(1.0f - 1.0f / (1.0f + std::exp(-2.0f)))) /
      2.0f;
  EXPECT_NEAR(BceWithLogitsLoss(logits, target).item(), expected, 1e-5f);
}

TEST(TensorOpsTest, NllFromProbsMatchesManual) {
  Tensor probs = Tensor::FromVector({2}, {0.25f, 0.75f});
  EXPECT_NEAR(NllFromProbs(probs, 1).item(), -std::log(0.75f), 1e-5f);
}

TEST(TensorOpsTest, DropoutEvalIsIdentity) {
  util::Rng rng(5);
  Tensor a = Tensor::FromVector({4}, {1, 2, 3, 4});
  Tensor d = Dropout(a, 0.5f, rng, /*training=*/false);
  EXPECT_EQ(d.ToVector(), a.ToVector());
}

TEST(TensorOpsTest, DropoutPreservesExpectation) {
  util::Rng rng(6);
  Tensor a = Tensor::Full({20000}, 1.0f);
  Tensor d = Dropout(a, 0.3f, rng, /*training=*/true);
  double total = 0.0;
  for (int64_t i = 0; i < d.size(); ++i) total += d.at(i);
  EXPECT_NEAR(total / static_cast<double>(d.size()), 1.0, 0.03);
}

TEST(TensorOpsTest, KlDivergenceZeroForIdenticalDistributions) {
  const std::vector<float> p = {0.2f, 0.3f, 0.5f};
  EXPECT_NEAR(KlDivergence(p, p), 0.0f, 1e-6f);
}

TEST(TensorOpsTest, KlDivergenceNonNegative) {
  const std::vector<float> p = {0.9f, 0.05f, 0.05f};
  const std::vector<float> q = {0.1f, 0.6f, 0.3f};
  EXPECT_GT(KlDivergence(p, q), 0.0f);
}

TEST(TensorOpsTest, CosineSimilarityBounds) {
  const std::vector<float> a = {1, 0};
  const std::vector<float> b = {0, 1};
  const std::vector<float> c = {2, 0};
  EXPECT_NEAR(CosineSimilarity(a, b), 0.0f, 1e-6f);
  EXPECT_NEAR(CosineSimilarity(a, c), 1.0f, 1e-6f);
}

// -- ServingGemm bit identity ----------------------------------------------

uint32_t FloatBits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// ServingGemm must equal, bit for bit, the naive loop that starts from
// +0.0f and adds each rounded product in ascending k. The plan-vs-graph
// golden tests cannot catch a kernel that changes bits, because both
// paths call the same ServingGemm; this test pins the kernel itself,
// whichever body the CPU dispatch selects. The shapes cover the 4-row
// groups and their 1-3 row tails, the 16- and 8-column tiles and every
// masked column tail, and k down to 1. Each shape also runs as a strided
// per-head view: lda, ldb and ldc wider than the window and a column
// offset into B and C, with every element of C outside the m x n window
// holding a sentinel that must survive — a tail store past the window
// would overwrite the next head's columns.
TEST(ServingGemmTest, BitIdenticalToNaiveAscendingKLoop) {
  struct PoolRestore {
    ~PoolRestore() {
      util::SetGlobalThreadCount(util::ConfiguredThreadCount());
    }
  } restore;
  const float kSentinel = -12345.5f;
  util::Rng rng(20231017);
  auto fill = [&rng](std::vector<float>& v) {
    for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  };
  for (int threads : {1, 3}) {
    util::SetGlobalThreadCount(threads);
    for (int64_t m : {1, 2, 3, 4, 5, 37, 40}) {
      for (int64_t n : {1, 7, 8, 9, 15, 16, 17, 37, 40, 64, 70, 128}) {
        for (int64_t k : {1, 3, 4, 16, 37, 64, 128}) {
          for (bool trans_b : {false, true}) {
            for (bool strided : {true, false}) {
              const int64_t col = strided ? 3 : 0;
              const int64_t lda = k + (strided ? 5 : 0);
              const int64_t b_rows = trans_b ? col + n : k;
              const int64_t b_cols = trans_b ? k : col + n;
              const int64_t ldb = b_cols + (strided ? 6 : 0);
              const int64_t ldc = col + n + (strided ? 7 : 0);
              std::vector<float> a(static_cast<size_t>(m * lda));
              std::vector<float> b(static_cast<size_t>(b_rows * ldb));
              fill(a);
              fill(b);
              std::vector<float> c(static_cast<size_t>(m * ldc), kSentinel);
              // The view's origin: B's column offset (row offset when B is
              // read transposed) and C's column offset.
              const float* bv = b.data() + (trans_b ? col * ldb : col);
              float* cv = c.data() + col;
              ZeroRows(cv, ldc, m, n);
              ServingGemm(a.data(), lda, bv, ldb, trans_b, cv, ldc, m, k, n);
              for (int64_t i = 0; i < m; ++i) {
                for (int64_t j = 0; j < ldc; ++j) {
                  const float got = c[static_cast<size_t>(i * ldc + j)];
                  if (j < col || j >= col + n) {
                    ASSERT_EQ(FloatBits(got), FloatBits(kSentinel))
                        << "wrote outside the window: m=" << m << " n=" << n
                        << " k=" << k << " trans_b=" << trans_b
                        << " strided=" << strided << " at [" << i << ", "
                        << j << "]";
                    continue;
                  }
                  float want = 0.0f;
                  for (int64_t kk = 0; kk < k; ++kk) {
                    const float bval = trans_b ? bv[(j - col) * ldb + kk]
                                               : bv[kk * ldb + (j - col)];
                    want += a[static_cast<size_t>(i * lda + kk)] * bval;
                  }
                  ASSERT_EQ(FloatBits(got), FloatBits(want))
                      << "m=" << m << " n=" << n << " k=" << k
                      << " trans_b=" << trans_b << " strided=" << strided
                      << " threads=" << threads << " at [" << i << ", "
                      << j - col << "]";
                }
              }
            }
          }
        }
      }
    }
  }
}

// -- Tanhf and the GELU row kernels ----------------------------------------

float BitsFloat(uint32_t bits) {
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Runs TanhRows over `xs`, padded to whole 8-lane vectors so that every
// value goes through the vector body, and checks each result bit for bit
// against Tanhf. The padding repeats the values in another lane order, so
// each value also meets different lane neighbours.
void ExpectTanhRowsMatchTanhf(std::vector<float> xs) {
  const size_t n = xs.size();
  for (size_t i = 0; xs.size() % 8 != 0 || i < 8; ++i) {
    xs.push_back(xs[(i * 5 + 3) % n]);
  }
  std::vector<float> got(xs.size());
  TanhRows(xs.data(), got.data(), static_cast<int64_t>(xs.size()));
  for (size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(FloatBits(got[i]), FloatBits(Tanhf(xs[i])))
        << "x bits 0x" << std::hex << FloatBits(xs[i]);
  }
}

// Every |x| bit threshold of fdlibm's tanhf and expm1f, +-4 ulps, applied
// to x and to the expm1 argument +-2|x| (so x = +-threshold / 2). A
// vector lane that picks the wrong branch at a boundary shows here.
TEST(TanhfKernelTest, VectorBodyMatchesTanhfAroundEveryThreshold) {
  const uint32_t kThresholds[] = {
      // expm1f: 27 ln2, 88.72, o_threshold, 0.5 ln2, 1.5 ln2, 2^-25.
      0x4195b844u, 0x42b17218u, 0x42b17180u, 0x3eb17218u, 0x3f851592u,
      0x33000000u,
      // tanhf: 2^-55, 1, 22, inf.
      0x24000000u, 0x3f800000u, 0x41b00000u, 0x7f800000u};
  std::vector<float> xs;
  for (uint32_t threshold : kThresholds) {
    for (int d = -4; d <= 4; ++d) {
      const float v = BitsFloat(threshold + static_cast<uint32_t>(d));
      for (float x : {v, 0.5f * v}) {
        xs.push_back(x);
        xs.push_back(-x);
      }
    }
  }
  ExpectTanhRowsMatchTanhf(xs);
}

TEST(TanhfKernelTest, VectorBodyMatchesTanhfOnSpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float max = std::numeric_limits<float>::max();
  std::vector<float> xs = {0.0f, -0.0f, max, -max, inf, -inf};
  // Denormals, smallest to largest.
  for (uint32_t bits : {0x00000001u, 0x00000002u, 0x00012345u, 0x003fffffu,
                        0x007fffffu}) {
    xs.push_back(BitsFloat(bits));
    xs.push_back(BitsFloat(bits | 0x80000000u));
  }
  // Quiet and signalling NaNs with distinct payloads, both signs: tanhf
  // returns a NaN that keeps the payload.
  for (uint32_t bits : {0x7fc00000u, 0x7fc00001u, 0x7fd23456u, 0x7f800001u,
                        0x7fa5a5a5u, 0x7fffffffu}) {
    xs.push_back(BitsFloat(bits));
    xs.push_back(BitsFloat(bits | 0x80000000u));
  }
  ExpectTanhRowsMatchTanhf(xs);
  // Tanhf itself at the special values.
  EXPECT_EQ(FloatBits(Tanhf(0.0f)), FloatBits(0.0f));
  EXPECT_EQ(FloatBits(Tanhf(-0.0f)), FloatBits(-0.0f));
  EXPECT_EQ(Tanhf(inf), 1.0f);
  EXPECT_EQ(Tanhf(-inf), -1.0f);
  EXPECT_EQ(Tanhf(22.0f), 1.0f);
  EXPECT_EQ(FloatBits(Tanhf(BitsFloat(0x7fd23456u))), 0x7fd23456u);
  EXPECT_EQ(FloatBits(Tanhf(BitsFloat(0xff800001u))), 0xffc00001u);
  EXPECT_NEAR(Tanhf(0.5f), 0.46211716f, 1e-7f);
}

// Every 256th bit pattern, about 16M values across all exponents and
// both signs. The slow-labelled tanh_exhaustive_test runs all 2^32.
TEST(TanhfKernelTest, VectorBodyMatchesTanhfOnStridedSweep) {
  constexpr uint64_t kStride = 256;
  constexpr size_t kBlock = 1 << 16;
  std::vector<float> xs(kBlock), got(kBlock);
  for (uint64_t base = 0; base < (uint64_t{1} << 32);
       base += kBlock * kStride) {
    for (size_t i = 0; i < kBlock; ++i) {
      // An odd offset inside the stride reaches low mantissa bits too.
      xs[i] = BitsFloat(static_cast<uint32_t>(base + i * kStride + (i % 97)));
    }
    TanhRows(xs.data(), got.data(), static_cast<int64_t>(kBlock));
    for (size_t i = 0; i < kBlock; ++i) {
      ASSERT_EQ(FloatBits(got[i]), FloatBits(Tanhf(xs[i])))
          << "x bits 0x" << std::hex << FloatBits(xs[i]);
    }
  }
}

// BiasGeluRows against GeluScalar(c + bias), element by element, on rows
// whose length covers a lone tail element, a short tail, one exact
// vector, a vector plus one and longer rows, inside a wider ldc whose
// padding holds a sentinel that must survive. The values span every
// Tanhf branch GELU reaches, and the extremes.
TEST(GeluRowKernelTest, BiasGeluRowsMatchesGeluScalar) {
  const float kSentinel = -12345.5f;
  util::Rng rng(20261018);
  const float extremes[] = {0.0f,  -0.0f, 1e-20f, -1e-20f, 30.0f, -30.0f,
                            1e30f, -1e30f};
  for (int64_t n : {1, 7, 8, 9, 128, 130}) {
    const int64_t m = 3;
    const int64_t ldc = n + 5;
    std::vector<float> bias(static_cast<size_t>(n));
    std::vector<float> c(static_cast<size_t>(m * ldc), kSentinel);
    for (float& b : bias) b = static_cast<float>(rng.Uniform(-0.5, 0.5));
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        c[static_cast<size_t>(i * ldc + j)] =
            (i * n + j) % 11 == 0
                ? extremes[(i * n + j) % 8]
                : static_cast<float>(rng.Uniform(-8.0, 8.0));
      }
    }
    const std::vector<float> input = c;
    BiasGeluRows(c.data(), ldc, bias.data(), m, n);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < ldc; ++j) {
        const size_t at = static_cast<size_t>(i * ldc + j);
        const float want =
            j < n ? GeluScalar(input[at] + bias[static_cast<size_t>(j)])
                  : kSentinel;
        ASSERT_EQ(FloatBits(c[at]), FloatBits(want))
            << "n=" << n << " at [" << i << ", " << j << "]";
      }
    }
  }
}

// The Gelu op runs the same row kernel: its forward equals GeluScalar and
// its backward uses the same Tanhf of the same argument.
TEST(GeluRowKernelTest, GeluOpForwardAndBackwardUseTheRowKernel) {
  util::Rng rng(7);
  for (int64_t n : {1, 13, 64}) {
    std::vector<float> xs(static_cast<size_t>(n));
    for (float& x : xs) x = static_cast<float>(rng.Uniform(-6.0, 6.0));
    Tensor a = Tensor::FromVector({n}, xs);
    a.set_requires_grad(true);
    Tensor y = Gelu(a);
    std::vector<float> inner(xs.size());
    GeluTanhRows(xs.data(), inner.data(), n);
    for (size_t i = 0; i < xs.size(); ++i) {
      ASSERT_EQ(FloatBits(y.at(static_cast<int64_t>(i))),
                FloatBits(GeluScalar(xs[i])));
      ASSERT_EQ(FloatBits(0.5f * xs[i] * (1.0f + inner[i])),
                FloatBits(GeluScalar(xs[i])));
    }
    Sum(y).Backward();
    const float coef = 0.044715f;
    const float s2pi = std::sqrt(2.0f / static_cast<float>(M_PI));
    for (size_t i = 0; i < xs.size(); ++i) {
      const float x = xs[i];
      const float t = Tanhf(s2pi * (x + coef * x * x * x));
      const float dinner = s2pi * (1.0f + 3.0f * coef * x * x);
      const float dy = 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * dinner;
      ASSERT_EQ(FloatBits(a.grad()[i]), FloatBits(dy)) << "x=" << x;
    }
  }
}

}  // namespace
}  // namespace explainti::tensor
