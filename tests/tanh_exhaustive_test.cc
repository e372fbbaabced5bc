// Compares the vector tanh body with its scalar reference on every one
// of the 2^32 float bit patterns. Slow-labelled: about 25 s with four
// threads. tensor_test's strided sweep covers every 256th pattern in the
// tier-1 run.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/plan_kernels.h"

namespace explainti::tensor {
namespace {

uint32_t FloatBits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(TanhExhaustiveTest, VectorBodyMatchesTanhfOnAllInputs) {
  constexpr uint64_t kBlock = 1 << 16;
  constexpr uint64_t kBlocks = (uint64_t{1} << 32) / kBlock;
  const unsigned threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::atomic<uint64_t> next_block{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint32_t> first_mismatch{0};
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < threads; ++w) {
    workers.emplace_back([&] {
      std::vector<float> xs(kBlock), got(kBlock);
      for (uint64_t block = next_block++; block < kBlocks;
           block = next_block++) {
        for (uint64_t i = 0; i < kBlock; ++i) {
          const uint32_t bits = static_cast<uint32_t>(block * kBlock + i);
          std::memcpy(&xs[i], &bits, sizeof(bits));
        }
        TanhRows(xs.data(), got.data(), static_cast<int64_t>(kBlock));
        for (uint64_t i = 0; i < kBlock; ++i) {
          if (FloatBits(got[i]) != FloatBits(Tanhf(xs[i]))) {
            if (mismatches++ == 0) first_mismatch = FloatBits(xs[i]);
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0u)
      << "first mismatch at x bits 0x" << std::hex << first_mismatch.load();
}

}  // namespace
}  // namespace explainti::tensor
