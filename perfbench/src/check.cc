#include <cstring>

#include "bench.h"
#include "util/logging.h"

namespace perfbench {

namespace {

// Multiply-xorshift over 8-byte words: every bit of every field feeds the
// state, at a cost a worker thread can afford per response.
class Hasher {
 public:
  void Word(uint64_t word) {
    state_ ^= word;
    state_ *= 0x9E3779B97F4A7C15ULL;
    state_ ^= state_ >> 29;
  }
  void Bytes(const void* data, size_t n) {
    Word(n);
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (; n >= 8; n -= 8, bytes += 8) {
      uint64_t word = 0;
      std::memcpy(&word, bytes, 8);
      Word(word);
    }
    if (n > 0) {
      uint64_t word = 0;
      std::memcpy(&word, bytes, n);
      Word(word);
    }
  }
  void Float(float value) {
    uint32_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Word(bits);
  }
  void Int(int64_t value) { Word(static_cast<uint64_t>(value)); }
  void Ints(const std::vector<int>& values) {
    Bytes(values.data(), values.size() * sizeof(int));
  }
  void Floats(const std::vector<float>& values) {
    Bytes(values.data(), values.size() * sizeof(float));
  }
  void String(const std::string& value) { Bytes(value.data(), value.size()); }
  uint64_t state() const { return state_; }

 private:
  uint64_t state_ = 0x6A09E667F3BCC909ULL;
};

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace

uint64_t Fingerprint(const core::Explanation& explanation) {
  Hasher h;
  h.Ints(explanation.predicted_labels);
  h.Floats(explanation.probabilities);
  h.Int(static_cast<int64_t>(explanation.local.size()));
  for (const core::LocalExplanation& le : explanation.local) {
    h.Int(le.window_start);
    h.Int(le.window_end);
    h.Int(le.window_start2);
    h.Int(le.window_end2);
    h.Float(le.relevance);
    h.String(le.text);
  }
  h.Int(static_cast<int64_t>(explanation.global.size()));
  for (const core::GlobalExplanation& ge : explanation.global) {
    h.Int(ge.train_sample_id);
    h.Float(ge.influence);
    h.String(ge.text);
    h.Ints(ge.labels);
  }
  h.Int(static_cast<int64_t>(explanation.structural.size()));
  for (const core::StructuralExplanation& se : explanation.structural) {
    h.Int(se.neighbor_sample_id);
    h.Float(se.attention);
    h.Int(static_cast<int64_t>(se.via));
    h.String(se.text);
    h.Ints(se.labels);
  }
  h.Int(explanation.ann_degraded ? 1 : 0);
  h.String(explanation.degradation_note);
  return h.state();
}

Payload TakePayload(serve::ServeMethod method, serve::ServeResponse& response) {
  Payload payload;
  switch (method) {
    case serve::ServeMethod::kPredict:
      payload.labels = std::move(response.labels);
      break;
    case serve::ServeMethod::kPredictProbabilities:
      payload.probabilities = std::move(response.probabilities);
      break;
    case serve::ServeMethod::kExplain:
      payload.explanation_fingerprint = Fingerprint(response.explanation);
      break;
    case serve::ServeMethod::kQaAnswer:
      LOG(FATAL) << "the benchmark serves no QA requests";
  }
  return payload;
}

const Payload& OutputChecker::Reference(const Op& op, uint64_t generation) {
  const auto key = std::make_tuple(generation, static_cast<int>(op.method),
                                   static_cast<int>(op.task), op.sample);
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;
  const core::InferenceSession& session = *fixture_.SessionOf(generation);
  Payload reference;
  switch (op.method) {
    case serve::ServeMethod::kPredict:
      reference.labels = session.Predict(op.task, op.sample);
      break;
    case serve::ServeMethod::kPredictProbabilities:
      reference.probabilities = session.PredictProbabilities(op.task, op.sample);
      break;
    case serve::ServeMethod::kExplain:
      reference.explanation_fingerprint =
          Fingerprint(session.Explain(op.task, op.sample));
      break;
    case serve::ServeMethod::kQaAnswer:
      LOG(FATAL) << "the benchmark serves no QA requests";
  }
  return memo_.emplace(key, std::move(reference)).first->second;
}

bool OutputChecker::Check(const Op& op, uint64_t generation,
                          const Payload& served, std::string* error) {
  ++checked_;
  const char* method = serve::ServeMethodName(op.method);
  if (fixture_.SessionOf(generation) == nullptr) {
    *error = std::string(method) + " served by unknown generation " +
             std::to_string(generation);
    return false;
  }
  const Payload& reference = Reference(op, generation);
  bool same = false;
  switch (op.method) {
    case serve::ServeMethod::kPredict:
      same = served.labels == reference.labels;
      break;
    case serve::ServeMethod::kPredictProbabilities:
      same = SameBits(served.probabilities, reference.probabilities);
      break;
    case serve::ServeMethod::kExplain:
      same = served.explanation_fingerprint ==
             reference.explanation_fingerprint;
      break;
    case serve::ServeMethod::kQaAnswer:
      break;
  }
  if (!same) {
    *error = std::string(method) + " " + core::TaskKindName(op.task) +
             " sample " + std::to_string(op.sample) + " generation " +
             std::to_string(generation) +
             " differs from the direct session call";
  }
  return same;
}

}  // namespace perfbench
