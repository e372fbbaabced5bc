#include <cmath>
#include <map>

#include "bench.h"
#include "util/rng.h"

namespace perfbench {

namespace {

// annotate_scan method mix.
constexpr double kScanPredictShare = 0.7;

// Scope of the replay's QA queries: the columns of one table, 4 to 16.
constexpr int kMinQaColumns = 4;
constexpr size_t kMaxQaColumns = 16;

// Independent generator streams of one workload seed.
enum Stream : uint64_t {
  kStreamOrder = 1,
  kStreamArrivals,
  kStreamMix,
  kStreamSaturation,
};

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + stream * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int64_t ExponentialGapNs(util::Rng& rng, double rate_rps) {
  return static_cast<int64_t>(-std::log(1.0 - rng.Uniform()) * 1e9 / rate_rps);
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {WorkloadKind::kAnnotateScan, "annotate_scan", /*rate_rps=*/300.0,
       /*slo_ms=*/15.0, /*rollouts=*/32, /*rollouts_under_traffic=*/false},
      {WorkloadKind::kExplainRollout, "explain_rollout", /*rate_rps=*/200.0,
       /*slo_ms=*/15.0, /*rollouts=*/24, /*rollouts_under_traffic=*/true},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Inputs BuildInputs(const data::TableCorpus& corpus,
                   const core::InferenceSession& session) {
  Inputs inputs;
  const core::TaskData& type = session.task_data(core::TaskKind::kType);
  for (int id = 0; id < static_cast<int>(type.samples.size()); ++id) {
    inputs.type_ids.push_back(id);
  }
  const core::TaskData& relation =
      session.task_data(core::TaskKind::kRelation);
  for (int id = 0; id < static_cast<int>(relation.samples.size()); ++id) {
    inputs.relation_ids.push_back(id);
  }
  std::map<int, std::vector<int>> columns_of_table;
  for (int id = 0; id < static_cast<int>(corpus.type_samples.size()); ++id) {
    columns_of_table[corpus.type_samples[id].table_index].push_back(id);
  }
  for (auto& [table, columns] : columns_of_table) {
    if (static_cast<int>(columns.size()) < kMinQaColumns) continue;
    if (columns.size() > kMaxQaColumns) columns.resize(kMaxQaColumns);
    qa::QaQuery point;
    point.kind = qa::QaQueryKind::kColumnType;
    point.sample_ids = {columns.front()};
    qa::QaQuery find;
    find.kind = qa::QaQueryKind::kFindColumnsOfType;
    find.sample_ids = columns;
    find.label_id = type.samples[columns.front()].labels.front();
    inputs.queries.push_back(point);
    inputs.queries.push_back(find);
  }
  return inputs;
}

// Scan order: one seeded shuffle of every sample, repeated pass after
// pass. Repeating the same order makes each key recur only after a full
// pass, so an LRU cache smaller than a pass never hits.
std::vector<Op> OpenLoopSchedule(const WorkloadSpec& spec,
                                 const Inputs& inputs, uint64_t seed,
                                 double seconds) {
  std::vector<std::pair<core::TaskKind, int>> order;
  for (int id : inputs.type_ids) order.emplace_back(core::TaskKind::kType, id);
  for (int id : inputs.relation_ids) {
    order.emplace_back(core::TaskKind::kRelation, id);
  }
  util::Rng order_rng(StreamSeed(seed, kStreamOrder));
  order_rng.Shuffle(order);
  util::Rng arrival_rng(StreamSeed(seed, kStreamArrivals));
  util::Rng mix_rng(StreamSeed(seed, kStreamMix));
  const int64_t end_ns = static_cast<int64_t>(seconds * 1e9);
  std::vector<Op> ops;
  size_t next = 0;
  for (int64_t t = ExponentialGapNs(arrival_rng, spec.rate_rps); t < end_ns;
       t += ExponentialGapNs(arrival_rng, spec.rate_rps)) {
    Op op;
    op.t_ns = t;
    op.task = order[next].first;
    op.sample = order[next].second;
    next = (next + 1) % order.size();
    if (spec.kind == WorkloadKind::kExplainRollout) {
      op.method = serve::ServeMethod::kExplain;
    } else {
      op.method = mix_rng.Bernoulli(kScanPredictShare)
                      ? serve::ServeMethod::kPredict
                      : serve::ServeMethod::kPredictProbabilities;
    }
    ops.push_back(op);
  }
  return ops;
}

std::vector<Op> SaturationOps(const WorkloadSpec& spec, const Inputs& inputs,
                              uint64_t seed, size_t count) {
  // The open-loop mix over a window long enough for `count` requests,
  // with arrival times dropped; wraps if the draw falls short.
  const double seconds = 1.5 * static_cast<double>(count) / spec.rate_rps + 1.0;
  std::vector<Op> mix = OpenLoopSchedule(
      spec, inputs, StreamSeed(seed, kStreamSaturation), seconds);
  std::vector<Op> ops;
  ops.reserve(count);
  for (size_t i = 0; i < count && !mix.empty(); ++i) {
    Op op = mix[i % mix.size()];
    op.t_ns = 0;
    ops.push_back(op);
  }
  return ops;
}

}  // namespace perfbench
