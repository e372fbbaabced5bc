#ifndef EXPLAINTI_PERFBENCH_BENCH_H_
#define EXPLAINTI_PERFBENCH_BENCH_H_

// The repository benchmark: open-loop serving workloads against
// serve::InferenceServer over the library's default ExplainTiConfig, an
// output check of every served response, and a traced replay that times
// each layer's public calls. See perfbench/README.md for the workloads and
// the metric definitions.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/config.h"
#include "core/explain_ti_model.h"
#include "core/explanation.h"
#include "core/inference_session.h"
#include "data/corpus.h"
#include "qa/engine.h"
#include "qa/query.h"
#include "serve/request.h"
#include "serve/server.h"

namespace perfbench {

using namespace explainti;

// ---------------------------------------------------------------------------
// Statistics.

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 for empty input.
double Percentile(std::vector<double> values, double q);

/// True when `n` samples leave at least 10 beyond the q-th percentile, so
/// the percentile is not set by a handful of outliers.
bool TailSupported(size_t n, double q);

/// Median, 99th percentile and sample count of one timing series.
struct Summary {
  double p50 = 0.0;
  double p99 = 0.0;
  int64_t n = 0;
};
Summary Summarize(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Workloads and their seeded inputs.

enum class WorkloadKind { kAnnotateScan, kExplainRollout };

/// Fixed description of one workload. Rates are absolute: they never
/// depend on a capacity measured at run time.
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kAnnotateScan;
  const char* name = "";
  double rate_rps = 0.0;        ///< Mean offered rate of the open-loop phase.
  double slo_ms = 0.0;          ///< Latency limit for slo_attainment.
  int rollouts = 0;             ///< Model rollouts per run, a multiple of 4.
  /// During the open loop; otherwise on the idle server between slices.
  bool rollouts_under_traffic = false;
};

/// Returns null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// One request to send.
struct Op {
  int64_t t_ns = 0;  ///< Scheduled offset from the phase start (open loop).
  serve::ServeMethod method = serve::ServeMethod::kPredict;
  core::TaskKind task = core::TaskKind::kType;
  int sample = -1;
  bool operator==(const Op& other) const = default;
};

/// Seed-independent material the generators draw from, derived from the
/// fixed corpus: every sample of both tasks, and the replay's QA queries
/// (a point and a find query per table with at least 4 columns).
struct Inputs {
  std::vector<int> type_ids;
  std::vector<int> relation_ids;
  std::vector<qa::QaQuery> queries;
};
Inputs BuildInputs(const data::TableCorpus& corpus,
                   const core::InferenceSession& session);

/// The open-loop schedule for `seconds` of traffic, sorted by t_ns.
std::vector<Op> OpenLoopSchedule(const WorkloadSpec& spec,
                                 const Inputs& inputs, uint64_t seed,
                                 double seconds);

/// `count` requests for the closed-loop saturation phase: the workload's
/// mix, drawn from a stream independent of the open-loop schedule.
std::vector<Op> SaturationOps(const WorkloadSpec& spec, const Inputs& inputs,
                              uint64_t seed, size_t count);

// ---------------------------------------------------------------------------
// The program under test.

/// The fixed thread budget: server workers plus a 1-participant util pool
/// (no pool threads). With the generator and the control thread this is
/// four busy threads.
inline constexpr int kServerWorkers = 2;
inline constexpr int kPoolThreads = 1;
inline constexpr int kBenchThreads = 2;  ///< Generator + control thread.

/// Wiki corpus size: 125 type and 43 relation samples. Fixed so that the
/// served model is the same for every workload seed.
inline constexpr int kCorpusTables = 40;

/// QA options of the replay's engine: the surrogate cascade armed,
/// defaults otherwise.
qa::QaOptions QaReplayOptions();

/// The one ServerOptions shape every workload uses.
serve::ServerOptions ServingShape();

/// Everything a run serves from. Members are declared in dependency order
/// so that the server is destroyed before the models it borrows.
struct Fixture {
  data::TableCorpus corpus;
  core::ExplainTiConfig config;
  std::unique_ptr<core::ExplainTiModel> model;
  std::string weights_path;
  core::ExplainTiConfig replica_config;  ///< config + saved store_dir.
  /// Models swapped in by rollouts; generation g >= 2 is replicas[g - 2].
  std::vector<std::unique_ptr<core::ExplainTiModel>> replicas;
  std::unique_ptr<serve::InferenceServer> server;
  Inputs inputs;

  /// The session that served `generation` (1 = the set-up model).
  const core::InferenceSession* SessionOf(uint64_t generation) const;
  /// The model currently serving.
  core::ExplainTiModel& LiveModel();
};

/// Builds corpus, model, stores, replica checkpoint (under `workdir`) and
/// server: everything up to the first request.
std::unique_ptr<Fixture> SetUp(const std::string& workdir,
                               int corpus_tables = kCorpusTables);

/// Timings of one rollout step.
struct RolloutTiming {
  double refresh_ms = 0.0;  ///< RefreshStores on the live model.
  double load_ms = 0.0;     ///< LoadReplicaForSwap.
  double swap_ms = 0.0;     ///< SwapSession.
  /// LoadReplicaForSwap start to SwapSession return (rollout_s).
  double rollout_s() const { return (load_ms + swap_ms) / 1e3; }
};

/// RefreshStores on the live model, then loads a replica from the set-up
/// checkpoint and hot-swaps the server to it. Aborts on failure.
RolloutTiming Rollout(Fixture& fixture);

// ---------------------------------------------------------------------------
// Output check.

/// What a served response said, kept per request until the check. Explain
/// payloads are kept as a fingerprint over every bit of every field, so a
/// run's memory does not grow with its Explain traffic.
struct Payload {
  std::vector<int> labels;
  std::vector<float> probabilities;
  uint64_t explanation_fingerprint = 0;
};

/// Bitwise fingerprint of every field of `explanation`.
uint64_t Fingerprint(const core::Explanation& explanation);

/// Moves the method's payload out of `response`.
Payload TakePayload(serve::ServeMethod method, serve::ServeResponse& response);

/// Compares OK responses with direct calls on the session of their
/// model_generation. Direct results are computed once per distinct input.
class OutputChecker {
 public:
  explicit OutputChecker(const Fixture& fixture) : fixture_(fixture) {}

  /// Returns false on a mismatch and describes it in `error`.
  bool Check(const Op& op, uint64_t generation, const Payload& served,
             std::string* error);

  int64_t checked() const { return checked_; }

 private:
  const Payload& Reference(const Op& op, uint64_t generation);

  const Fixture& fixture_;
  std::map<std::tuple<uint64_t, int, int, int>, Payload> memo_;
  int64_t checked_ = 0;
};

// ---------------------------------------------------------------------------
// Trace spans.

/// One complete span. Spans of one request share `id`; `lane` is the
/// Chrome trace thread row (request, children, replay, control).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = -1;
  int lane = 0;
};

inline constexpr int kLaneRequest = 1;
inline constexpr int kLaneChild = 2;
inline constexpr int kLaneReplay = 3;
inline constexpr int kLaneControl = 4;

/// Preallocated span buffer: Add() is lock-free and never allocates; spans
/// beyond the capacity are counted and dropped.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity);
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  void Add(const char* name, int64_t start_ns, int64_t end_ns, int64_t id,
           int lane);
  size_t size() const;
  int64_t dropped() const;

  /// Writes Chrome trace-event JSON ("X" events, microsecond timestamps
  /// relative to `origin_ns`) with `metadata_json` as the "metadata"
  /// member. Returns false when the file cannot be written.
  bool WriteChromeJson(const std::string& path, int64_t origin_ns,
                       const std::string& metadata_json) const;

 private:
  std::vector<Span> spans_;
  std::atomic<size_t> next_{0};
  std::atomic<int64_t> dropped_{0};
};

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

// ---------------------------------------------------------------------------
// Running a workload.

/// One named metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;     ///< Scratch for the replica checkpoint.
  std::string trace_path;  ///< Trace JSON output (trace runs).
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> errors;
};

/// Runs one workload: set-up, the timed phases, the output check, and in
/// trace runs the traced pass and the replay.
RunResult RunWorkload(const RunOptions& options);

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const RunResult& result);

/// Names of set EXPLAINTI_* environment variables (the benchmark fixes the
/// program's settings itself and refuses to run with any of them).
std::vector<std::string> ForeignSettings(char** environ_ptr);

}  // namespace perfbench

#endif  // EXPLAINTI_PERFBENCH_BENCH_H_
