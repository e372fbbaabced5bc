#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <semaphore>
#include <set>
#include <sstream>
#include <thread>

#include "bench.h"
#include "bench/bench_common.h"
#include "core/inference_plan.h"
#include "tensor/plan_kernels.h"
#include "util/alloc_counter.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace perfbench {

namespace {

// Share of --seconds given to the open-loop phase; the closed-loop
// saturation phase gets the rest.
constexpr double kOpenLoopShare = 0.7;
// The two phases are interleaved in slices: each slice is an open-loop
// stretch followed by a saturation stretch. The host's slow spells last
// seconds, and one contiguous saturation phase could sit inside one of
// them; slices spread both phases over the whole run.
constexpr int kSlices = 4;
// Requests the saturation generator keeps in flight: two full batches per
// worker, far below the queue bound, so saturation never sheds.
constexpr int kInFlight = 2 * kServerWorkers * 8;
// Pre-generated saturation requests per second of the phase: several times
// today's peak, so a faster program does not run out.
constexpr double kSaturationOpsPerSecond = 8000.0;
// Long enough that no request expires at the workloads' rates.
constexpr int64_t kDeadlineUs = 2'000'000;
// Set-ups per run; setup_s is their median. One set-up takes ~0.15 s and
// varies by tens of percent with the host, so it takes many.
constexpr int kSetupRepeats = 15;
// Replay sizes.
constexpr size_t kReplayCalls = 1000;
constexpr size_t kReplayQaCalls = 200;
constexpr size_t kReplayBatches = 64;
constexpr int kGemmRepeats = 64;
// Trace accounting tolerance: the children of a request span must cover
// it to within 5% or 200 us, whichever is larger, for 95% of requests. An
// accounting bug misses on nearly every request; a worker descheduled
// between finishing a batch and running its callbacks misses on a few.
constexpr double kCoverageRelTolerance = 0.05;
constexpr double kCoverageAbsToleranceMs = 0.2;
constexpr double kCoverageRequiredShare = 0.95;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

void PutSummary(Metrics& metrics, const std::string& name,
                const std::vector<double>& values, const std::string& unit) {
  const Summary summary = Summarize(values);
  metrics[name + ".p50"] = {summary.p50, unit};
  metrics[name + ".p99"] = {summary.p99, unit};
  metrics[name + ".n"] = {static_cast<double>(summary.n), "count"};
}

// Per-request state of one phase. The generator writes the send fields,
// the completion callback the rest; the phase reads them only after every
// request has completed (completed_ is the release/acquire edge).
struct Record {
  enum State : uint8_t { kPending, kOk, kRefused, kFailed };
  int64_t sched_ns = 0;
  int64_t send_ns = 0;
  int64_t submit_end_ns = 0;
  int64_t done_ns = 0;
  int64_t queue_us = 0;
  int64_t total_us = 0;
  uint64_t generation = 0;
  int batch_size = 0;
  bool cache_hit = false;
  State state = kPending;
  util::StatusCode code = util::StatusCode::kOk;
};

class Phase {
 public:
  Phase(Fixture& fixture, std::vector<Op> ops, SpanBuffer* trace,
        int64_t id_base)
      : fixture_(fixture),
        ops_(std::move(ops)),
        records_(ops_.size()),
        payloads_(ops_.size()),
        trace_(trace),
        id_base_(id_base) {}

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  /// Sends every op at its scheduled time regardless of completions. With
  /// `rollouts` > 0 a control thread rolls the model out at evenly spaced
  /// points of the schedule.
  void RunOpenLoop(int rollouts) {
    const int64_t span_ns = ops_.empty() ? 0 : ops_.back().t_ns;
    start_ns_ = NowNs() + 1'000'000;
    std::thread control;
    if (rollouts > 0) {
      control = std::thread([this, rollouts, span_ns] {
        for (int i = 0; i < rollouts; ++i) {
          const int64_t at = start_ns_ + span_ns * (i + 1) / (rollouts + 1);
          SleepUntil(at);
          const int64_t begin = NowNs();
          rollouts_.push_back(Rollout(fixture_));
          if (trace_ != nullptr) {
            trace_->Add("control.rollout", begin, NowNs(), -1, kLaneControl);
          }
        }
      });
    }
    for (size_t i = 0; i < ops_.size(); ++i) {
      const int64_t sched = start_ns_ + ops_[i].t_ns;
      SleepUntil(sched);
      Send(i, sched);
    }
    WaitForAll(ops_.size());
    if (control.joinable()) control.join();
    sent_ = ops_.size();
  }

  /// Keeps kInFlight requests outstanding for `seconds`, or until the
  /// pre-generated requests run out.
  void RunClosedLoop(double seconds) {
    std::counting_semaphore<kInFlight> slots(kInFlight);
    slots_ = &slots;
    start_ns_ = NowNs();
    const int64_t end_ns = start_ns_ + static_cast<int64_t>(seconds * 1e9);
    size_t i = 0;
    for (; i < ops_.size(); ++i) {
      slots.acquire();
      const int64_t now = NowNs();
      if (now >= end_ns) {
        slots.release();
        break;
      }
      Send(i, now);
    }
    sent_ = i;
    WaitForAll(sent_);
    slots_ = nullptr;
  }

  size_t sent() const { return sent_; }
  const Op& op(size_t i) const { return ops_[i]; }
  const Record& record(size_t i) const { return records_[i]; }
  const Payload& payload(size_t i) const { return payloads_[i]; }
  const std::vector<RolloutTiming>& rollouts() const { return rollouts_; }
  int64_t start_ns() const { return start_ns_; }

 private:
  static void SleepUntil(int64_t target_ns) {
    const int64_t now = NowNs();
    if (target_ns > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(target_ns - now));
    }
  }

  void Send(size_t i, int64_t sched) {
    const Op& op = ops_[i];
    Record& record = records_[i];
    record.sched_ns = sched;
    serve::ServeRequest request;
    request.method = op.method;
    request.task = op.task;
    request.sample_id = op.sample;
    request.trace_id = static_cast<uint64_t>(id_base_ + static_cast<int64_t>(i));
    record.send_ns = NowNs();
    request.deadline_us = util::MonotonicNowUs() + kDeadlineUs;
    const util::Status admitted = fixture_.server->Submit(
        std::move(request),
        [this, i](serve::ServeResponse&& response) { Complete(i, response); });
    record.submit_end_ns = NowNs();
    if (trace_ != nullptr) {
      const int64_t id = id_base_ + static_cast<int64_t>(i);
      trace_->Add("bench.late", sched, record.send_ns, id, kLaneChild);
      trace_->Add("serve.submit", record.send_ns, record.submit_end_ns, id,
                  kLaneChild);
    }
    if (!admitted.ok()) {
      record.state = Record::kRefused;
      record.code = admitted.code();
      if (slots_ != nullptr) slots_->release();
      completed_.fetch_add(1, std::memory_order_release);
    }
  }

  void Complete(size_t i, serve::ServeResponse& response) {
    Record& record = records_[i];
    record.done_ns = NowNs();
    record.code = response.status.code();
    record.state = response.status.ok() ? Record::kOk : Record::kFailed;
    record.queue_us = response.queue_wait_us;
    record.total_us = response.total_us;
    record.generation = response.model_generation;
    record.batch_size = response.batch_size;
    record.cache_hit = response.cache_hit;
    if (response.status.ok()) {
      payloads_[i] = TakePayload(ops_[i].method, response);
    }
    if (trace_ != nullptr) {
      // Queue and exec are rebuilt from the response telemetry, anchored
      // at the completion.
      const int64_t id = id_base_ + static_cast<int64_t>(i);
      const int64_t exec_ns = (record.total_us - record.queue_us) * 1000;
      const int64_t exec_start = record.done_ns - exec_ns;
      trace_->Add("request", record.sched_ns, record.done_ns, id,
                  kLaneRequest);
      trace_->Add("serve.queue", exec_start - record.queue_us * 1000,
                  exec_start, id, kLaneChild);
      trace_->Add("serve.exec", exec_start, record.done_ns, id, kLaneChild);
    }
    if (slots_ != nullptr) slots_->release();
    completed_.fetch_add(1, std::memory_order_release);
  }

  void WaitForAll(size_t n) {
    while (completed_.load(std::memory_order_acquire) < n) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  Fixture& fixture_;
  const std::vector<Op> ops_;
  std::vector<Record> records_;
  std::vector<Payload> payloads_;
  SpanBuffer* trace_;
  const int64_t id_base_;
  std::counting_semaphore<kInFlight>* slots_ = nullptr;
  std::atomic<size_t> completed_{0};
  size_t sent_ = 0;
  int64_t start_ns_ = 0;
  std::vector<RolloutTiming> rollouts_;  // Control thread only until join.
};

// What the open-loop and saturation phases measured.
struct Tally {
  int64_t sent = 0, ok = 0, refused = 0, failed = 0;
  int64_t preempted = 0, expired = 0;
  std::vector<double> latency_ms;
  std::vector<double> queue_ms, exec_ms, submit_us, lateness_ms;
  double batch_size_sum = 0.0;
  int64_t batched = 0;
  int64_t slo_met = 0;
  // Trace accounting over OK requests.
  double child_ms_sum = 0.0, request_ms_sum = 0.0;
  int64_t covered = 0;
};

void CountPhase(const Phase& phase, double slo_ms, Tally& t) {
  for (size_t i = 0; i < phase.sent(); ++i) {
    const Record& r = phase.record(i);
    ++t.sent;
    t.submit_us.push_back(Us(r.submit_end_ns - r.send_ns));
    t.lateness_ms.push_back(Ms(r.send_ns - r.sched_ns));
    if (r.state == Record::kRefused) {
      ++t.refused;
      continue;
    }
    if (r.state != Record::kOk) {
      ++t.failed;
      if (r.code == util::StatusCode::kResourceExhausted) ++t.preempted;
      if (r.code == util::StatusCode::kDeadlineExceeded) ++t.expired;
      continue;
    }
    ++t.ok;
    const double latency = Ms(r.done_ns - r.sched_ns);
    t.latency_ms.push_back(latency);
    if (latency <= slo_ms) ++t.slo_met;
    if (!r.cache_hit) {
      t.queue_ms.push_back(static_cast<double>(r.queue_us) / 1e3);
      t.exec_ms.push_back(static_cast<double>(r.total_us - r.queue_us) / 1e3);
      t.batch_size_sum += r.batch_size;
      ++t.batched;
    }
    const double children = Ms(r.send_ns - r.sched_ns) +
                            Ms(r.submit_end_ns - r.send_ns) +
                            static_cast<double>(r.total_us) / 1e3;
    t.child_ms_sum += children;
    t.request_ms_sum += latency;
    if (std::abs(children - latency) <=
        std::max(kCoverageRelTolerance * latency, kCoverageAbsToleranceMs)) {
      ++t.covered;
    }
  }
}

Tally Count(const std::vector<std::unique_ptr<Phase>>& phases, double slo_ms) {
  Tally t;
  for (const auto& phase : phases) CountPhase(*phase, slo_ms, t);
  return t;
}

void PrintPhase(const char* workload, const char* phase, const Tally& t) {
  std::printf("[perfbench] %s %s: sent %lld, succeeded %lld, failed %lld "
              "(refused %lld)\n",
              workload, phase, static_cast<long long>(t.sent),
              static_cast<long long>(t.ok),
              static_cast<long long>(t.failed + t.refused),
              static_cast<long long>(t.refused));
}

// Median over the half-second buckets of the closed-loop phases of the
// requests completed OK in each, as a rate: a stall of the host moves one
// bucket, not the phase.
double PeakRps(const std::vector<std::unique_ptr<Phase>>& phases,
               double seconds) {
  constexpr int64_t kBucketNs = 500'000'000;
  const size_t buckets_per_phase = static_cast<size_t>(
      std::max(1.0, std::floor(seconds * 1e9 / kBucketNs)));
  std::vector<double> per_bucket;
  for (const auto& phase : phases) {
    std::vector<double> counts(buckets_per_phase, 0.0);
    for (size_t i = 0; i < phase->sent(); ++i) {
      const Record& r = phase->record(i);
      if (r.state != Record::kOk) continue;
      const int64_t bucket = (r.done_ns - phase->start_ns()) / kBucketNs;
      if (bucket < static_cast<int64_t>(counts.size())) {
        counts[static_cast<size_t>(bucket)] += 1.0;
      }
    }
    per_bucket.insert(per_bucket.end(), counts.begin(), counts.end());
  }
  return Median(per_bucket) * 1e9 / kBucketNs;
}

// Compares every OK response of `phases` with a direct call; records the
// first few mismatches.
void CheckPhases(const std::vector<std::unique_ptr<Phase>>& phases,
                 OutputChecker& checker, RunResult& result) {
  for (const auto& phase : phases) {
    for (size_t i = 0; i < phase->sent(); ++i) {
      if (phase->record(i).state != Record::kOk) continue;
      std::string error;
      if (!checker.Check(phase->op(i), phase->record(i).generation,
                         phase->payload(i), &error)) {
        result.correct = false;
        if (result.errors.size() < 5) result.errors.push_back(error);
      }
    }
  }
}

// The seeded requests of one pass, split into slices, generated before
// timing starts. Open-loop times are offsets from their slice's start.
struct PassInputs {
  std::vector<std::vector<Op>> open;
  std::vector<std::vector<Op>> saturation;
  double saturation_slice_s = 0.0;
  int rollouts_per_slice = 0;
  bool rollouts_under_traffic = false;
  size_t size() const {
    size_t n = 0;
    for (const auto& ops : open) n += ops.size();
    for (const auto& ops : saturation) n += ops.size();
    return n;
  }
};

PassInputs MakePassInputs(const WorkloadSpec& spec, const Inputs& inputs,
                          uint64_t seed, double seconds) {
  PassInputs pass;
  const double open_s = seconds * kOpenLoopShare;
  const int64_t slice_ns = static_cast<int64_t>(open_s / kSlices * 1e9);
  pass.open.resize(kSlices);
  for (Op op : OpenLoopSchedule(spec, inputs, seed, open_s)) {
    const int64_t slice = std::min<int64_t>(kSlices - 1, op.t_ns / slice_ns);
    op.t_ns -= slice * slice_ns;
    pass.open[static_cast<size_t>(slice)].push_back(op);
  }
  pass.saturation_slice_s = (seconds - open_s) / kSlices;
  const size_t per_slice =
      static_cast<size_t>(pass.saturation_slice_s * kSaturationOpsPerSecond) +
      1000;
  const std::vector<Op> saturation =
      SaturationOps(spec, inputs, seed, per_slice * kSlices);
  for (int k = 0; k < kSlices; ++k) {
    pass.saturation.emplace_back(saturation.begin() + k * per_slice,
                                 saturation.begin() + (k + 1) * per_slice);
  }
  pass.rollouts_per_slice = spec.rollouts / kSlices;
  pass.rollouts_under_traffic = spec.rollouts_under_traffic;
  return pass;
}

// The timed phases of one pass, in the order they ran, and its rollouts.
struct Pass {
  std::vector<std::unique_ptr<Phase>> open;
  std::vector<std::unique_ptr<Phase>> saturation;
  std::vector<RolloutTiming> rollouts;
};

// Runs the slices. Rollouts run during each open-loop stretch, or on the
// idle server after each saturation stretch, so that they too sample the
// whole run.
Pass RunPass(Fixture& fixture, const PassInputs& inputs, SpanBuffer* trace) {
  Pass pass;
  int64_t id_base = 0;
  for (int k = 0; k < kSlices; ++k) {
    pass.open.push_back(
        std::make_unique<Phase>(fixture, inputs.open[k], trace, id_base));
    id_base += static_cast<int64_t>(inputs.open[k].size());
    Phase& open = *pass.open.back();
    open.RunOpenLoop(inputs.rollouts_under_traffic ? inputs.rollouts_per_slice
                                                   : 0);
    pass.rollouts.insert(pass.rollouts.end(), open.rollouts().begin(),
                         open.rollouts().end());
    pass.saturation.push_back(
        std::make_unique<Phase>(fixture, inputs.saturation[k], trace, id_base));
    id_base += static_cast<int64_t>(inputs.saturation[k].size());
    pass.saturation.back()->RunClosedLoop(inputs.saturation_slice_s);
    if (inputs.rollouts_under_traffic) continue;
    for (int i = 0; i < inputs.rollouts_per_slice; ++i) {
      const int64_t begin = NowNs();
      pass.rollouts.push_back(Rollout(fixture));
      if (trace != nullptr) {
        trace->Add("control.rollout", begin, NowNs(), -1, kLaneControl);
      }
    }
  }
  return pass;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// Times `fn` and records a replay span named `name`.
template <typename Fn>
double TimeUs(SpanBuffer& trace, const char* name, Fn&& fn) {
  const int64_t start = NowNs();
  fn();
  const int64_t end = NowNs();
  trace.Add(name, start, end, -1, kLaneReplay);
  return Us(end - start);
}

// Single-thread replay of the workload's seeded inputs through each
// layer's public calls.
void Replay(Fixture& fixture, const PassInputs& inputs, SpanBuffer& trace,
            Metrics& metrics) {
  const core::InferenceSession& session = fixture.model->session();
  std::vector<std::pair<core::TaskKind, int>> samples;
  for (const std::vector<Op>& ops : inputs.open) {
    for (size_t i = 0; i < ops.size() && samples.size() < kReplayCalls; ++i) {
      samples.emplace_back(ops[i].task, ops[i].sample);
    }
  }
  CHECK(!samples.empty()) << "replay needs requests";

  // Warm this thread's workspace before timing.
  for (size_t i = 0; i < std::min<size_t>(samples.size(), 16); ++i) {
    session.Explain(samples[i].first, samples[i].second);
  }

  // core: plans, Predict, PredictProbabilities, Explain.
  std::vector<double> plan_us, predict_us, explain_us, tail_us, allocs;
  std::vector<float> cls, logits;
  for (const auto& [task, id] : samples) {
    const core::InferencePlan* plan = session.PlanFor(task, id);
    CHECK(plan != nullptr) << "session serves without compiled plans";
    const text::EncodedSequence& seq =
        session.task_data(task).samples[static_cast<size_t>(id)].seq;
    cls.resize(static_cast<size_t>(plan->d_model));
    logits.resize(static_cast<size_t>(std::max<int64_t>(plan->num_labels, 1)));
    core::PlanRun run;
    run.token_ids = seq.ids.data();
    run.segment_ids = plan->has_segments ? seq.segments.data() : nullptr;
    run.encoder_out = cls.data();
    run.encoder_out_rows = 1;
    run.logits = plan->num_labels > 0 ? logits.data() : nullptr;
    plan_us.push_back(
        TimeUs(trace, "core.RunPlan", [&] { core::RunPlan(*plan, run); }));

    util::ScopedAllocCounter counter;
    predict_us.push_back(TimeUs(trace, "core.Predict",
                                [&] { session.Predict(task, id); }));
    allocs.push_back(static_cast<double>(counter.Delta().allocations));

    const double probabilities_us =
        TimeUs(trace, "core.PredictProbabilities",
               [&] { session.PredictProbabilities(task, id); });
    const double explain = TimeUs(trace, "core.Explain",
                                  [&] { session.Explain(task, id); });
    explain_us.push_back(explain);
    tail_us.push_back(explain - probabilities_us);
  }
  PutSummary(metrics, "core.plan_run_us", plan_us, "us");
  PutSummary(metrics, "core.predict_us", predict_us, "us");
  PutSummary(metrics, "core.explain_us", explain_us, "us");
  PutSummary(metrics, "core.explain_tail_us", tail_us, "us");
  metrics["core.allocs_per_predict"] = {Median(allocs), "count"};

  // core: PredictBatch(8) per sample against Predict, half the batches
  // from each task.
  std::vector<double> batch_per_sample_us;
  for (core::TaskKind task : {core::TaskKind::kType, core::TaskKind::kRelation}) {
    std::vector<int> batch;
    size_t batches = 0;
    for (const auto& [kind, id] : samples) {
      if (kind != task || batches == kReplayBatches / 2) continue;
      batch.push_back(id);
      if (batch.size() < 8) continue;
      batch_per_sample_us.push_back(
          TimeUs(trace, "core.PredictBatch",
                 [&] { session.PredictBatch(task, batch); }) /
          8.0);
      batch.clear();
      ++batches;
    }
  }
  metrics["core.batch8_per_sample_ratio"] = {
      Median(batch_per_sample_us) / Median(predict_us), "ratio"};

  // tensor: every distinct weight-GEMM shape of the plans served above.
  std::set<std::tuple<int64_t, int64_t, int64_t, int64_t, bool>> shapes;
  std::vector<const core::PlanInstr*> gemms;
  for (const auto& [task, id] : samples) {
    for (const core::PlanInstr& instr : session.PlanFor(task, id)->instrs) {
      if (instr.op != core::PlanOpCode::kGemm || instr.b_off >= 0 ||
          instr.weight == nullptr) {
        continue;
      }
      if (shapes.emplace(instr.m, instr.k, instr.n, instr.ldb, instr.trans_b)
              .second) {
        gemms.push_back(&instr);
      }
    }
  }
  double flops = 0.0, bytes = 0.0, gemm_s = 0.0;
  for (const core::PlanInstr* gemm : gemms) {
    std::vector<float> a(static_cast<size_t>(gemm->m * gemm->k));
    for (size_t i = 0; i < a.size(); ++i) a[i] = 0.001f * static_cast<float>(i % 97);
    std::vector<float> c(static_cast<size_t>(gemm->m * gemm->n));
    for (int rep = 0; rep < kGemmRepeats; ++rep) {
      gemm_s += TimeUs(trace, "tensor.ServingGemm", [&] {
                  tensor::ZeroRows(c.data(), gemm->n, gemm->m, gemm->n);
                  tensor::ServingGemm(a.data(), gemm->k, gemm->weight,
                                      gemm->ldb, gemm->trans_b, c.data(),
                                      gemm->n, gemm->m, gemm->k, gemm->n);
                }) / 1e6;
      flops += 2.0 * static_cast<double>(gemm->m * gemm->k * gemm->n);
      bytes += 4.0 * static_cast<double>(gemm->m * gemm->k +
                                         gemm->k * gemm->n +
                                         gemm->m * gemm->n);
    }
  }
  metrics["tensor.gemm_gflops"] = {flops / gemm_s / 1e9, "GFLOP/s"};
  metrics["tensor.gemm_gbytes_per_s"] = {bytes / gemm_s / 1e9, "GB/s"};

  // ann: a store the bench builds from EncodeBatch with the model's store
  // options, searched with the served samples' embeddings.
  std::vector<double> search_us;
  core::EmbeddingStore::Options store_options;
  store_options.num_segments = std::max(1, session.config().store_segments);
  for (core::TaskKind task : {core::TaskKind::kType, core::TaskKind::kRelation}) {
    const core::TaskData& data = session.task_data(task);
    core::EmbeddingStore store(store_options);
    store.Rebuild(data.train_ids, session.EncodeBatch(task, data.train_ids));
    const core::EmbeddingStore::View view = store.view();
    std::vector<int> ids;
    for (const auto& [kind, id] : samples) {
      if (kind == task) ids.push_back(id);
    }
    if (ids.empty()) continue;
    const std::vector<std::vector<float>> queries = session.EncodeBatch(task, ids);
    std::vector<ann::SearchResult> out;
    for (const std::vector<float>& query : queries) {
      search_us.push_back(TimeUs(trace, "ann.SearchInto", [&] {
        view.SearchInto(query, session.config().top_k, -1, &out);
      }));
    }
  }
  PutSummary(metrics, "ann.search_us", search_us, "us");

  // qa: distillation, answers (every table's point and find query, then
  // point queries on the replayed samples), surrogate scoring.
  std::unique_ptr<qa::QaEngine> engine;
  const double distill_us = TimeUs(trace, "qa.QaEngine", [&] {
    engine = std::make_unique<qa::QaEngine>(&session, QaReplayOptions());
  });
  metrics["qa.distill_s"] = {distill_us / 1e6, "s"};
  std::vector<qa::QaQuery> queries = fixture.inputs.queries;
  for (size_t i = 0; queries.size() < kReplayQaCalls && i < samples.size(); ++i) {
    qa::QaQuery point;
    point.kind = samples[i].first == core::TaskKind::kType
                     ? qa::QaQueryKind::kColumnType
                     : qa::QaQueryKind::kRelationBetween;
    point.sample_ids = {samples[i].second};
    queries.push_back(point);
  }
  std::vector<double> answer_us;
  int64_t surrogate_steps = 0, escalated_steps = 0;
  for (const qa::QaQuery& query : queries) {
    util::StatusOr<qa::QaAnswer> answer = util::Status::Internal("unset");
    answer_us.push_back(TimeUs(trace, "qa.Answer",
                               [&] { answer = engine->Answer(query); }));
    CHECK(answer.ok()) << answer.status().ToString();
    surrogate_steps += answer.value().surrogate_steps;
    escalated_steps += answer.value().escalated_steps;
  }
  PutSummary(metrics, "qa.answer_us", answer_us, "us");
  metrics["qa.escalation_ratio"] = {
      surrogate_steps + escalated_steps == 0
          ? 0.0
          : static_cast<double>(escalated_steps) /
                static_cast<double>(surrogate_steps + escalated_steps),
      "ratio"};
  std::vector<double> score_us;
  qa::SurrogateModel::Scratch scratch;
  for (const auto& [task, id] : samples) {
    const qa::SurrogateModel* surrogate = engine->surrogate(task);
    CHECK(surrogate != nullptr) << engine->surrogate_status().ToString();
    float confidence = 0.0f;
    util::Status scored;
    score_us.push_back(TimeUs(trace, "qa.SurrogateScoreInto", [&] {
      scored = surrogate->ScoreInto(id, &scratch, &confidence);
    }));
    CHECK(scored.ok()) << scored.ToString();
  }
  PutSummary(metrics, "qa.surrogate_score_us", score_us, "us");
}

std::string MetadataJson(const RunOptions& options) {
  std::ostringstream os;
  os << "{" << bench::HostMetaJson() << ", \"workload\": \""
     << options.spec->name << "\", \"seed\": " << options.seed
     << ", \"seconds\": " << options.seconds
     << ", \"server_workers\": " << kServerWorkers
     << ", \"pool_threads\": " << kPoolThreads
     << ", \"bench_threads\": " << kBenchThreads << "}";
  return os.str();
}

}  // namespace

RunResult RunWorkload(const RunOptions& options) {
  const WorkloadSpec& spec = *options.spec;
  util::SetGlobalThreadCount(kPoolThreads);
  RunResult result;
  std::printf("[perfbench] meta %s\n", MetadataJson(options).c_str());

  // Set-up, timed until the first request can be sent.
  std::unique_ptr<Fixture> fixture;
  std::vector<double> setup_s;
  for (int i = 0; i < (options.trace ? 1 : kSetupRepeats); ++i) {
    fixture.reset();
    const int64_t start = NowNs();
    fixture = SetUp(options.workdir);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  // Every input is generated before timing starts.
  const PassInputs requests =
      MakePassInputs(spec, fixture->inputs, options.seed, options.seconds);

  // Trace runs first run the pass untraced, as the baseline for
  // trace.overhead, then set up afresh and run it traced: both passes
  // start from generation 1 with in-memory stores, so tracing is the only
  // difference between them.
  std::unique_ptr<SpanBuffer> trace;
  double baseline_p50_ms = 0.0;
  if (options.trace) {
    {
      const Pass baseline = RunPass(*fixture, requests, nullptr);
      OutputChecker checker(*fixture);
      CheckPhases(baseline.open, checker, result);
      CheckPhases(baseline.saturation, checker, result);
      const Tally b = Count(baseline.open, spec.slo_ms);
      const Tally bs = Count(baseline.saturation, spec.slo_ms);
      PrintPhase(spec.name, "untraced open-loop", b);
      PrintPhase(spec.name, "untraced saturation", bs);
      result.attempted += b.sent + bs.sent;
      result.failed += b.failed + b.refused + bs.failed + bs.refused;
      baseline_p50_ms = Percentile(b.latency_ms, 0.5);
    }
    fixture.reset();
    fixture = SetUp(options.workdir);
    trace = std::make_unique<SpanBuffer>(5 * requests.size() +
                                         2 * 64 * kReplayCalls);
  }
  const Pass pass = RunPass(*fixture, requests, trace.get());

  // Output check, after the timed phases.
  OutputChecker checker(*fixture);
  CheckPhases(pass.open, checker, result);
  CheckPhases(pass.saturation, checker, result);

  const Tally o = Count(pass.open, spec.slo_ms);
  const Tally s = Count(pass.saturation, spec.slo_ms);
  PrintPhase(spec.name, "open-loop", o);
  PrintPhase(spec.name, "saturation", s);
  std::printf("[perfbench] %s output check: %lld responses, %s\n", spec.name,
              static_cast<long long>(checker.checked()),
              result.correct ? "all identical to direct calls" : "MISMATCH");
  result.attempted += o.sent + s.sent;
  result.failed += o.failed + o.refused + s.failed + s.refused;
  if (!TailSupported(o.latency_ms.size(), 0.99)) {
    result.correct = false;
    result.errors.push_back("open-loop phase too short for a p99");
  }
  std::vector<double> rollout_s, refresh_ms, load_ms, swap_ms;
  for (const RolloutTiming& r : pass.rollouts) {
    rollout_s.push_back(r.rollout_s());
    refresh_ms.push_back(r.refresh_ms);
    load_ms.push_back(r.load_ms);
    swap_ms.push_back(r.swap_ms);
  }

  Metrics& m = result.metrics;
  if (!options.trace) {
    m["setup_s"] = {Median(setup_s), "s"};
    m["latency_p50_ms"] = {Percentile(o.latency_ms, 0.5), "ms"};
    m["slo_attainment"] = {
        static_cast<double>(o.slo_met) / static_cast<double>(o.sent), "ratio"};
    m["peak_rps"] = {PeakRps(pass.saturation, requests.saturation_slice_s),
                     "req/s"};
    m["rollout_s"] = {Median(rollout_s), "s"};
    m["peak_rss_mb"] = {PeakRssMb(), "MB"};
    return result;
  }

  // Per-layer metrics from the traced pass. latency_p99_ms is reported
  // here, not end to end: it is set by stalls of the host, and on a shared
  // VM it follows the host's steal time from run to run.
  m["latency_p99_ms"] = {Percentile(o.latency_ms, 0.99), "ms"};
  m["error_rate"] = {static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted),
                     "ratio"};
  PutSummary(m, "serve.submit_us", o.submit_us, "us");
  PutSummary(m, "serve.queue_wait_ms", o.queue_ms, "ms");
  PutSummary(m, "serve.exec_ms", o.exec_ms, "ms");
  m["serve.batch_size_mean"] = {
      o.batched == 0 ? 0.0 : o.batch_size_sum / static_cast<double>(o.batched),
      "count"};
  m["serve.batch_size_mean.saturation"] = {
      s.batched == 0 ? 0.0 : s.batch_size_sum / static_cast<double>(s.batched),
      "count"};
  const serve::ResponseCache* cache = fixture->server->cache();
  const double lookups = static_cast<double>(cache->hits() + cache->misses());
  m["serve.cache_hit_ratio"] = {
      lookups == 0 ? 0.0 : static_cast<double>(cache->hits()) / lookups, "ratio"};
  m["serve.cache_evictions"] = {static_cast<double>(cache->evictions()), "count"};
  m["serve.rejected"] = {static_cast<double>(o.refused + s.refused), "count"};
  m["serve.preempted"] = {static_cast<double>(o.preempted + s.preempted), "count"};
  m["serve.expired"] = {static_cast<double>(o.expired + s.expired), "count"};
  PutSummary(m, "core.store_refresh_ms", refresh_ms, "ms");
  PutSummary(m, "core.replica_load_ms", load_ms, "ms");
  PutSummary(m, "serve.swap_ms", swap_ms, "ms");
  m["bench.lateness_p99_ms"] = {Percentile(o.lateness_ms, 0.99), "ms"};
  const double coverage = o.child_ms_sum / o.request_ms_sum;
  const double covered_share =
      static_cast<double>(o.covered) / static_cast<double>(o.ok);
  m["trace.coverage"] = {coverage, "ratio"};
  m["trace.covered_share"] = {covered_share, "ratio"};
  m["trace.overhead"] = {Percentile(o.latency_ms, 0.5) / baseline_p50_ms - 1.0,
                         "ratio"};
  if (covered_share < kCoverageRequiredShare) {
    result.correct = false;
    result.errors.push_back("trace children cover only " +
                            std::to_string(covered_share) +
                            " of request spans within tolerance");
  }

  Replay(*fixture, requests, *trace, m);
  m["trace.dropped_spans"] = {static_cast<double>(trace->dropped()), "count"};
  if (!trace->WriteChromeJson(options.trace_path, pass.open.front()->start_ns(),
                              MetadataJson(options))) {
    result.correct = false;
    result.errors.push_back("cannot write " + options.trace_path);
  }
  std::printf("[perfbench] trace: %zu spans -> %s\n", trace->size(),
              options.trace_path.c_str());
  return result;
}

std::string ResultJson(const RunResult& result) {
  std::ostringstream os;
  os.precision(10);
  os << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << (std::isfinite(metric.value) ? metric.value : 0.0)
       << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::vector<std::string> ForeignSettings(char** environ_ptr) {
  std::vector<std::string> names;
  for (char** env = environ_ptr; env != nullptr && *env != nullptr; ++env) {
    const std::string entry(*env);
    if (entry.rfind("EXPLAINTI_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  return names;
}

}  // namespace perfbench
