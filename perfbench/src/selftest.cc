// Self-tests of the benchmark's own machinery: the output check must fail
// on a mutated response, schedules must be a pure function of the seed,
// and the percentile helper must handle its edge cases. Usage:
//   perfbench_selftest [--workdir DIR]
// Exits 0 when every test passes.

#include <cmath>
#include <cstdio>
#include <string>

#include "bench.h"
#include "util/thread_pool.h"

namespace {

using namespace perfbench;

int failures = 0;

void Expect(bool condition, const std::string& what) {
  std::printf("[selftest] %s: %s\n", condition ? "ok  " : "FAIL", what.c_str());
  if (!condition) ++failures;
}

void TestPercentile() {
  Expect(Percentile({}, 0.5) == 0.0, "percentile of empty input is 0");
  Expect(Summarize({}).n == 0, "summary of empty input has n = 0");
  Expect(Percentile({7.5}, 0.5) == 7.5 && Percentile({7.5}, 0.99) == 7.5,
         "single sample is every percentile");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Expect(Percentile(hundred, 0.5) == 50.0, "p50 of 1..100 is 50");
  Expect(Percentile(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
  Expect(!TailSupported(0, 0.99) && !TailSupported(1, 0.99),
         "no p99 tail from 0 or 1 samples");
  Expect(!TailSupported(999, 0.99), "999 samples leave 9 beyond p99");
  Expect(TailSupported(1000, 0.99), "1000 samples leave 10 beyond p99");
  Expect(TailSupported(20, 0.5) && !TailSupported(19, 0.5),
         "the rule applies to every percentile");
}

void TestSchedules(const Inputs& inputs) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    const std::vector<Op> a = OpenLoopSchedule(spec, inputs, 11, 2.0);
    const std::vector<Op> b = OpenLoopSchedule(spec, inputs, 11, 2.0);
    const std::vector<Op> c = OpenLoopSchedule(spec, inputs, 12, 2.0);
    Expect(!a.empty() && a == b,
           std::string(spec.name) + ": one seed gives one schedule");
    Expect(a != c, std::string(spec.name) + ": two seeds give two schedules");
    Expect(SaturationOps(spec, inputs, 11, 500) ==
               SaturationOps(spec, inputs, 11, 500),
           std::string(spec.name) + ": saturation requests follow the seed");
  }
}

// Serves one request of `op` and returns its generation and payload.
std::pair<uint64_t, Payload> Serve(Fixture& fixture, const Op& op) {
  serve::ServeRequest request;
  request.method = op.method;
  request.task = op.task;
  request.sample_id = op.sample;
  serve::ServeResponse response = fixture.server->ServeSync(request);
  if (!response.status.ok()) return {0, Payload{}};
  const uint64_t generation = response.model_generation;
  return {generation, TakePayload(op.method, response)};
}

void TestOutputCheck(const std::string& workdir) {
  std::unique_ptr<Fixture> fixture = SetUp(workdir, /*corpus_tables=*/12);
  TestSchedules(fixture->inputs);
  Expect(!fixture->inputs.queries.empty(), "corpus yields QA queries");
  OutputChecker checker(*fixture);
  std::string error;

  Op predict{0, serve::ServeMethod::kPredict, core::TaskKind::kType, 3};
  auto [generation, served] = Serve(*fixture, predict);
  Expect(checker.Check(predict, generation, served, &error),
         "served Predict passes");
  served.labels.push_back(0);
  Expect(!checker.Check(predict, generation, served, &error),
         "Predict with an extra label fails");
  Expect(!checker.Check(predict, 7, Serve(*fixture, predict).second, &error),
         "response from an unknown generation fails");

  Op probs{0, serve::ServeMethod::kPredictProbabilities,
           core::TaskKind::kRelation, 2};
  auto [probs_generation, probs_served] = Serve(*fixture, probs);
  Expect(checker.Check(probs, probs_generation, probs_served, &error),
         "served PredictProbabilities passes");
  probs_served.probabilities[0] =
      std::nextafter(probs_served.probabilities[0], 2.0f);
  Expect(!checker.Check(probs, probs_generation, probs_served, &error),
         "probability off by one ulp fails");

  Op explain{0, serve::ServeMethod::kExplain, core::TaskKind::kType, 5};
  auto [explain_generation, explain_served] = Serve(*fixture, explain);
  Expect(checker.Check(explain, explain_generation, explain_served, &error),
         "served Explain passes");
  core::Explanation mutated =
      fixture->model->session().Explain(core::TaskKind::kType, 5);
  Expect(Fingerprint(mutated) == explain_served.explanation_fingerprint,
         "fingerprint matches a direct Explain");
  mutated.global.back().text += " ";
  explain_served.explanation_fingerprint = Fingerprint(mutated);
  Expect(!checker.Check(explain, explain_generation, explain_served, &error),
         "Explain with one changed evidence text fails");

  Expect(!error.empty(), "a failed check explains itself");
}

void TestForeignSettings() {
  char plan[] = "EXPLAINTI_PLAN=off";
  char path[] = "PATH=/bin";
  char* env[] = {path, plan, nullptr};
  const std::vector<std::string> names = ForeignSettings(env);
  Expect(names.size() == 1 && names.front() == "EXPLAINTI_PLAN",
         "EXPLAINTI_* settings are detected");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workdir = ".bench_build/perfbench-selftest";
  if (argc == 3 && std::string(argv[1]) == "--workdir") workdir = argv[2];
  explainti::util::SetGlobalThreadCount(perfbench::kPoolThreads);
  TestPercentile();
  TestForeignSettings();
  TestOutputCheck(workdir);
  std::printf("[selftest] %s (%d failed)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
