// The repository benchmark. Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--workdir DIR] [--trace-out FILE]
// Prints phase summaries, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when an output
// check fails, 2 on bad arguments, a foreign EXPLAINTI_* setting or too few
// hardware threads.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"

extern char** environ;

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "annotate_scan|explain_rollout --seed N "
               "--seconds S --trace 0|1 [--workdir DIR] [--trace-out FILE]\n",
               message);
  return 2;
}

int Refuse(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  options.workdir = ".bench_build/perfbench-work";
  std::string workload;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  options.spec = FindWorkload(workload);
  if (options.spec == nullptr) return Usage("unknown or missing --workload");
  if (!have_seed) return Usage("missing or bad --seed");
  if (!(options.seconds >= 1.0 && options.seconds <= 60.0)) {
    return Usage("--seconds must be in [1, 60]");
  }
  if (options.trace_path.empty()) {
    options.trace_path = options.workdir + "/trace-" + workload + "-" +
                         std::to_string(options.seed) + ".json";
  }
  // The program under test is fixed by the benchmark: any EXPLAINTI_*
  // setting (plan mode, precision, thread count, ...) would change it.
  const std::vector<std::string> foreign = ForeignSettings(environ);
  if (!foreign.empty()) {
    std::string names;
    for (const std::string& name : foreign) names += " " + name;
    return Refuse("refusing to run with" + names + " set");
  }

  // Generator, control thread, server workers and pool threads each get a
  // hardware thread of their own.
  const int busy_threads = kBenchThreads + kServerWorkers + (kPoolThreads - 1);
  if (static_cast<int>(std::thread::hardware_concurrency()) < busy_threads) {
    return Refuse("needs " + std::to_string(busy_threads) + " hardware threads");
  }

  const RunResult result = RunWorkload(options);
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  }
  std::printf("%s\n", ResultJson(result).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
