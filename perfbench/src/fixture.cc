#include <filesystem>

#include "bench.h"
#include "data/wiki_generator.h"
#include "util/logging.h"

namespace perfbench {

namespace {

// Response cache: below one scan pass (168 samples), so a scan never hits
// and every lookup, insert and eviction is pure cost.
constexpr int64_t kCacheCapacity = 64;
constexpr int kCacheShards = 8;

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

}  // namespace

qa::QaOptions QaReplayOptions() {
  qa::QaOptions options;
  options.enable_surrogate = true;
  return options;
}

serve::ServerOptions ServingShape() {
  serve::ServerOptions options;
  options.num_workers = kServerWorkers;
  options.cache.enabled = true;
  options.cache.capacity = kCacheCapacity;
  options.cache.num_shards = kCacheShards;
  return options;
}

const core::InferenceSession* Fixture::SessionOf(uint64_t generation) const {
  if (generation == 1) return &model->session();
  if (generation < 2 || generation - 2 >= replicas.size()) return nullptr;
  return &replicas[generation - 2]->session();
}

core::ExplainTiModel& Fixture::LiveModel() {
  return replicas.empty() ? *model : *replicas.back();
}

std::unique_ptr<Fixture> SetUp(const std::string& workdir,
                               int corpus_tables) {
  auto fixture = std::make_unique<Fixture>();
  data::WikiTableOptions corpus_options;
  corpus_options.num_tables = corpus_tables;
  fixture->corpus = data::GenerateWikiTableCorpus(corpus_options);
  fixture->model =
      std::make_unique<core::ExplainTiModel>(fixture->config, fixture->corpus);
  fixture->model->RefreshStores();

  // Replica checkpoint: weights plus persisted stores, so a rollout's
  // replica reopens its stores instead of re-encoding the corpus.
  std::filesystem::create_directories(workdir);
  fixture->weights_path = workdir + "/weights.bin";
  const std::string store_dir = workdir + "/stores";
  CHECK(fixture->model->SaveWeights(fixture->weights_path).ok());
  CHECK(fixture->model->SaveStores(store_dir).ok());
  fixture->replica_config = fixture->config;
  fixture->replica_config.store_dir = store_dir;

  fixture->server = std::make_unique<serve::InferenceServer>(
      fixture->model->session(), ServingShape());
  fixture->inputs = BuildInputs(fixture->corpus, fixture->model->session());
  return fixture;
}

RolloutTiming Rollout(Fixture& fixture) {
  RolloutTiming timing;
  int64_t start = NowNs();
  fixture.LiveModel().RefreshStores();
  timing.refresh_ms = MsSince(start);

  start = NowNs();
  util::StatusOr<std::unique_ptr<core::ExplainTiModel>> replica =
      core::LoadReplicaForSwap(fixture.replica_config, fixture.corpus,
                               fixture.weights_path);
  CHECK(replica.ok()) << replica.status().ToString();
  timing.load_ms = MsSince(start);

  start = NowNs();
  const util::Status swapped =
      fixture.server->SwapSession(replica.value()->session());
  CHECK(swapped.ok()) << swapped.ToString();
  timing.swap_ms = MsSince(start);
  fixture.replicas.push_back(std::move(replica).value());
  return timing;
}

}  // namespace perfbench
