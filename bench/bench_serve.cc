// Service-path microbenchmarks (google-benchmark): the `concord serve` check verb
// with a cold vs. warm parsed-config cache, request parsing overhead, and the
// metrics registry. Quantifies what residency buys over the one-shot CLI path.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cli/cli.h"
#include "src/datagen/edge_gen.h"
#include "src/format/json.h"
#include "src/service/metrics.h"
#include "src/service/service.h"
#include "src/util/io.h"
#include "src/util/trace.h"

namespace concord {
namespace {

// One-time fixture: an edge corpus on disk plus contracts learned from it.
struct ServeFixture {
  std::filesystem::path dir;
  std::string contracts_path;
  std::string check_request;
  size_t num_configs = 0;

  ServeFixture() {
    dir = std::filesystem::temp_directory_path() / "concord_bench_serve";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    EdgeOptions options;
    options.sites = 4;
    options.devices_per_site = 3;
    GeneratedCorpus corpus = GenerateEdge(options);
    num_configs = corpus.configs.size();

    JsonValue configs = JsonValue::Array();
    for (const GeneratedConfig& config : corpus.configs) {
      WriteFile((dir / config.name).string(), config.text);
      JsonValue item = JsonValue::Object();
      item.Set("name", JsonValue::String(config.name));
      item.Set("text", JsonValue::String(config.text));
      configs.Append(std::move(item));
    }
    contracts_path = (dir / "contracts.json").string();
    std::string configs_glob = (dir / "*.cfg").string();
    const char* argv[] = {"concord",   "learn", "--configs", configs_glob.c_str(),
                          "--support", "3",     "--quiet",   "--out",
                          contracts_path.c_str()};
    std::ostringstream out, err;
    RunConcord(static_cast<int>(std::size(argv)), argv, out, err);

    JsonValue request = JsonValue::Object();
    request.Set("v", JsonValue::Number(int64_t{1}));
    request.Set("verb", JsonValue::String("check"));
    request.Set("contracts", JsonValue::String("edge"));
    request.Set("coverage", JsonValue::Bool(false));
    request.Set("configs", std::move(configs));
    check_request = request.Serialize(0);
  }
};

ServeFixture& Fixture() {
  static ServeFixture fixture;
  return fixture;
}

std::unique_ptr<Service> MakeService() {
  auto service = std::make_unique<Service>(ServiceOptions{});
  std::string error;
  if (!service->LoadContracts("edge", Fixture().contracts_path, &error)) {
    throw std::runtime_error("bench_serve: cannot load contracts: " + error);
  }
  return service;
}

// Every iteration sees a cold cache: the full parse + embed + check path.
void BM_ServeCheckColdCache(benchmark::State& state) {
  ServeFixture& fixture = Fixture();
  for (auto _ : state) {
    state.PauseTiming();
    auto service = MakeService();  // Fresh store => empty cache.
    state.ResumeTiming();
    benchmark::DoNotOptimize(service->HandleLine(fixture.check_request));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fixture.num_configs));
}
BENCHMARK(BM_ServeCheckColdCache);

// Steady-state: every config is a cache hit, so only checking remains.
void BM_ServeCheckWarmCache(benchmark::State& state) {
  ServeFixture& fixture = Fixture();
  auto service = MakeService();
  benchmark::DoNotOptimize(service->HandleLine(fixture.check_request));  // Warm up.
  for (auto _ : state) {
    benchmark::DoNotOptimize(service->HandleLine(fixture.check_request));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fixture.num_configs));
}
BENCHMARK(BM_ServeCheckWarmCache);

// Tracing overhead on the steady-state check path. Arg 0 disables the
// collector entirely (each span costs one relaxed atomic load — the <2%
// acceptance bound), arg 1 is the server's always-on stats mode, arg 2 adds
// full ring-buffer event collection as --profile would.
void BM_ServeCheckWarmCacheTracing(benchmark::State& state) {
  ServeFixture& fixture = Fixture();
  auto service = MakeService();  // The ctor enables stats; override below.
  auto& collector = TraceCollector::Global();
  collector.Disable();
  collector.Clear();
  if (state.range(0) >= 1) {
    collector.EnableStats();
  }
  if (state.range(0) >= 2) {
    collector.EnableEvents();
  }
  benchmark::DoNotOptimize(service->HandleLine(fixture.check_request));  // Warm up.
  for (auto _ : state) {
    benchmark::DoNotOptimize(service->HandleLine(fixture.check_request));
  }
  collector.Disable();
  collector.Clear();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fixture.num_configs));
}
BENCHMARK(BM_ServeCheckWarmCacheTracing)->Arg(0)->Arg(1)->Arg(2);

void BM_ServeStats(benchmark::State& state) {
  auto service = MakeService();
  for (auto _ : state) {
    benchmark::DoNotOptimize(service->HandleLine("{\"v\":1,\"verb\":\"stats\"}"));
  }
}
BENCHMARK(BM_ServeStats);

// The registry calls Service::HandleLine makes once per request.
void BM_MetricsRecordRequest(benchmark::State& state) {
  MetricsRegistry registry;
  uint64_t micros = 0;
  for (auto _ : state) {
    RecordServeRequest(registry, "check", true, ++micros % 100000);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsRecordRequest);

}  // namespace
}  // namespace concord

BENCHMARK_MAIN();
