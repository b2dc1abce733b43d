// Durable-store harness (DESIGN.md §10): cold learn+persist vs warm restart
// from disk.
//
// The shape to look for: the warm restart loads persisted contracts in
// milliseconds where the cold path pays the full learn, and the warm response
// is byte-identical to the cold run's (that identity is the acceptance bar,
// recorded in BENCH_STORE.json).
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench/bench_util.h"
#include "src/format/json.h"
#include "src/service/service.h"
#include "src/util/stopwatch.h"

namespace concord {
namespace {

std::string LearnLine(const GeneratedCorpus& corpus) {
  JsonValue request = JsonValue::Object();
  request.Set("v", JsonValue::Number(int64_t{1}));
  request.Set("verb", JsonValue::String("learn"));
  request.Set("dataset", JsonValue::String("bench"));
  JsonValue items = JsonValue::Array();
  for (const GeneratedConfig& config : corpus.configs) {
    JsonValue item = JsonValue::Object();
    item.Set("name", JsonValue::String(config.name));
    item.Set("text", JsonValue::String(config.text));
    items.Append(std::move(item));
  }
  request.Set("configs", std::move(items));
  JsonValue options = JsonValue::Object();
  options.Set("support", JsonValue::Number(int64_t{3}));
  request.Set("options", std::move(options));
  return request.Serialize(0);
}

std::string CheckLine(const GeneratedCorpus& corpus) {
  JsonValue request = JsonValue::Object();
  request.Set("v", JsonValue::Number(int64_t{1}));
  request.Set("verb", JsonValue::String("check"));
  request.Set("contracts", JsonValue::String("bench"));
  JsonValue items = JsonValue::Array();
  for (const GeneratedConfig& config : corpus.configs) {
    JsonValue item = JsonValue::Object();
    item.Set("name", JsonValue::String(config.name));
    item.Set("text", JsonValue::String(config.text));
    items.Append(std::move(item));
  }
  request.Set("configs", std::move(items));
  return request.Serialize(0);
}

}  // namespace
}  // namespace concord

int main() {
  using namespace concord;

  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "concord_bench_store";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  GeneratedCorpus corpus = BenchCorpus("E2");
  std::string learn = LearnLine(corpus);
  std::string check = CheckLine(corpus);
  std::string store_dir = (dir / "store").string();

  // Cold: learn from scratch, persisting into the store. The reference is the
  // first check (cold caches), which the warm restart's first check must match.
  double cold_learn_s = 0;
  std::string reference;
  {
    ServiceOptions options;
    options.store_dir = store_dir;
    Service cold{options};
    Stopwatch watch;
    cold.HandleLine(learn);
    cold_learn_s = watch.ElapsedSeconds();
    reference = cold.HandleLine(check);
  }

  // Warm: a fresh process loads the persisted contracts instead of relearning.
  double warm_restart_s = 0;
  bool warm_identical = false;
  {
    ServiceOptions options;
    options.store_dir = store_dir;
    Stopwatch watch;
    Service warm{options};
    warm_restart_s = watch.ElapsedSeconds();
    warm_identical = warm.HandleLine(check) == reference;
  }

  std::printf("%-22s %10s %12s\n", "phase", "seconds", "identical");
  std::printf("%-22s %10.4f %12s\n", "cold learn+persist", cold_learn_s, "-");
  std::printf("%-22s %10.4f %12s\n", "warm restart", warm_restart_s,
              warm_identical ? "yes" : "NO");

  std::string json =
      "{\n  \"bench\": \"store\",\n  \"dataset\": \"" + corpus.role +
      "\",\n  \"configs\": " + std::to_string(corpus.configs.size()) +
      ",\n  \"cold_learn_s\": " + std::to_string(cold_learn_s) +
      ",\n  \"warm_restart_s\": " + std::to_string(warm_restart_s) +
      ",\n  \"warm_identical\": " + (warm_identical ? "true" : "false") +
      ",\n  \"acceptance\": {\"byte_identical\": " +
      (warm_identical ? "true" : "false") + ", \"pass\": " +
      (warm_identical ? "true" : "false") + "}\n}\n";

  const char* out_path = "BENCH_STORE.json";
  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path);
  } else {
    std::printf("\nwarning: could not write %s\n", out_path);
  }
  std::printf("acceptance (warm response byte-identical): %s\n",
              warm_identical ? "PASS" : "FAIL");
  std::filesystem::remove_all(dir);
  return warm_identical ? 0 : 1;
}
