// Incremental relearning: full from-scratch relearn vs. a single-config delta
// through the content-addressed artifact store (DESIGN.md "Artifact pipeline").
//
// The shape to look for: the delta path re-runs Parse/Index/Mine for exactly one
// configuration and only pays the (shared) aggregation + minimization cost, so it
// should beat the from-scratch path by well over the 5x acceptance bar, with the
// gap widening as CONCORD_BENCH_SCALE grows the corpus. Wall-clock ratios are
// noisy on small corpora, so a deterministic gate stands beside the 5x bar: after
// ResetCounters(), every delta relearn must re-mine exactly one config
// (mine_misses == 1). Results are also recorded as JSON in BENCH_INCREMENTAL.json
// for the CI/tooling harness.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/contracts/contract_io.h"
#include "src/learn/artifact_store.h"
#include "src/learn/learner.h"
#include "src/util/stopwatch.h"

namespace concord {
namespace {

constexpr int kIterations = 5;

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// One from-scratch learn, as `concord learn` runs it: parse the whole corpus into
// a fresh dataset, then mine it.
double TimeFullRelearn(const GeneratedCorpus& corpus, const LearnOptions& options,
                       const Lexer& lexer, std::string* out_contracts) {
  std::vector<double> samples;
  for (int i = 0; i < kIterations; ++i) {
    Stopwatch watch;
    Dataset dataset = ParseCorpus(corpus, ParseOptions{}, &lexer);
    LearnResult result = Learner(options).Learn(dataset);
    samples.push_back(watch.ElapsedSeconds());
    *out_contracts = SerializeContracts(result.set, dataset.patterns);
  }
  return Median(std::move(samples));
}

// One delta relearn: replace a single config's text in the resident store and
// learn again. Everything but that config's Parse/Index/Mine artifacts is reused;
// each iteration's Mine-stage miss count goes to `mine_misses`.
double TimeDeltaRelearn(const GeneratedCorpus& corpus, const LearnOptions& options,
                        const Lexer& lexer, std::string* out_contracts,
                        std::vector<size_t>* mine_misses) {
  ArtifactStore store(&lexer, ParseOptions{});
  for (const GeneratedConfig& config : corpus.configs) {
    store.Upsert(config.name, config.text);
  }
  std::vector<std::string> metadata;
  for (const GeneratedConfig& meta : corpus.metadata) {
    metadata.push_back(meta.text);
  }
  store.SetMetadata(metadata);
  LearnResult warm = Learner(options).Learn(store);  // Populate every artifact.
  (void)warm;

  const GeneratedConfig& target = corpus.configs[corpus.configs.size() / 2];
  std::vector<double> samples;
  for (int i = 0; i < kIterations; ++i) {
    // A genuinely new text each iteration, so the delta is never a parse hit.
    std::string text = target.text + "snmp-server community bench" +
                       std::to_string(i) + "\n";
    store.ResetCounters();
    Stopwatch watch;
    store.Upsert(target.name, text);
    LearnResult result = Learner(options).Learn(store);
    samples.push_back(watch.ElapsedSeconds());
    mine_misses->push_back(store.counters().mine_misses);
    *out_contracts = SerializeContracts(result.set, store.patterns());
  }
  // Leave the store holding the last iteration's text; callers that want to
  // cross-check against a from-scratch learn must apply the same edit.
  return Median(std::move(samples));
}

}  // namespace
}  // namespace concord

int main() {
  using namespace concord;
  std::printf("Incremental relearn: full from-scratch vs. single-config delta "
              "(scale=%d, median of %d)\n\n",
              BenchScale(), kIterations);
  std::printf("%-8s %8s %10s %12s %12s %9s %12s\n", "Dataset", "Configs", "Lines", "Full",
              "Delta", "Speedup", "MineMisses");

  const std::vector<std::string> roles = {"E1", "E2", "W1"};
  std::string json = "{\n  \"benchmark\": \"incremental_relearn\",\n  \"scale\": " +
                     std::to_string(BenchScale()) + ",\n  \"iterations\": " +
                     std::to_string(kIterations) + ",\n  \"results\": [\n";
  bool all_pass = true;
  for (size_t r = 0; r < roles.size(); ++r) {
    GeneratedCorpus corpus = BenchCorpus(roles[r]);
    Lexer lexer;
    LearnOptions options = BenchLearnOptions();

    std::string full_contracts;
    std::string delta_contracts;
    double full = TimeFullRelearn(corpus, options, lexer, &full_contracts);
    std::vector<size_t> mine_misses;
    double delta = TimeDeltaRelearn(corpus, options, lexer, &delta_contracts, &mine_misses);
    bool one_miss = std::all_of(mine_misses.begin(), mine_misses.end(),
                                [](size_t misses) { return misses == 1; });
    std::string misses_json;
    for (size_t misses : mine_misses) {
      misses_json += (misses_json.empty() ? "" : ", ") + std::to_string(misses);
    }

    // Cross-check: the delta path's final state must match a from-scratch learn
    // of the identically edited corpus (the bit-identity invariant under time).
    GeneratedCorpus edited = corpus;
    GeneratedConfig& target = edited.configs[edited.configs.size() / 2];
    target.text += "snmp-server community bench" + std::to_string(kIterations - 1) + "\n";
    Dataset dataset = ParseCorpus(edited, ParseOptions{}, &lexer);
    LearnResult scratch = Learner(options).Learn(dataset);
    bool identical =
        SerializeContracts(scratch.set, dataset.patterns) == delta_contracts;

    double speedup = delta > 0 ? full / delta : 0;
    size_t lines = dataset.TotalLines();
    std::printf("%-8s %8zu %10zu %11.4fs %11.4fs %8.1fx %12s%s%s\n", corpus.role.c_str(),
                corpus.configs.size(), lines, full, delta, speedup, misses_json.c_str(),
                identical ? "" : "  (MISMATCH)", one_miss ? "" : "  (MINE MISSES != 1)");
    if (!identical || speedup < 5.0 || !one_miss) {
      all_pass = false;
    }

    json += std::string("    {\"dataset\": \"") + corpus.role + "\", \"configs\": " +
            std::to_string(corpus.configs.size()) + ", \"lines\": " +
            std::to_string(lines) + ", \"full_s\": " + std::to_string(full) +
            ", \"delta_s\": " + std::to_string(delta) + ", \"speedup\": " +
            std::to_string(speedup) + ", \"bit_identical\": " +
            (identical ? "true" : "false") + ", \"delta_mine_misses\": [" + misses_json +
            "]}" + (r + 1 < roles.size() ? "," : "") +
            "\n";
  }
  json += "  ],\n  \"acceptance\": {\"min_speedup\": 5.0, \"delta_mine_misses\": 1, \"pass\": " +
          std::string(all_pass ? "true" : "false") + "}\n}\n";

  const char* out_path = "BENCH_INCREMENTAL.json";
  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path);
  } else {
    std::printf("\nwarning: could not write %s\n", out_path);
  }
  std::printf("acceptance (>=5x single-config delta, bit-identical, one mine miss per "
              "delta): %s\n",
              all_pass ? "PASS" : "FAIL");
  return all_pass ? 0 : 1;
}
