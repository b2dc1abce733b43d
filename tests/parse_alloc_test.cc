// Allocation gate for ConfigParser::Parse.
//
// Parsing is most of a check's cost, and before parsing reused its buffers it
// made ~16 heap allocations per line. The lexer now writes into a reused
// buffer, small numbers live inline in BigInt, embedding splits a file's lines
// once as views, and parents are per-file frames, so a parsed line allocates
// little more than its own value vector. Allocation counts are deterministic,
// so this bound holds on any host, however noisy.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/datagen/corpus.h"
#include "src/datagen/generator.h"
#include "src/pattern/lexer.h"
#include "src/pattern/parser.h"
#include "src/util/trace.h"

namespace concord {
namespace {

// Bound on heap allocations per parsed line, interning of new patterns included.
constexpr double kMaxAllocsPerLine = 4.0;

struct Sample {
  const char* label;
  const char* family;
  std::vector<std::pair<const char*, const char*>> knobs;
};

struct ParseCount {
  uint64_t allocations = 0;
  size_t lines = 0;
};

// Parses the corpus into a fresh pattern table, as one `concord check` does,
// and counts the allocations the parse makes.
ParseCount CountParse(const GeneratedCorpus& corpus) {
  Lexer lexer;
  Dataset dataset;
  dataset.configs.reserve(corpus.configs.size());
  ConfigParser parser(&lexer, &dataset.patterns, ParseOptions{});
  EnableAllocationCounting(true);
  uint64_t before = AllocationCount();
  for (const GeneratedConfig& config : corpus.configs) {
    dataset.configs.push_back(parser.Parse(config.name, config.text));
  }
  for (const GeneratedConfig& meta : corpus.metadata) {
    for (ParsedLine& line : parser.ParseMetadata(meta.text)) {
      dataset.metadata.push_back(std::move(line));
    }
  }
  uint64_t allocations = AllocationCount() - before;
  EnableAllocationCounting(false);
  return ParseCount{allocations, dataset.TotalLines() + dataset.metadata.size()};
}

class ParseAllocations : public ::testing::TestWithParam<Sample> {};

TEST_P(ParseAllocations, AtMostFourPerLine) {
  const Sample& sample = GetParam();
  Knobs knobs;
  for (const auto& [key, value] : sample.knobs) {
    knobs.Set(key, value);
  }
  GeneratedCorpus corpus = GenerateFamily(GeneratorRegistry::Global(), sample.family, 1, knobs);
  CountParse(corpus);  // Warm-up: process-wide statics allocate once, on first use.
  ParseCount first = CountParse(corpus);
  ASSERT_GT(first.lines, 1000u);
  double per_line = static_cast<double>(first.allocations) / static_cast<double>(first.lines);
  EXPECT_LE(per_line, kMaxAllocsPerLine)
      << first.allocations << " allocations for " << first.lines << " lines";
  // Once warm, the count is a property of the code and the input, not of the run.
  ParseCount second = CountParse(corpus);
  EXPECT_EQ(second.allocations, first.allocations);
  RecordProperty("allocs_per_line", std::to_string(per_line));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ParseAllocations,
    ::testing::Values(
        // Flat set-style lines, the check-w7 shape.
        Sample{"W7_flat", "wan", {{"role", "7"}, {"devices", "300"}}},
        // Indented blocks, the learn-w1 shape.
        Sample{"W1_indent", "wan", {{"role", "1"}, {"devices", "40"}, {"scale", "4"}}},
        // Indented ToR configs plus each site's JSON metadata, the serve-e2 shape.
        Sample{"E2_indent_json",
               "edge",
               {{"role", "tor"}, {"sites", "4"}, {"devices-per-site", "8"}}}),
    [](const ::testing::TestParamInfo<Sample>& param_info) {
      return std::string(param_info.param.label);
    });

}  // namespace
}  // namespace concord
