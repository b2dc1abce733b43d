// Pins the learned contract bytes of every generator family.
//
// Each case generates a small corpus from a fixed (family, seed, knobs) triple,
// learns it with the paper's default options and asserts the FNV-1a 64 hash of
// the serialized contract set. The expected values were recorded before the
// relational miner moved to integer-keyed witnesses, and all but one (noted
// below) are unchanged by it. Any change to what the learner emits, its order
// or its formatting shows up here as a hash mismatch.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/contracts/contract_io.h"
#include "src/datagen/corpus.h"
#include "src/datagen/generator.h"
#include "src/learn/learner.h"
#include "src/util/hash.h"
#include "src/util/thread_pool.h"

namespace concord {
namespace {

struct FingerprintCase {
  const char* family;
  uint64_t seed;
  std::vector<std::pair<const char*, const char*>> knobs;
  uint64_t expected;
};

uint64_t LearnedFingerprint(const FingerprintCase& c, ThreadPool* pool) {
  Knobs knobs;
  for (const auto& [key, value] : c.knobs) {
    knobs.Set(key, value);
  }
  GeneratedCorpus corpus = GenerateFamily(GeneratorRegistry::Global(), c.family, c.seed, knobs);
  Dataset dataset = ParseCorpus(corpus);
  LearnOptions options;
  options.pool = pool;
  LearnResult result = Learner(options).Learn(dataset);
  return Fnv1a64(SerializeContracts(result.set, dataset.patterns));
}

const std::vector<FingerprintCase>& Cases() {
  static const std::vector<FingerprintCase> kCases = {
      {"edge", 1, {}, 0x09934bb9a3cded45ull},
      {"edge", 1, {{"role", "tor"}, {"sites", "2"}}, 0xe9effb070edcad1dull},
      {"wan", 1, {{"role", "1"}}, 0x22a62c9ab3c2f212ull},
      // 60 routers: several learned contracts have more than 256 distinct
      // witnesses, so the diversity cap decides their scores.
      {"wan", 1, {{"role", "1"}, {"devices", "60"}}, 0x4d21e184ba0bf862ull},
      // The cap also binds here, at a config boundary where witness scores
      // differ. It keeps the first 256 witnesses in (config, first-mark) order.
      // When it kept them in std::unordered_map iteration order instead, three
      // neighbor-equality contracts scored 639.75 rather than 639 and the hash
      // was 0x255cd54873d85fef.
      {"wan", 1, {{"role", "5"}}, 0x70eadb3d568a4e5aull},
      {"orch", 1, {}, 0x8e6ba739e15247b3ull},
      {"junos", 1, {}, 0xf9c3ef1ba4563f10ull},
      {"xmlish", 1, {}, 0x0a9960c2690d4588ull},
  };
  return kCases;
}

std::string Describe(const FingerprintCase& c) {
  std::string out = std::string(c.family) + " seed=" + std::to_string(c.seed);
  for (const auto& [key, value] : c.knobs) {
    out += std::string(" ") + key + "=" + value;
  }
  return out;
}

TEST(LearnFingerprint, EveryFamilyMatchesPinnedBytes) {
  for (const FingerprintCase& c : Cases()) {
    EXPECT_EQ(LearnedFingerprint(c, /*pool=*/nullptr), c.expected) << Describe(c);
  }
}

TEST(LearnFingerprint, ParallelLearnMatchesPinnedBytes) {
  ThreadPool pool(4);
  for (const FingerprintCase& c : Cases()) {
    EXPECT_EQ(LearnedFingerprint(c, &pool), c.expected) << Describe(c);
  }
}

}  // namespace
}  // namespace concord
