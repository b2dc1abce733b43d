#include "src/learn/artifact_store.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/contracts/contract_io.h"
#include "src/datagen/corpus.h"
#include "src/datagen/edge_gen.h"
#include "src/datagen/wan_gen.h"
#include "src/learn/learner.h"
#include "src/util/cancellation.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace concord {
namespace {

// Loads a generated corpus into a fresh store.
void LoadCorpus(const GeneratedCorpus& corpus, ArtifactStore* store) {
  for (const GeneratedConfig& config : corpus.configs) {
    store->Upsert(config.name, config.text);
  }
  std::vector<std::string> metadata;
  for (const GeneratedConfig& meta : corpus.metadata) {
    metadata.push_back(meta.text);
  }
  store->SetMetadata(metadata);
}

std::string LearnFromScratch(const GeneratedCorpus& corpus, const LearnOptions& options,
                             const Lexer& lexer) {
  Dataset dataset = ParseCorpus(corpus, ParseOptions{}, &lexer);
  LearnResult result = Learner(options).Learn(dataset);
  return SerializeContracts(result.set, dataset.patterns);
}

std::string LearnFromStore(ArtifactStore& store, const LearnOptions& options) {
  LearnResult result = Learner(options).Learn(store);
  return SerializeContracts(result.set, store.patterns());
}

// The acceptance bar of the artifact pipeline: an incremental relearn after a
// one-config change produces contracts identical to a from-scratch learn, while
// recomputing only that config's Parse/Index/Mine artifacts.
TEST(ArtifactStore, IncrementalRelearnMatchesScratchOnEdgeCorpus) {
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  Lexer lexer;
  LearnOptions options;
  options.support = 3;

  ArtifactStore store(&lexer, ParseOptions{});
  LoadCorpus(corpus, &store);
  EXPECT_EQ(LearnFromStore(store, options), LearnFromScratch(corpus, options, lexer));

  // All artifacts were built once; everything was a miss.
  EXPECT_EQ(store.counters().parse_misses, corpus.configs.size());
  EXPECT_EQ(store.counters().index_misses, corpus.configs.size());
  EXPECT_EQ(store.counters().mine_misses, corpus.configs.size());

  // Change exactly one config.
  corpus.configs[5].text += "snmp-server community testlab\n";
  store.ResetCounters();
  EXPECT_TRUE(store.Upsert(corpus.configs[5].name, corpus.configs[5].text));
  EXPECT_EQ(LearnFromStore(store, options), LearnFromScratch(corpus, options, lexer));

  // Exactly one config's pipeline re-ran; every other artifact was a cache hit.
  const ArtifactCounters& counters = store.counters();
  EXPECT_EQ(counters.parse_misses, 1u);
  EXPECT_EQ(counters.parse_hits, 0u);  // Only the changed config was upserted.
  EXPECT_EQ(counters.index_misses, 1u);
  EXPECT_EQ(counters.index_hits, corpus.configs.size() - 1);
  EXPECT_EQ(counters.mine_misses, 1u);
  EXPECT_EQ(counters.mine_hits, corpus.configs.size() - 1);
}

TEST(ArtifactStore, IncrementalRelearnMatchesScratchOnWanCorpus) {
  GeneratedCorpus corpus = GenerateWan(WanOptions{});
  Lexer lexer;
  LearnOptions options;
  options.support = 3;

  ArtifactStore store(&lexer, ParseOptions{});
  LoadCorpus(corpus, &store);
  EXPECT_EQ(LearnFromStore(store, options), LearnFromScratch(corpus, options, lexer));

  corpus.configs[0].text += "banner motd maintenance\n";
  store.ResetCounters();
  EXPECT_TRUE(store.Upsert(corpus.configs[0].name, corpus.configs[0].text));
  EXPECT_EQ(LearnFromStore(store, options), LearnFromScratch(corpus, options, lexer));
  EXPECT_EQ(store.counters().mine_misses, 1u);
  EXPECT_EQ(store.counters().mine_hits, corpus.configs.size() - 1);
}

TEST(ArtifactStore, UnchangedUpsertIsAParseHit) {
  Lexer lexer;
  ArtifactStore store(&lexer, ParseOptions{});
  EXPECT_TRUE(store.Upsert("a.cfg", "vlan 7\n"));
  EXPECT_FALSE(store.Upsert("a.cfg", "vlan 7\n"));
  EXPECT_EQ(store.counters().parse_hits, 1u);
  EXPECT_EQ(store.counters().parse_misses, 1u);
  EXPECT_TRUE(store.Contains("a.cfg"));
  ASSERT_NE(store.TextOf("a.cfg"), nullptr);
  EXPECT_EQ(*store.TextOf("a.cfg"), "vlan 7\n");
  EXPECT_EQ(store.TextOf("missing.cfg"), nullptr);
}

TEST(ArtifactStore, RemoveShrinksTheCorpusWithoutInvalidatingOthers) {
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  Lexer lexer;
  LearnOptions options;
  options.support = 3;

  ArtifactStore store(&lexer, ParseOptions{});
  LoadCorpus(corpus, &store);
  LearnFromStore(store, options);

  std::string victim = corpus.configs.back().name;
  corpus.configs.pop_back();
  store.ResetCounters();
  EXPECT_TRUE(store.Remove(victim));
  EXPECT_FALSE(store.Remove(victim));
  EXPECT_EQ(LearnFromStore(store, options), LearnFromScratch(corpus, options, lexer));
  EXPECT_EQ(store.counters().mine_misses, 0u);
  EXPECT_EQ(store.counters().mine_hits, corpus.configs.size());
}

TEST(ArtifactStore, MetadataChangeInvalidatesIndexAndMineButNotParse) {
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  Lexer lexer;
  LearnOptions options;
  options.support = 3;

  ArtifactStore store(&lexer, ParseOptions{});
  LoadCorpus(corpus, &store);
  LearnFromStore(store, options);

  // Drop one metadata document: every Index/Mine artifact is stale, no Parse is.
  std::vector<std::string> metadata;
  for (size_t i = 0; i + 1 < corpus.metadata.size(); ++i) {
    metadata.push_back(corpus.metadata[i].text);
  }
  store.ResetCounters();
  store.SetMetadata(metadata);
  corpus.metadata.pop_back();
  EXPECT_EQ(LearnFromStore(store, options), LearnFromScratch(corpus, options, lexer));
  EXPECT_EQ(store.counters().parse_misses, 0u);
  EXPECT_EQ(store.counters().index_misses, corpus.configs.size());
  EXPECT_EQ(store.counters().mine_misses, corpus.configs.size());

  // Re-setting the identical metadata sequence is a no-op.
  store.ResetCounters();
  store.SetMetadata(metadata);
  LearnFromStore(store, options);
  EXPECT_EQ(store.counters().index_misses, 0u);
  EXPECT_EQ(store.counters().mine_hits, corpus.configs.size());
}

TEST(ArtifactStore, ThresholdChangeReusesSummaries) {
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  Lexer lexer;
  LearnOptions options;
  options.support = 3;

  ArtifactStore store(&lexer, ParseOptions{});
  LoadCorpus(corpus, &store);
  LearnFromStore(store, options);

  // Summaries are threshold-independent: raising support re-aggregates from
  // cached summaries without re-mining anything.
  options.support = 5;
  store.ResetCounters();
  EXPECT_EQ(LearnFromStore(store, options), LearnFromScratch(corpus, options, lexer));
  EXPECT_EQ(store.counters().mine_misses, 0u);
  EXPECT_EQ(store.counters().mine_hits, corpus.configs.size());
}

TEST(ArtifactStore, DeadlineExpiryKeepsFinishedArtifacts) {
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  Lexer lexer;
  ArtifactStore store(&lexer, ParseOptions{});
  LoadCorpus(corpus, &store);

  LearnOptions options;
  options.support = 3;
  options.deadline = Deadline::After(0);
  EXPECT_THROW(Learner(options).Learn(store), DeadlineExceeded);

  // A retry with budget completes and matches from-scratch output.
  options.deadline = Deadline::Never();
  EXPECT_EQ(LearnFromStore(store, options), LearnFromScratch(corpus, options, lexer));
}

TEST(ArtifactStore, ParallelRefreshMatchesSerial) {
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  Lexer lexer;
  LearnOptions serial;
  serial.support = 3;
  LearnOptions parallel = serial;
  ThreadPool pool(4);
  parallel.pool = &pool;

  ArtifactStore store_serial(&lexer, ParseOptions{});
  ArtifactStore store_parallel(&lexer, ParseOptions{});
  LoadCorpus(corpus, &store_serial);
  LoadCorpus(corpus, &store_parallel);
  EXPECT_EQ(LearnFromStore(store_serial, serial), LearnFromStore(store_parallel, parallel));
}

// Concurrent learns share one pool, as serve learn/update requests do. An
// expired learn throws DeadlineExceeded on its own thread, and the live one
// still equals the serial learn.
TEST(ArtifactStore, ExpiredLearnOnASharedPoolFailsOnlyItself) {
  GeneratedCorpus corpus = GenerateEdge(EdgeOptions{});
  Lexer lexer;
  LearnOptions serial;
  serial.support = 3;
  const std::string expected = LearnFromScratch(corpus, serial, lexer);

  ThreadPool pool(4);
  LearnOptions live = serial;
  live.pool = &pool;
  LearnOptions expired = live;
  expired.deadline = Deadline::After(0);
  for (int round = 0; round < 4; ++round) {
    ArtifactStore live_store(&lexer, ParseOptions{});
    ArtifactStore expired_store(&lexer, ParseOptions{});
    LoadCorpus(corpus, &live_store);
    LoadCorpus(corpus, &expired_store);
    bool expired_threw = false;
    std::thread expired_caller([&] {
      try {
        Learner(expired).Learn(expired_store);
      } catch (const DeadlineExceeded&) {
        expired_threw = true;
      }
    });
    std::string learned = LearnFromStore(live_store, live);
    expired_caller.join();
    EXPECT_TRUE(expired_threw) << "round " << round;
    EXPECT_EQ(learned, expected) << "round " << round;
  }
}

}  // namespace
}  // namespace concord
