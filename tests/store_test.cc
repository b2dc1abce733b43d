// DurableStore (src/store/store.h): content-addressed objects, manifest
// round-trips and atomic swap, corruption accounting, verify, and gc.
#include "src/store/store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/store/record_io.h"
#include "src/util/fault.h"
#include "src/util/hash.h"
#include "src/util/io.h"

namespace concord {
namespace {

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("concord_store_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override {
    FaultInjector::Global().Reset();
    std::filesystem::remove_all(dir_);
  }

  std::string Dir() const { return dir_.string(); }

  static void Damage(const std::string& path) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    auto size = static_cast<std::streamoff>(f.tellg());
    f.seekp(size / 2);
    char c;
    f.seekg(size / 2);
    f.get(c);
    f.seekp(size / 2);
    f.put(static_cast<char>(c ^ 0xff));
  }

  std::filesystem::path dir_;
};

TEST_F(StoreTest, PutGetRoundTripAndIdempotence) {
  DurableStore store(Dir());
  uint64_t key = ContentKey("dev1.cfg", "hostname DEV1\n");
  EXPECT_TRUE(store.PutObject(RecordType::kBlob, key, "hostname DEV1\n", "config"));
  // Content addressing: a second put of the same key writes nothing.
  EXPECT_FALSE(store.PutObject(RecordType::kBlob, key, "hostname DEV1\n", "config"));
  EXPECT_TRUE(store.HasObject(key));
  EXPECT_EQ(store.GetObject(RecordType::kBlob, key, "config"), "hostname DEV1\n");
  EXPECT_EQ(store.object_count(), 1u);
  EXPECT_GT(store.total_bytes(), 0u);

  auto counters = store.Counters();
  EXPECT_EQ(counters["config"].hits, 1u);
  EXPECT_EQ(counters["config"].misses, 0u);
}

TEST_F(StoreTest, MissingObjectIsAMissNotCorruption) {
  DurableStore store(Dir());
  bool corrupt = true;
  EXPECT_EQ(store.GetObject(RecordType::kBlob, 42, "config", &corrupt), std::nullopt);
  EXPECT_FALSE(corrupt);
  auto counters = store.Counters();
  EXPECT_EQ(counters["config"].misses, 1u);
  EXPECT_EQ(counters["config"].corrupt, 0u);
}

TEST_F(StoreTest, DamagedObjectCountsAsCorruptAndDegrades) {
  DurableStore store(Dir());
  uint64_t key = ContentKey("dev1.cfg", "payload");
  store.PutObject(RecordType::kBlob, key, "payload", "config");
  Damage(Dir() + "/" + DurableStore::ObjectRelPath(key));

  bool corrupt = false;
  EXPECT_EQ(store.GetObject(RecordType::kBlob, key, "config", &corrupt), std::nullopt);
  EXPECT_TRUE(corrupt);
  auto counters = store.Counters();
  EXPECT_EQ(counters["config"].corrupt, 1u);
  EXPECT_EQ(counters["config"].misses, 0u);  // Damage is counted once, as corrupt.
}

TEST_F(StoreTest, PutRewritesAnObjectThatNoLongerReadsBack) {
  DurableStore store(Dir());
  uint64_t key = ContentKey("contracts", "payload");
  ASSERT_TRUE(store.PutObject(RecordType::kContracts, key, "payload", "contracts"));
  uint64_t bytes = store.total_bytes();
  Damage(Dir() + "/" + DurableStore::ObjectRelPath(key));
  ASSERT_EQ(store.GetObject(RecordType::kContracts, key, "contracts"), std::nullopt);

  // Same key, same bytes: the damaged file is replaced, not trusted.
  EXPECT_TRUE(store.PutObject(RecordType::kContracts, key, "payload", "contracts"));
  EXPECT_EQ(store.GetObject(RecordType::kContracts, key, "contracts"), "payload");
  EXPECT_EQ(store.object_count(), 1u);
  EXPECT_EQ(store.total_bytes(), bytes);
  // Healed: the next put of the same bytes writes nothing again.
  EXPECT_FALSE(store.PutObject(RecordType::kContracts, key, "payload", "contracts"));
}

TEST_F(StoreTest, ManifestRoundTripsAcrossReopen) {
  PersistedDatasetInfo info;
  info.config_keys["dev1.cfg"] = 0xdeadbeefcafef00dull;
  info.config_keys["dev2.cfg"] = 2;
  info.metadata_keys = {0xffffffffffffffffull, 7};
  info.contracts_key = 0x123456789abcdef0ull;
  info.contract_count = 35;
  info.options.support = 3;
  info.options.confidence = 0.9;
  info.options.score_threshold = 2.5;
  info.options.constants = true;
  info.options.minimize = false;
  info.options.learn_ordering = false;
  info.lexer_key = 0xabcdef0123456789ull;
  info.embed_context = false;
  {
    DurableStore store(Dir());
    store.PutDataset("edge", info);
  }
  DurableStore reopened(Dir());
  auto loaded = reopened.GetDataset("edge");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->config_keys, info.config_keys);
  EXPECT_EQ(loaded->metadata_keys, info.metadata_keys);
  EXPECT_EQ(loaded->contracts_key, info.contracts_key);
  EXPECT_EQ(loaded->contract_count, info.contract_count);
  EXPECT_EQ(loaded->options.support, 3);
  EXPECT_EQ(loaded->options.confidence, 0.9);
  EXPECT_EQ(loaded->options.score_threshold, 2.5);
  EXPECT_TRUE(loaded->options.constants);
  EXPECT_FALSE(loaded->options.minimize);
  EXPECT_FALSE(loaded->options.learn_ordering);
  EXPECT_TRUE(loaded->options.learn_present);
  EXPECT_EQ(loaded->lexer_key, info.lexer_key);
  EXPECT_EQ(loaded->embed_context, false);
  EXPECT_TRUE(SameLearnInputs(*loaded, info));
  EXPECT_FALSE(reopened.manifest_corrupt());
}

TEST_F(StoreTest, DatasetInfoJsonKeepsFullKeyPrecision) {
  // 64-bit keys must not round-trip through double (53-bit mantissa).
  PersistedDatasetInfo info;
  info.config_keys["c"] = 0xfedcba9876543210ull;
  info.contracts_key = 0xffffffffffffffffull;
  info.lexer_key = 0xfedcba9876543211ull;
  info.embed_context = true;
  auto back = DatasetInfoFromJson(DatasetInfoToJson(info));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->config_keys["c"], 0xfedcba9876543210ull);
  EXPECT_EQ(back->contracts_key, 0xffffffffffffffffull);
  EXPECT_EQ(back->lexer_key, 0xfedcba9876543211ull);
  EXPECT_EQ(back->embed_context, true);
}

TEST_F(StoreTest, EntryWithoutLexerKeyOrEmbeddingParsesButNeverMatches) {
  // An entry written before the lexer key and embedding flag were recorded
  // still loads (warm restarts use it), but it can never prove a learn's
  // inputs unchanged, so a reuse lookup always misses and relearns once.
  PersistedDatasetInfo current;
  current.config_keys["c"] = 5;
  current.metadata_keys = {6};
  current.contracts_key = 7;
  current.lexer_key = 0;
  current.embed_context = true;
  JsonValue json = DatasetInfoToJson(current);
  ASSERT_NE(json.Find("lexer_key"), nullptr);
  ASSERT_NE(json.Find("embed_context"), nullptr);
  JsonValue legacy = JsonValue::Object();
  for (const auto& [key, value] : json.members()) {
    if (key != "lexer_key" && key != "embed_context") {
      legacy.Set(key, value);
    }
  }
  auto old = DatasetInfoFromJson(legacy);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->config_keys, current.config_keys);
  EXPECT_EQ(old->contracts_key, 7u);
  EXPECT_FALSE(old->lexer_key.has_value());
  EXPECT_FALSE(old->embed_context.has_value());
  EXPECT_FALSE(SameLearnInputs(*old, current));
  EXPECT_FALSE(SameLearnInputs(current, *old));
  EXPECT_FALSE(SameLearnInputs(*old, *old));
  EXPECT_TRUE(SameLearnInputs(current, current));

  // Each recorded setting is part of the identity.
  PersistedDatasetInfo other_lexer = current;
  other_lexer.lexer_key = 1;
  EXPECT_FALSE(SameLearnInputs(current, other_lexer));
  PersistedDatasetInfo no_embedding = current;
  no_embedding.embed_context = false;
  EXPECT_FALSE(SameLearnInputs(current, no_embedding));
}

TEST_F(StoreTest, RemoveDatasetPersists) {
  {
    DurableStore store(Dir());
    store.PutDataset("a", PersistedDatasetInfo{});
    store.PutDataset("b", PersistedDatasetInfo{});
    EXPECT_TRUE(store.RemoveDataset("a"));
    EXPECT_FALSE(store.RemoveDataset("a"));
  }
  DurableStore reopened(Dir());
  EXPECT_EQ(reopened.Datasets().size(), 1u);
  EXPECT_TRUE(reopened.GetDataset("b").has_value());
}

TEST_F(StoreTest, CorruptManifestDegradesToEmptyAndIsReported) {
  {
    DurableStore store(Dir());
    store.PutDataset("edge", PersistedDatasetInfo{});
  }
  Damage(Dir() + "/manifest.rec");
  DurableStore reopened(Dir());
  EXPECT_TRUE(reopened.manifest_corrupt());
  EXPECT_TRUE(reopened.Datasets().empty());
  EXPECT_EQ(reopened.Counters()["manifest"].corrupt, 1u);

  DurableStore::VerifyResult verify = reopened.Verify();
  EXPECT_FALSE(verify.manifest_ok);
}

TEST_F(StoreTest, VerifyFindsDamageAndMissingRefs) {
  DurableStore store(Dir());
  uint64_t good = ContentKey("good", "good");
  uint64_t bad = ContentKey("bad", "bad");
  store.PutObject(RecordType::kBlob, good, "good", "config");
  store.PutObject(RecordType::kBlob, bad, "bad", "config");
  PersistedDatasetInfo info;
  info.config_keys["good"] = good;
  info.config_keys["ghost"] = 777;  // No object behind this ref.
  store.PutDataset("edge", info);

  DurableStore::VerifyResult clean = store.Verify();
  EXPECT_EQ(clean.corrupt, 0u);
  EXPECT_EQ(clean.missing_refs, 1u);

  Damage(Dir() + "/" + DurableStore::ObjectRelPath(bad));
  DurableStore::VerifyResult damaged = store.Verify();
  EXPECT_EQ(damaged.objects, 2u);
  EXPECT_EQ(damaged.corrupt, 1u);
  EXPECT_TRUE(damaged.manifest_ok);
  EXPECT_FALSE(damaged.problems.empty());
}

TEST_F(StoreTest, GcReclaimsUnreferencedObjectsAndStrays) {
  DurableStore store(Dir());
  uint64_t kept = ContentKey("kept", "kept");
  uint64_t orphan = ContentKey("orphan", "orphan");
  store.PutObject(RecordType::kBlob, kept, "kept", "config");
  store.PutObject(RecordType::kBlob, orphan, "orphan", "config");
  WriteFile(Dir() + "/objects/ab/stray.tmp.123", "half-written temp");
  PersistedDatasetInfo info;
  info.config_keys["kept"] = kept;
  store.PutDataset("edge", info);

  DurableStore::GcResult result = store.Gc();
  EXPECT_EQ(result.removed, 2u);  // The orphan object and the stray temp file.
  EXPECT_GT(result.reclaimed_bytes, 0u);
  EXPECT_TRUE(store.HasObject(kept));
  EXPECT_FALSE(store.HasObject(orphan));
  EXPECT_EQ(store.GetObject(RecordType::kBlob, kept, "config"), "kept");
}

TEST_F(StoreTest, WriteFaultDoesNotPoisonTheStore) {
  DurableStore store(Dir());
  ASSERT_TRUE(FaultInjector::Global().Configure("store_write:fail_all"));
  uint64_t key = ContentKey("dev", "text");
  EXPECT_THROW(store.PutObject(RecordType::kBlob, key, "text", "config"),
               std::runtime_error);
  FaultInjector::Global().Reset();
  EXPECT_FALSE(store.HasObject(key));
  EXPECT_TRUE(store.PutObject(RecordType::kBlob, key, "text", "config"));
  EXPECT_EQ(store.GetObject(RecordType::kBlob, key, "config"), "text");
}

}  // namespace
}  // namespace concord
