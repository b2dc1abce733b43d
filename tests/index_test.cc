#include "src/learn/index.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace concord {
namespace {

TEST(BuildIndexes, LinesAndPatternsIndexed) {
  Dataset d = BuildDataset({"vlan 1\nvlan 2\nhostname X\n", "vlan 3\n"});
  auto indexes = BuildIndexes(d);
  ASSERT_EQ(indexes.size(), 2u);
  EXPECT_EQ(indexes[0].own_line_count, 3u);
  EXPECT_EQ(indexes[0].lines.size(), 3u);
  PatternId vlan = d.configs[0].lines[0].pattern;
  ASSERT_TRUE(indexes[0].ContainsPattern(vlan));
  EXPECT_EQ(indexes[0].by_pattern.at(vlan).size(), 2u);
  EXPECT_EQ(indexes[1].by_pattern.at(vlan).size(), 1u);
  EXPECT_FALSE(indexes[1].ContainsPattern(d.configs[0].lines[2].pattern));
}

TEST(BuildIndexes, MetadataAppendedToEveryConfig) {
  Dataset d = BuildDataset({"a\n", "b\n"});
  Lexer lexer;
  ConfigParser parser(&lexer, &d.patterns, ParseOptions{});
  d.metadata = parser.ParseMetadata("{\"vlanId\": 7}");
  auto indexes = BuildIndexes(d);
  for (const ConfigIndex& index : indexes) {
    EXPECT_EQ(index.own_line_count, 1u);
    EXPECT_EQ(index.lines.size(), 2u);  // Own line + metadata line.
    EXPECT_TRUE(index.ContainsPattern(d.metadata[0].pattern));
  }
}

TEST(BuildIndexes, ConstantPatternsIndexedAlongsideTyped) {
  Dataset d = BuildDataset({"vlan 1\n"}, ParseOptions{.embed_context = true, .constants = true});
  auto indexes = BuildIndexes(d);
  const ParsedLine& line = d.configs[0].lines[0];
  EXPECT_TRUE(indexes[0].ContainsPattern(line.pattern));
  EXPECT_TRUE(indexes[0].ContainsPattern(line.const_pattern));
  // Both map to the same line index.
  EXPECT_EQ(indexes[0].by_pattern.at(line.pattern), indexes[0].by_pattern.at(line.const_pattern));
}

TEST(CountConfigsPerPattern, CountsConfigsNotOccurrences) {
  Dataset d = BuildDataset({"vlan 1\nvlan 2\n", "vlan 3\n", "hostname X\n"});
  auto indexes = BuildIndexes(d);
  auto counts = CountConfigsPerPattern(d, indexes);
  PatternId vlan = d.configs[0].lines[0].pattern;
  PatternId host = d.configs[2].lines[0].pattern;
  EXPECT_EQ(counts[vlan], 2u);  // Two configs contain it (three occurrences).
  EXPECT_EQ(counts[host], 1u);
}

TEST(BuildIndexes, EmptyDataset) {
  Dataset d;
  EXPECT_TRUE(BuildIndexes(d).empty());
  EXPECT_TRUE(CountConfigsPerPattern(d, {}).empty());
}

TEST(CountConfigsPerPattern, MetadataPatternsCountedPerConfig) {
  // Metadata lines are appended to every index, so their patterns count every config.
  Dataset d = BuildDataset({"vlan 1\n", "hostname X\n"});
  Lexer lexer;
  ConfigParser parser(&lexer, &d.patterns, ParseOptions{});
  d.metadata = parser.ParseMetadata("{\"vlanId\": 7}");
  auto indexes = BuildIndexes(d);
  auto counts = CountConfigsPerPattern(d, indexes);
  EXPECT_EQ(counts[d.metadata[0].pattern], 2u);
  EXPECT_EQ(counts[d.configs[0].lines[0].pattern], 1u);
}

TEST(BuildIndexes, AppendsMetadataToEveryConfig) {
  // Metadata must land after each config's own lines.
  Dataset d = BuildDataset({"vlan 1\nvlan 2\n", "hostname X\n"});
  Lexer lexer;
  ConfigParser parser(&lexer, &d.patterns, ParseOptions{});
  d.metadata = parser.ParseMetadata("{\"vlanId\": 7}");

  auto indexes = BuildIndexes(d);
  ASSERT_EQ(indexes.size(), 2u);
  EXPECT_EQ(indexes[0].own_line_count, 2u);
  EXPECT_EQ(indexes[0].lines.size(), 3u);
  EXPECT_EQ(indexes[1].own_line_count, 1u);
  EXPECT_EQ(indexes[1].lines.size(), 2u);
  for (const ConfigIndex& index : indexes) {
    EXPECT_EQ(index.lines.back(), &d.metadata[0]);
    EXPECT_TRUE(index.ContainsPattern(d.metadata[0].pattern));
  }

  // Per-config index built directly (the artifact pipeline's Index stage)
  // matches the batch build.
  ConfigIndex single = BuildConfigIndex(&d.configs[0], d.metadata);
  EXPECT_EQ(single.own_line_count, indexes[0].own_line_count);
  EXPECT_EQ(single.lines, indexes[0].lines);
}

TEST(BuildIndexes, HonorsDeadline) {
  Dataset d = BuildDataset({"vlan 1\n", "vlan 2\n", "vlan 3\n"});
  Deadline expired = Deadline::After(0);
  EXPECT_THROW(BuildIndexes(d, &expired), DeadlineExceeded);
  Deadline open = Deadline::Never();
  EXPECT_EQ(BuildIndexes(d, &open).size(), 3u);
}

TEST(PatternTable, InternDeduplicates) {
  PatternTable table;
  PatternId a = table.Intern("/x [a:num]", "/x [a:?]", "/x [num]", {ValueType::kNum});
  PatternId b = table.Intern("/x [a:num]", "ignored", "ignored", {});
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.size(), 1u);
  // First insertion's metadata wins.
  EXPECT_EQ(table.Get(a).untyped, "/x [a:?]");
  EXPECT_EQ(table.Get(a).unnamed, "/x [num]");
  ASSERT_EQ(table.Get(a).param_types.size(), 1u);
}

TEST(PatternTable, FindMissingReturnsInvalid) {
  PatternTable table;
  EXPECT_EQ(table.Find("/nope"), kInvalidPattern);
  table.Intern("/yes", "/yes", "/yes", {});
  EXPECT_NE(table.Find("/yes"), kInvalidPattern);
}

TEST(PatternTable, HeterogeneousStringViewLookup) {
  PatternTable table;
  PatternId id = table.Intern("/iface [a:num]", "/iface [a:?]", "/iface [num]",
                              {ValueType::kNum});
  // Probe with views into a larger buffer: no std::string needs to be built.
  std::string buffer = "xx/iface [a:num]yy";
  std::string_view hit = std::string_view(buffer).substr(2, 14);
  EXPECT_EQ(table.Find(hit), id);
  EXPECT_EQ(table.Intern(hit, "ignored", "ignored", {}), id);
  EXPECT_EQ(table.Find(std::string_view("/iface [a:nu")), kInvalidPattern);
  EXPECT_EQ(table.size(), 1u);
  // The stored text is an owned copy, not tied to the probe buffer.
  buffer.clear();
  EXPECT_EQ(table.Get(id).text, "/iface [a:num]");
}

TEST(PatternTable, ParamNames) {
  EXPECT_EQ(PatternTable::ParamName(0), "a");
  EXPECT_EQ(PatternTable::ParamName(25), "z");
  EXPECT_EQ(PatternTable::ParamName(26), "p26");
  EXPECT_EQ(PatternTable::ParamName(100), "p100");
}

TEST(PatternTable, UnnamedFormTracksContextUse) {
  // The parser's unnamed form is exactly what appears in children's context paths.
  Dataset d = BuildDataset({"interface Ethernet7\n   mtu 9000\n"});
  const PatternInfo& parent = d.patterns.Get(d.configs[0].lines[0].pattern);
  const PatternInfo& child = d.patterns.Get(d.configs[0].lines[1].pattern);
  EXPECT_EQ(parent.unnamed, "/interface Ethernet[num]");
  EXPECT_EQ(child.text.rfind(parent.unnamed + "/", 0), 0u) << child.text;
}

}  // namespace
}  // namespace concord
