#include "src/format/embed.h"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

namespace concord {
namespace {

constexpr char kAristaConfig[] = R"(hostname DEV1
!
interface Loopback0
   ip address 10.14.14.34
!
interface Port-Channel110
   evpn ether-segment
      route-target import 00:00:0c:d3:00:6e
!
ip prefix-list loopback
   seq 10 permit 10.14.14.34/32
   seq 20 permit 0.0.0.0/0
!
router bgp 65015
   maximum-paths 64 ecmp 64
   vlan 251
      rd 10.14.14.117:10251
)";

// Raw texts of the frames enclosing `line`, outermost first.
std::vector<std::string_view> Parents(const EmbeddedFile& f, const ContextLine& line) {
  std::vector<std::string_view> parents;
  for (int32_t id = line.frame; id != kNoFrame; id = f.frames[static_cast<size_t>(id)].parent) {
    parents.insert(parents.begin(), f.frames[static_cast<size_t>(id)].text);
  }
  return parents;
}

TEST(DetectFormat, Categories) {
  EXPECT_EQ(DetectFormat(kAristaConfig), FormatCategory::kIndent);
  EXPECT_EQ(DetectFormat("{\"a\": 1}"), FormatCategory::kJson);
  EXPECT_EQ(DetectFormat("[1, 2]"), FormatCategory::kJson);
  EXPECT_EQ(DetectFormat("set interfaces xe-0 unit 0\nset routing-options static\n"),
            FormatCategory::kFlat);
  EXPECT_EQ(DetectFormat("name: test\nitems:\n  - a\n  - b\n"), FormatCategory::kYaml);
  EXPECT_EQ(DetectFormat(""), FormatCategory::kUnknown);
  EXPECT_EQ(DetectFormat("   \n  \n"), FormatCategory::kUnknown);
}

TEST(EmbedText, LinesAreViewsIntoTheText) {
  std::string text = "interface Loopback0\n   ip address 10.14.14.34\r\n";
  EmbeddedFile f = EmbedText(text);
  ASSERT_EQ(f.lines.size(), 2u);
  EXPECT_EQ(f.lines[1].text, "ip address 10.14.14.34");
  EXPECT_EQ(f.lines[1].text.data(), text.data() + text.find("ip address"));
  EXPECT_EQ(f.frames[0].text.data(), text.data());
  EXPECT_TRUE(f.synthesized.empty());
}

TEST(EmbedJson, UnparsableJsonEmbedsFlat) {
  EmbeddedFile f = EmbedTextAs("{not json\n  x\n", FormatCategory::kJson);
  EXPECT_EQ(f.format, FormatCategory::kFlat);
  ASSERT_EQ(f.lines.size(), 2u);
  EXPECT_EQ(f.lines[1].frame, kNoFrame);
}

TEST(DetectFormat, MalformedJsonFallsThrough) {
  // Starts like JSON but does not parse: classified by line shape instead.
  EXPECT_NE(DetectFormat("{this is not json"), FormatCategory::kJson);
}

TEST(EmbedIndent, ParentsFollowIndentation) {
  EmbeddedFile f = EmbedText(kAristaConfig);
  ASSERT_EQ(f.format, FormatCategory::kIndent);

  // Locate `route-target import ...`; its parents must be the port channel and the
  // evpn block, in outermost-first order.
  const ContextLine* rt = nullptr;
  for (const auto& line : f.lines) {
    if (line.text.rfind("route-target", 0) == 0) {
      rt = &line;
    }
  }
  ASSERT_NE(rt, nullptr);
  std::vector<std::string_view> parents = Parents(f, *rt);
  ASSERT_EQ(parents.size(), 2u);
  EXPECT_EQ(parents[0], "interface Port-Channel110");
  EXPECT_EQ(parents[1], "evpn ether-segment");
  // The evpn block's frame is the line itself, nested in the port channel's.
  const EmbedFrame& evpn = f.frames[static_cast<size_t>(rt->frame)];
  EXPECT_EQ(evpn.text, "evpn ether-segment");
  ASSERT_NE(evpn.parent, kNoFrame);
  EXPECT_EQ(f.frames[static_cast<size_t>(evpn.parent)].text, "interface Port-Channel110");
  EXPECT_EQ(f.frames[static_cast<size_t>(evpn.parent)].parent, kNoFrame);
}

TEST(EmbedIndent, TopLevelLinesHaveNoParents) {
  EmbeddedFile f = EmbedText(kAristaConfig);
  for (const auto& line : f.lines) {
    if (line.text == "hostname DEV1" || line.text == "router bgp 65015") {
      EXPECT_EQ(line.frame, kNoFrame) << line.text;
    }
  }
}

TEST(EmbedIndent, SeparatorResetsContext) {
  EmbeddedFile f = EmbedText(kAristaConfig);
  // Every '!' line is at indent 0 with no parents.
  int separators = 0;
  for (const auto& line : f.lines) {
    if (line.text == "!") {
      ++separators;
      EXPECT_EQ(line.frame, kNoFrame);
    }
  }
  EXPECT_EQ(separators, 4);
}

TEST(EmbedIndent, NestedBlocks) {
  EmbeddedFile f = EmbedText(kAristaConfig);
  const ContextLine* rd = nullptr;
  for (const auto& line : f.lines) {
    if (line.text.rfind("rd ", 0) == 0) {
      rd = &line;
    }
  }
  ASSERT_NE(rd, nullptr);
  std::vector<std::string_view> parents = Parents(f, *rd);
  ASSERT_EQ(parents.size(), 2u);
  EXPECT_EQ(parents[0], "router bgp 65015");
  EXPECT_EQ(parents[1], "vlan 251");
}

TEST(EmbedIndent, LineNumbersAreOriginal) {
  EmbeddedFile f = EmbedText("a\n\n  b\n");
  ASSERT_EQ(f.lines.size(), 2u);
  EXPECT_EQ(f.lines[0].line_number, 1);
  EXPECT_EQ(f.lines[1].line_number, 3);  // Blank line skipped but numbering kept.
}

TEST(EmbedIndent, SiblingPopsPreviousBlock) {
  EmbeddedFile f = EmbedText("block1\n  child1\nblock2\n  child2\n");
  ASSERT_EQ(f.lines.size(), 4u);
  EXPECT_EQ(f.lines[3].text, "child2");
  ASSERT_EQ(Parents(f, f.lines[3]), std::vector<std::string_view>{"block2"});
  // Siblings share their block's frame; the next block opens a new one.
  EXPECT_EQ(f.lines[1].frame, 0);
  EXPECT_EQ(f.lines[3].frame, 2);
  EXPECT_NE(f.lines[1].frame, f.lines[3].frame);
}

TEST(EmbedJson, PathsBecomeParents) {
  EmbeddedFile f = EmbedText(R"({
    "nfInfos": [
      {"vrfName": "mgmt", "vlanId": 251}
    ]
  })");
  ASSERT_EQ(f.format, FormatCategory::kJson);
  ASSERT_EQ(f.lines.size(), 2u);
  EXPECT_EQ(f.lines[0].text, "vrfName mgmt");
  EXPECT_EQ(Parents(f, f.lines[0]), std::vector<std::string_view>{"nfInfos"});
  EXPECT_EQ(f.lines[1].text, "vlanId 251");
  // Both leaves of the one array element sit in one key frame; the root object
  // opens none.
  ASSERT_EQ(f.frames.size(), 1u);
  EXPECT_EQ(f.frames[0].text, "nfInfos");
  EXPECT_EQ(f.frames[0].parent, kNoFrame);
  EXPECT_EQ(f.lines[0].frame, 0);
  EXPECT_EQ(f.lines[1].frame, 0);
}

TEST(EmbedJson, DeepNesting) {
  EmbeddedFile f = EmbedText(R"({"a": {"b": {"c": 5}}})");
  ASSERT_EQ(f.lines.size(), 1u);
  EXPECT_EQ(f.lines[0].text, "c 5");
  EXPECT_EQ(Parents(f, f.lines[0]), (std::vector<std::string_view>{"a", "b"}));
  ASSERT_EQ(f.frames.size(), 2u);
  EXPECT_EQ(f.frames[1].text, "b");
  EXPECT_EQ(f.frames[1].parent, 0);
}

TEST(EmbedJson, ArrayOfScalars) {
  EmbeddedFile f = EmbedText(R"({"servers": ["10.0.0.1", "10.0.0.2"]})");
  ASSERT_EQ(f.lines.size(), 2u);
  EXPECT_EQ(f.lines[0].text, "servers 10.0.0.1");
  EXPECT_EQ(f.lines[1].text, "servers 10.0.0.2");
  EXPECT_EQ(f.lines[0].frame, kNoFrame);
  EXPECT_TRUE(f.frames.empty());
}

TEST(EmbedYaml, ListMarkersFoldIntoIndent) {
  EmbeddedFile f = EmbedText("nfInfos:\n  - vrfName: mgmt\n    vlanId: 251\n");
  ASSERT_EQ(f.format, FormatCategory::kYaml);
  ASSERT_EQ(f.lines.size(), 3u);
  EXPECT_EQ(f.lines[1].text, "vrfName: mgmt");
  EXPECT_EQ(Parents(f, f.lines[1]), std::vector<std::string_view>{"nfInfos:"});
  EXPECT_EQ(f.lines[2].text, "vlanId: 251");
  EXPECT_EQ(Parents(f, f.lines[2]), std::vector<std::string_view>{"nfInfos:"});
  // Both list fields point at the key line's frame.
  EXPECT_EQ(f.lines[1].frame, 0);
  EXPECT_EQ(f.lines[2].frame, 0);
  EXPECT_EQ(f.frames[0].text, "nfInfos:");
}

TEST(EmbedFlat, NoParentsEver) {
  EmbeddedFile f = EmbedTextAs(kAristaConfig, FormatCategory::kFlat);
  for (const auto& line : f.lines) {
    EXPECT_EQ(line.frame, kNoFrame);
  }
  EXPECT_TRUE(f.frames.empty());
  // Same number of non-blank lines as the indent embedding.
  EXPECT_EQ(f.lines.size(), EmbedText(kAristaConfig).lines.size());
}

TEST(EmbedTextAs, ForcedFlatDisablesEmbedding) {
  // This is the --no-embedding ablation from Figure 7.
  EmbeddedFile f = EmbedTextAs("a\n  b\n", FormatCategory::kFlat);
  ASSERT_EQ(f.lines.size(), 2u);
  EXPECT_EQ(f.lines[1].frame, kNoFrame);
  EXPECT_EQ(f.lines[1].text, "b");
}

}  // namespace
}  // namespace concord
