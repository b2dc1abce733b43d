// Format detection and context embedding (§3.1).
//
// Concord treats configurations as unstructured text, but hierarchy matters: the line
// `ip address 10.14.14.34` only relates to the loopback prefix list because it appears
// under `interface Loopback0`. Before lexing, each file is classified into one of a
// small number of format categories and every line is annotated with its chain of
// parent lines:
//
//   * Indent  — parents are the enclosing lines of smaller indentation (Figure 3).
//   * YAML    — same indentation discipline; `- ` list markers fold into the indent.
//   * JSON    — the document is parsed and one logical line is synthesized per scalar
//               leaf, with the object keys on the path as parents.
//   * Flat    — every line stands alone (Junos-style `set ...` syntax already carries
//               its full context in the line).
//
// The paper observes that despite thousands of configuration dialects, the number of
// ways hierarchy is expressed is tiny — this module is the complete list it supports.
#ifndef SRC_FORMAT_EMBED_H_
#define SRC_FORMAT_EMBED_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace concord {

enum class FormatCategory { kJson, kYaml, kIndent, kFlat, kUnknown };

std::string_view FormatCategoryName(FormatCategory format);

// Frame id of a line with no enclosing parent.
constexpr int32_t kNoFrame = -1;

// A parent that encloses other lines: an indented block's header line, or a JSON
// object's key. The frames of one file form a tree; each names its own parent.
struct EmbedFrame {
  std::string_view text;      // The parent's raw text, trimmed.
  int32_t parent = kNoFrame;  // Enclosing frame.
};

// One configuration line with its embedded context chain.
struct ContextLine {
  std::string_view text;      // The line's own raw text, trimmed.
  int32_t frame = kNoFrame;   // Innermost enclosing frame; its chain is the context.
  int line_number = 0;        // 1-based line in the source file (synthesized
                              // sequence number for JSON inputs).
};

// The views in `frames` and `lines` point into the embedded text, which must
// outlive the file, or into `synthesized`.
struct EmbeddedFile {
  FormatCategory format = FormatCategory::kUnknown;
  std::vector<EmbedFrame> frames;
  std::vector<ContextLine> lines;
  // JSON leaf lines and keys, which appear nowhere in the text as one span. A
  // deque never moves its elements, so views into it stay valid.
  std::deque<std::string> synthesized;
};

// Classifies the file's format category. Empty input yields kUnknown.
FormatCategory DetectFormat(std::string_view text);

// Detects the format and embeds context into every (non-blank) line. The text is
// split into lines and, when it looks like JSON, parsed only once.
EmbeddedFile EmbedText(std::string_view text);

// Embeds with a caller-chosen category; used by the --no-embedding ablation (which
// passes kFlat) and by tests.
EmbeddedFile EmbedTextAs(std::string_view text, FormatCategory format);

}  // namespace concord

#endif  // SRC_FORMAT_EMBED_H_
