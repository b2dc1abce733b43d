// Configuration parsing pipeline: raw text -> embedded lines -> interned patterns.
//
// This composes §3.1 (context embedding) and §3.2 (pattern/value extraction) into the
// representation every miner operates on. The canonical pattern of a line is
//
//   "/" + parent patterns (types only, no captures) joined by "/" + leaf pattern
//
// exactly as rendered in Figure 3 — e.g.
// `/router bgp [num]/vlan [num]/rd [a:ip4]:[b:num]`. Parent parameters are deliberately
// not captured (footnote 2 of the paper): real relationships to a parent value are
// learned from the parent's own line.
#ifndef SRC_PATTERN_PARSER_H_
#define SRC_PATTERN_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/format/embed.h"
#include "src/pattern/lexer.h"
#include "src/pattern/pattern_table.h"
#include "src/value/value.h"

namespace concord {

// One lexed configuration line.
struct ParsedLine {
  PatternId pattern = kInvalidPattern;
  PatternId const_pattern = kInvalidPattern;  // Exact-text pattern (constants mode).
  std::vector<Value> values;  // Owned, so lines can move apart from their config.
  int line_number = 0;  // 1-based in the source file.
};

struct ParsedConfig {
  std::string name;
  FormatCategory format = FormatCategory::kUnknown;
  std::vector<ParsedLine> lines;
};

// A full training or test corpus sharing one pattern table.
struct Dataset {
  PatternTable patterns;
  std::vector<ParsedConfig> configs;
  std::vector<ParsedLine> metadata;  // §3.7: logically appended to every config.

  size_t TotalLines() const;
  size_t TotalParameters() const;  // Sum of parameter counts over unique patterns.
};

struct ParseOptions {
  bool embed_context = true;  // False = the Figure 7 "baseline" ablation.
  bool constants = false;     // Also intern exact-line constant patterns (§4).
};

class ConfigParser {
 public:
  // `lexer` and `table` must outlive the parser.
  ConfigParser(const Lexer* lexer, PatternTable* table, ParseOptions options);

  // Parses one configuration file.
  ParsedConfig Parse(const std::string& name, const std::string& text);

  // Parses a metadata file; lines are rooted under the "@meta" context so learned
  // contracts render as `@meta/nfInfos/...` (§3.7).
  std::vector<ParsedLine> ParseMetadata(const std::string& text);

 private:
  ParsedConfig ParseEmbedded(const std::string& name, const EmbeddedFile& embedded,
                             std::string_view context_root);

  // The context prefix of `frame` in the file being parsed: the root, then "/"
  // and the unnamed pattern of each enclosing frame, outermost first. Computed
  // once per frame, on first use, into frame_text_.
  std::string_view FramePrefix(const EmbeddedFile& embedded, int32_t frame);

  const Lexer* lexer_;
  PatternTable* table_;
  ParseOptions options_;
  // Buffers reused across lines and files, so a warm parser allocates only what
  // its results keep.
  LineLex lex_;
  Regex::Scratch regex_scratch_;
  std::string scratch_;  // Pattern-text probe buffer (see ParseEmbedded).
  // Frame prefixes of the current file, as [begin, end) spans of frame_text_.
  // The root prefix, for lines outside every frame, is the span `root_`.
  struct Span {
    size_t begin = kUnset;  // kUnset: the frame's prefix is not computed yet.
    size_t end = 0;
  };
  static constexpr size_t kUnset = static_cast<size_t>(-1);
  std::string frame_text_;
  std::vector<Span> frame_spans_;
  Span root_;
  std::vector<int32_t> frame_path_;  // FramePrefix's walk to a computed frame.
};

}  // namespace concord

#endif  // SRC_PATTERN_PARSER_H_
