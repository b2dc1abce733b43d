#include "src/pattern/parser.h"

#include <iterator>
#include <stdexcept>

#include "src/util/fault.h"

namespace concord {

size_t Dataset::TotalLines() const {
  size_t total = 0;
  for (const ParsedConfig& config : configs) {
    total += config.lines.size();
  }
  return total;
}

size_t Dataset::TotalParameters() const {
  size_t total = 0;
  for (size_t id = 0; id < patterns.size(); ++id) {
    const PatternInfo& info = patterns.Get(static_cast<PatternId>(id));
    if (!info.is_constant) {
      total += info.param_types.size();
    }
  }
  return total;
}

ConfigParser::ConfigParser(const Lexer* lexer, PatternTable* table, ParseOptions options)
    : lexer_(lexer), table_(table), options_(options) {}

std::string_view ConfigParser::FramePrefix(const EmbeddedFile& embedded, int32_t frame) {
  // Walk out to the root or the nearest computed frame, then compute the frames
  // on that path outermost first, each from its parent's prefix.
  frame_path_.clear();
  for (int32_t f = frame; f != kNoFrame && frame_spans_[static_cast<size_t>(f)].begin == kUnset;
       f = embedded.frames[static_cast<size_t>(f)].parent) {
    frame_path_.push_back(f);
  }
  for (size_t i = frame_path_.size(); i-- > 0;) {
    const EmbedFrame& node = embedded.frames[static_cast<size_t>(frame_path_[i])];
    Span parent = node.parent == kNoFrame ? root_ : frame_spans_[static_cast<size_t>(node.parent)];
    lexer_->LexInto(node.text, &lex_, &regex_scratch_);
    Span span{frame_text_.size(), 0};
    frame_text_.append(frame_text_, parent.begin, parent.end - parent.begin);
    frame_text_ += '/';
    frame_text_ += lex_.pattern_unnamed;
    span.end = frame_text_.size();
    frame_spans_[static_cast<size_t>(frame_path_[i])] = span;
  }
  Span span = frame == kNoFrame ? root_ : frame_spans_[static_cast<size_t>(frame)];
  return std::string_view(frame_text_).substr(span.begin, span.end - span.begin);
}

ParsedConfig ConfigParser::ParseEmbedded(const std::string& name, const EmbeddedFile& embedded,
                                         std::string_view context_root) {
  ParsedConfig config;
  config.name = name;
  config.format = embedded.format;
  config.lines.reserve(embedded.lines.size());
  frame_text_.assign(context_root);
  root_ = Span{0, frame_text_.size()};
  frame_spans_.assign(embedded.frames.size(), Span{});

  for (const ContextLine& line : embedded.lines) {
    // Context prefix from the (unnamed) parent patterns.
    scratch_.assign(FramePrefix(embedded, line.frame));
    scratch_ += '/';
    const size_t context_size = scratch_.size();

    lexer_->LexInto(line.text, &lex_, &regex_scratch_);
    ParsedLine parsed;
    parsed.line_number = line.line_number;
    parsed.values.assign(std::make_move_iterator(lex_.values.begin()),
                         std::make_move_iterator(lex_.values.end()));

    // Probe with the scratch buffer first: patterns repeat heavily, so the common
    // case is a hit that materializes none of the three concatenations.
    scratch_ += lex_.pattern_named;
    parsed.pattern = table_->Find(scratch_);
    if (parsed.pattern == kInvalidPattern) {
      std::string context = scratch_.substr(0, context_size);
      std::vector<ValueType> types;
      types.reserve(parsed.values.size());
      for (const Value& v : parsed.values) {
        types.push_back(v.type());
      }
      parsed.pattern = table_->Intern(scratch_, context + lex_.untyped,
                                      context + lex_.pattern_unnamed, std::move(types));
    }

    if (options_.constants) {
      // Exact-line pattern: "=", the context and the raw text, no parameters.
      scratch_.resize(context_size);
      scratch_.insert(scratch_.begin(), '=');
      scratch_ += line.text;
      parsed.const_pattern = table_->Find(scratch_);
      if (parsed.const_pattern == kInvalidPattern) {
        std::string const_text(scratch_);
        parsed.const_pattern =
            table_->Intern(const_text, const_text, const_text, {}, /*is_constant=*/true);
      }
    }
    config.lines.push_back(std::move(parsed));
  }
  return config;
}

ParsedConfig ConfigParser::Parse(const std::string& name, const std::string& text) {
  if (FaultPoint("parse")) {
    throw std::runtime_error(FaultMessage("parse") + ": " + name);
  }
  EmbeddedFile embedded = options_.embed_context
                              ? EmbedText(text)
                              : EmbedTextAs(text, FormatCategory::kFlat);
  return ParseEmbedded(name, embedded, "");
}

std::vector<ParsedLine> ConfigParser::ParseMetadata(const std::string& text) {
  EmbeddedFile embedded = options_.embed_context
                              ? EmbedText(text)
                              : EmbedTextAs(text, FormatCategory::kFlat);
  ParsedConfig config = ParseEmbedded("@meta", embedded, "@meta");
  return std::move(config.lines);
}

}  // namespace concord
