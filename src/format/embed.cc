#include "src/format/embed.h"

#include "src/format/json.h"
#include "src/util/io.h"
#include "src/util/strings.h"

namespace concord {

std::string_view FormatCategoryName(FormatCategory format) {
  switch (format) {
    case FormatCategory::kJson:
      return "json";
    case FormatCategory::kYaml:
      return "yaml";
    case FormatCategory::kIndent:
      return "indent";
    case FormatCategory::kFlat:
      return "flat";
    case FormatCategory::kUnknown:
      return "unknown";
  }
  return "unknown";
}

namespace {

// Indentation width with tabs counted as 4 columns.
int IndentWidth(std::string_view line) {
  int width = 0;
  for (char c : line) {
    if (c == ' ') {
      ++width;
    } else if (c == '\t') {
      width += 4;
    } else {
      break;
    }
  }
  return width;
}

bool LooksLikeYamlLine(std::string_view trimmed) {
  if (trimmed.empty() || trimmed[0] == '#') {
    return true;  // Comments/blanks are format-neutral; do not penalize.
  }
  if (trimmed.rfind("- ", 0) == 0 || trimmed == "-") {
    return true;
  }
  // `key:` or `key: value`, where key has no spaces.
  size_t colon = trimmed.find(':');
  if (colon == std::string_view::npos || colon == 0) {
    return false;
  }
  std::string_view key = trimmed.substr(0, colon);
  if (key.find(' ') != std::string_view::npos) {
    return false;
  }
  return colon + 1 == trimmed.size() || trimmed[colon + 1] == ' ';
}

EmbeddedFile EmbedIndent(const std::vector<std::string_view>& lines, bool yaml) {
  EmbeddedFile out;
  out.format = yaml ? FormatCategory::kYaml : FormatCategory::kIndent;
  out.lines.reserve(lines.size());
  out.frames.reserve(lines.size());
  // Open blocks, innermost last: each line is a frame for the lines indented
  // under it.
  struct Open {
    int indent;
    int32_t frame;
  };
  std::vector<Open> stack;
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string_view raw = lines[i];
    std::string_view trimmed = Trim(raw);
    if (trimmed.empty()) {
      continue;
    }
    int indent = IndentWidth(raw);
    if (yaml) {
      // Fold `- ` list markers into the indentation so element fields nest under
      // the list's key line.
      while (trimmed.rfind("- ", 0) == 0) {
        indent += 2;
        trimmed = TrimLeft(trimmed.substr(2));
      }
      if (trimmed.empty() || trimmed[0] == '#') {
        continue;
      }
    }
    while (!stack.empty() && stack.back().indent >= indent) {
      stack.pop_back();
    }
    int32_t parent = stack.empty() ? kNoFrame : stack.back().frame;
    out.lines.push_back(ContextLine{trimmed, parent, static_cast<int>(i) + 1});
    stack.push_back(Open{indent, static_cast<int32_t>(out.frames.size())});
    out.frames.push_back(EmbedFrame{trimmed, parent});
  }
  return out;
}

EmbeddedFile EmbedFlat(const std::vector<std::string_view>& lines) {
  EmbeddedFile out;
  out.format = FormatCategory::kFlat;
  out.lines.reserve(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string_view trimmed = Trim(lines[i]);
    if (!trimmed.empty()) {
      out.lines.push_back(ContextLine{trimmed, kNoFrame, static_cast<int>(i) + 1});
    }
  }
  return out;
}

std::string ScalarText(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return v.AsBool() ? "true" : "false";
    case JsonValue::Kind::kNumber:
      return v.NumberSpelling();
    case JsonValue::Kind::kString:
      return v.AsString();
    default:
      return "";
  }
}

// Embeds `value`, found under `key`, inside `frame`. Every object with a
// non-empty key opens a frame; the synthetic root (empty key) does not.
void EmbedJsonValue(const JsonValue& value, const std::string& key, int32_t frame,
                    EmbeddedFile* out) {
  switch (value.kind()) {
    case JsonValue::Kind::kObject: {
      int32_t inner = frame;
      if (!key.empty()) {
        inner = static_cast<int32_t>(out->frames.size());
        out->frames.push_back(EmbedFrame{out->synthesized.emplace_back(key), frame});
      }
      for (const auto& [k, v] : value.members()) {
        EmbedJsonValue(v, k, inner, out);
      }
      break;
    }
    case JsonValue::Kind::kArray: {
      for (const JsonValue& item : value.items()) {
        EmbedJsonValue(item, key, frame, out);
      }
      break;
    }
    default: {
      const std::string& text = out->synthesized.emplace_back(
          key.empty() ? ScalarText(value) : key + " " + ScalarText(value));
      out->lines.push_back(
          ContextLine{text, frame, static_cast<int>(out->lines.size()) + 1});
    }
  }
}

EmbeddedFile EmbedJson(const JsonValue& doc) {
  EmbeddedFile out;
  out.format = FormatCategory::kJson;
  EmbedJsonValue(doc, "", kNoFrame, &out);
  return out;
}

bool LooksLikeJson(std::string_view text) {
  std::string_view trimmed = Trim(text);
  return !trimmed.empty() && (trimmed[0] == '{' || trimmed[0] == '[');
}

// The category of a text that is not JSON, from the shape of its lines.
FormatCategory ClassifyLines(const std::vector<std::string_view>& lines) {
  size_t non_blank = 0;
  size_t yamlish = 0;
  bool any_indent = false;
  for (std::string_view line : lines) {
    std::string_view t = Trim(line);
    if (t.empty()) {
      continue;
    }
    ++non_blank;
    if (LooksLikeYamlLine(t)) {
      ++yamlish;
    }
    if (IndentWidth(line) > 0) {
      any_indent = true;
    }
  }
  if (non_blank == 0) {
    return FormatCategory::kUnknown;
  }
  if (static_cast<double>(yamlish) / static_cast<double>(non_blank) >= 0.8) {
    return FormatCategory::kYaml;
  }
  return any_indent ? FormatCategory::kIndent : FormatCategory::kFlat;
}

EmbeddedFile EmbedLines(const std::vector<std::string_view>& lines, FormatCategory format) {
  switch (format) {
    case FormatCategory::kYaml:
      return EmbedIndent(lines, /*yaml=*/true);
    case FormatCategory::kIndent:
      return EmbedIndent(lines, /*yaml=*/false);
    default:
      return EmbedFlat(lines);
  }
}

}  // namespace

FormatCategory DetectFormat(std::string_view text) {
  if (LooksLikeJson(text) && JsonValue::Parse(text).has_value()) {
    return FormatCategory::kJson;
  }
  return ClassifyLines(SplitLineViews(text));
}

EmbeddedFile EmbedText(std::string_view text) {
  if (LooksLikeJson(text)) {
    if (auto doc = JsonValue::Parse(text)) {
      return EmbedJson(*doc);
    }
  }
  std::vector<std::string_view> lines = SplitLineViews(text);
  return EmbedLines(lines, ClassifyLines(lines));
}

EmbeddedFile EmbedTextAs(std::string_view text, FormatCategory format) {
  if (format == FormatCategory::kJson) {
    if (auto doc = JsonValue::Parse(text)) {
      return EmbedJson(*doc);
    }
    format = FormatCategory::kFlat;  // Fall back for unparsable input.
  }
  return EmbedLines(SplitLineViews(text), format);
}

}  // namespace concord
