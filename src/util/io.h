// Small file IO helpers.
#ifndef SRC_UTIL_IO_H_
#define SRC_UTIL_IO_H_

#include <string>
#include <string_view>
#include <vector>

namespace concord {

// Reads an entire file; throws std::runtime_error on failure.
std::string ReadFile(const std::string& path);

// Writes `contents` to `path`, creating parent directories as needed; throws on failure.
void WriteFile(const std::string& path, const std::string& contents);

// Splits text into lines, tolerating both \n and \r\n; no trailing empty line for
// newline-terminated input.
std::vector<std::string> SplitLines(const std::string& text);

// SplitLines without copies: the views point into `text`.
std::vector<std::string_view> SplitLineViews(std::string_view text);

}  // namespace concord

#endif  // SRC_UTIL_IO_H_
