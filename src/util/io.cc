#include "src/util/io.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/util/fault.h"

namespace concord {

std::string ReadFile(const std::string& path) {
  if (FaultPoint("read_file")) {
    throw std::runtime_error(FaultMessage("read_file") + ": " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open file for reading: " + path);
  }
  std::ostringstream out;
  out << in.rdbuf();
  if (in.bad()) {
    throw std::runtime_error("error while reading file: " + path);
  }
  return out.str();
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open file for writing: " + path);
  }
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  if (!out) {
    throw std::runtime_error("error while writing file: " + path);
  }
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string_view> views = SplitLineViews(text);
  return std::vector<std::string>(views.begin(), views.end());
}

std::vector<std::string_view> SplitLineViews(std::string_view text) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t pos = text.find('\n', start);
    size_t end = pos == std::string_view::npos ? text.size() : pos;
    size_t len = end - start;
    if (len > 0 && text[end - 1] == '\r') {
      --len;
    }
    lines.push_back(text.substr(start, len));
    if (pos == std::string_view::npos) {
      break;
    }
    start = pos + 1;
  }
  return lines;
}

}  // namespace concord
