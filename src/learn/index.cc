#include "src/learn/index.h"

namespace concord {

ConfigIndex BuildConfigIndex(const ParsedConfig* config,
                             const std::vector<ParsedLine>& metadata) {
  ConfigIndex index;
  index.config = config;
  index.own_line_count = config->lines.size();
  index.lines.reserve(config->lines.size() + metadata.size());
  for (const ParsedLine& line : config->lines) {
    index.lines.push_back(&line);
  }
  for (const ParsedLine& line : metadata) {
    index.lines.push_back(&line);
  }
  for (uint32_t i = 0; i < index.lines.size(); ++i) {
    const ParsedLine& line = *index.lines[i];
    index.by_pattern[line.pattern].push_back(i);
    if (line.const_pattern != kInvalidPattern) {
      index.by_pattern[line.const_pattern].push_back(i);
    }
  }
  return index;
}

std::vector<ConfigIndex> BuildIndexes(const Dataset& dataset, const Deadline* deadline) {
  std::vector<ConfigIndex> indexes;
  indexes.reserve(dataset.configs.size());
  for (const ParsedConfig& config : dataset.configs) {
    if (deadline != nullptr) {
      ThrowIfExpired(*deadline);
    }
    indexes.push_back(BuildConfigIndex(&config, dataset.metadata));
  }
  return indexes;
}

std::vector<uint32_t> CountConfigsPerPattern(const Dataset& dataset,
                                             const std::vector<ConfigIndex>& indexes) {
  std::vector<uint32_t> counts(dataset.patterns.size(), 0);
  for (const ConfigIndex& index : indexes) {
    for (const auto& [pattern, lines] : index.by_pattern) {
      ++counts[pattern];
    }
  }
  return counts;
}

}  // namespace concord
