#include "perfbench/compose.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/contracts/contract_io.h"
#include "src/learn/index.h"
#include "src/learn/relational.h"
#include "src/minimize/minimize.h"

namespace perfbench {

using namespace concord;

void ParseInto(Tracer& tracer, const Lexer& lexer, const std::vector<GeneratedConfig>& configs,
               const std::vector<GeneratedConfig>& metadata, ParseOptions parse_options,
               Dataset* dataset) {
  ConfigParser parser(&lexer, &dataset->patterns, parse_options);
  dataset->configs.reserve(configs.size());
  for (const GeneratedConfig& config : configs) {
    Tracer::Scope span(tracer, "pattern.parse");
    dataset->configs.push_back(parser.Parse(config.name, config.text));
  }
  for (const GeneratedConfig& meta : metadata) {
    Tracer::Scope span(tracer, "pattern.parse");
    for (ParsedLine& line : parser.ParseMetadata(meta.text)) {
      dataset->metadata.push_back(std::move(line));
    }
  }
}

std::vector<Contract> AggregateAll(Tracer& tracer,
                                   const std::vector<const ConfigSummary*>& summaries,
                                   const std::vector<uint32_t>& config_counts,
                                   const TypeCountsMap* metadata_types,
                                   const LearnOptions& options) {
  Tracer::Scope span(tracer, "learn.aggregate");
  std::vector<Contract> all;
  auto append = [&all](std::vector<Contract> contracts) {
    for (Contract& c : contracts) {
      all.push_back(std::move(c));
    }
  };
  if (options.learn_present) {
    append(AggregatePresent(config_counts, summaries.size(), options));
  }
  if (options.learn_ordering) {
    append(AggregateOrdering(summaries, config_counts, options));
  }
  if (options.learn_type) {
    append(AggregateType(summaries, metadata_types, options));
  }
  if (options.learn_sequence) {
    append(AggregateSequence(summaries, options));
  }
  if (options.learn_unique) {
    append(AggregateUnique(summaries, config_counts, options));
  }
  if (options.learn_relational) {
    append(AggregateRelational(summaries, config_counts, options, nullptr));
  }
  return all;
}

namespace {

// (kind, identity key) order: the learner's canonical contract order.
void SortByKindAndKey(std::vector<Contract>* contracts, const PatternTable& patterns) {
  std::vector<std::pair<std::string, size_t>> order;
  order.reserve(contracts->size());
  for (size_t i = 0; i < contracts->size(); ++i) {
    const Contract& c = (*contracts)[i];
    order.emplace_back(
        std::string(1, static_cast<char>('0' + static_cast<int>(c.kind))) + c.Key(patterns), i);
  }
  std::sort(order.begin(), order.end());
  std::vector<Contract> sorted;
  sorted.reserve(contracts->size());
  for (auto& [key, i] : order) {
    sorted.push_back(std::move((*contracts)[i]));
  }
  *contracts = std::move(sorted);
}

}  // namespace

ContractSet Finalize(Tracer& tracer, std::vector<Contract> all, const PatternTable& patterns,
                     const LearnOptions& options) {
  Tracer::Scope span(tracer, "minimize.minimize");
  SortByKindAndKey(&all, patterns);
  ContractSet set;
  set.contracts = options.minimize ? MinimizeContracts(std::move(all)).contracts : std::move(all);
  set.constants_mode = options.constants;
  SortByKindAndKey(&set.contracts, patterns);
  return set;
}

std::string LearnComposed(Tracer& tracer, const Dataset& dataset, const LearnOptions& options) {
  std::vector<ConfigIndex> indexes;
  std::vector<uint32_t> config_counts;
  {
    Tracer::Scope span(tracer, "learn.index");
    indexes = BuildIndexes(dataset, &options.deadline);
    config_counts = CountConfigsPerPattern(dataset, indexes);
  }
  const uint8_t categories = SummaryCategoriesFor(options);
  const uint8_t others = categories & static_cast<uint8_t>(~kSummaryRelational);
  std::vector<ConfigSummary> summaries(indexes.size());
  for (size_t ci = 0; ci < indexes.size(); ++ci) {
    bool ok = true;
    {
      Tracer::Scope span(tracer, "learn.summarize");
      ok = SummarizeConfig(dataset.patterns, indexes[ci], others, options.deadline,
                           &summaries[ci], &config_counts, options.support);
    }
    if ((categories & kSummaryRelational) != 0) {
      ConfigSummary relational;
      {
        Tracer::Scope span(tracer, "learn.summarize_relational");
        ok = SummarizeConfig(dataset.patterns, indexes[ci], kSummaryRelational,
                             options.deadline, &relational, &config_counts,
                             options.support) &&
             ok;
      }
      summaries[ci].relational = std::move(relational.relational);
      summaries[ci].categories |= kSummaryRelational;
    }
    if (!ok) {
      throw std::runtime_error("SummarizeConfig reported an expired deadline");
    }
  }
  std::vector<const ConfigSummary*> views;
  views.reserve(summaries.size());
  for (const ConfigSummary& summary : summaries) {
    views.push_back(&summary);
  }
  TypeCountsMap metadata_types;
  if (options.learn_type) {
    Tracer::Scope span(tracer, "learn.aggregate");
    metadata_types = SummarizeMetadataTypes(dataset.patterns, dataset.metadata);
  }
  ContractSet set =
      Finalize(tracer, AggregateAll(tracer, views, config_counts, &metadata_types, options),
               dataset.patterns, options);
  {
    // Freeing what mining built is part of the learn path's cost.
    Tracer::Scope span(tracer, "learn.release");
    views = {};
    summaries = {};
    indexes = {};
  }
  Tracer::Scope span(tracer, "contracts.serialize");
  return SerializeContracts(set, dataset.patterns);
}

}  // namespace perfbench
