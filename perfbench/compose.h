// The learn and check paths composed from each module's public calls, with a
// span around every call. Learner::Learn and the `concord check` command run
// the same calls in the same order; the workloads verify that the composition
// reproduces their bytes, so the per-layer rows describe the real path.
#ifndef PERFBENCH_COMPOSE_H_
#define PERFBENCH_COMPOSE_H_

#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/contracts/contract.h"
#include "src/datagen/corpus.h"
#include "src/learn/options.h"
#include "src/learn/summaries.h"
#include "src/pattern/lexer.h"
#include "src/pattern/parser.h"

namespace perfbench {

// Parses configs and metadata into `dataset` (pattern.parse spans).
void ParseInto(Tracer& tracer, const concord::Lexer& lexer,
               const std::vector<concord::GeneratedConfig>& configs,
               const std::vector<concord::GeneratedConfig>& metadata,
               concord::ParseOptions parse_options, concord::Dataset* dataset);

// Every Aggregate* call over the per-config summaries (learn.aggregate span).
std::vector<concord::Contract> AggregateAll(
    Tracer& tracer, const std::vector<const concord::ConfigSummary*>& summaries,
    const std::vector<uint32_t>& config_counts, const concord::TypeCountsMap* metadata_types,
    const concord::LearnOptions& options);

// Canonical sort, MinimizeContracts, re-sort (minimize.minimize span), as the
// learner's final stage does.
concord::ContractSet Finalize(Tracer& tracer, std::vector<concord::Contract> all,
                              const concord::PatternTable& patterns,
                              const concord::LearnOptions& options);

// Learner::Learn(dataset) from its parts: BuildIndexes, SummarizeConfig per
// config (the relational category in its own call), the aggregates and
// Finalize. Returns the serialized contract set.
std::string LearnComposed(Tracer& tracer, const concord::Dataset& dataset,
                          const concord::LearnOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMPOSE_H_
