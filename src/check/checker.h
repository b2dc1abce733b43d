// Contract checking (§3.8) and configuration coverage (§3.9).
//
// Checking evaluates every contract against every test configuration and reports
// violations localized to specific lines. Coverage asks the complementary question:
// which configuration lines are actually *tested* by the contract set? The paper's
// definition — a line is covered iff removing it would violate at least one contract —
// is applied analytically per category:
//
// Removal is interpreted in the *pattern-stream* model the learner operates on:
// deleting a line removes one element of the (pattern, values) sequence and leaves
// every other element's embedded pattern intact. (Physically deleting a block header
// from indented text would additionally re-parent its children — an editing artifact
// outside the contract model.)
//
//   present     the only line matching the pattern is covered;
//   ordering    the witness line (the required successor/predecessor) is covered;
//   sequence    interior elements of runs of length >= 4 are covered (removing an
//               endpoint, or the middle of a 3-run, leaves an equidistant run);
//   relational  a witness line is covered when it is the sole witness for some
//               forall-side line;
//   unique      removal can never violate uniqueness, so — matching the nonzero Unq
//               column of Table 5 — lines carrying a uniquely-constrained parameter
//               are counted as tested;
//   type        by definition contributes no coverage (§5.3).
#ifndef SRC_CHECK_CHECKER_H_
#define SRC_CHECK_CHECKER_H_

#include <array>
#include <string>
#include <vector>

#include "src/contracts/contract.h"
#include "src/learn/index.h"
#include "src/pattern/parser.h"
#include "src/util/cancellation.h"
#include "src/util/error_code.h"
#include "src/util/flat_map.h"

namespace concord {

struct Violation {
  size_t contract_index = 0;  // Into ContractSet::contracts.
  std::string config;
  int line_number = 0;  // 1-based; 0 for whole-file violations (missing pattern).
  std::string message;
};

// Coverage attribution categories (the columns of Table 5).
enum class CoverageKind : uint8_t {
  kPresent = 0,
  kOrdering,
  kUnique,
  kSequence,
  kRelEquality,
  kRelContains,
  kRelAffix,
};
inline constexpr size_t kNumCoverageKinds = 7;

std::string_view CoverageKindName(CoverageKind kind);

// Coverage category of a contract; nullopt for type contracts (never cover).
std::optional<CoverageKind> CoverageKindOf(const Contract& contract);

// Per-line coverage for one configuration (§3.9: Concord "reports the coverage of
// each line"). `kind_bits` bit i corresponds to CoverageKind i; 0 means untested.
struct ConfigCoverage {
  std::string config;
  std::vector<int> line_numbers;    // 1-based source line numbers, in order.
  std::vector<uint8_t> kind_bits;   // Parallel to line_numbers.
};

// An input file that could not be read or parsed. The run continues on the
// surviving configs (per-file fault isolation); reports carry these in a
// "degraded" section and the CLI signals the partial result with exit code 3.
struct SkippedFile {
  std::string file;
  std::string reason;
  // v1 error-envelope code: io_error for unreadable files, parse_failed for
  // files that read but did not parse.
  ErrorCode code = ErrorCode::kParseFailed;
};

struct CheckResult {
  std::vector<Violation> violations;

  // Files excluded from this run, with reasons. Filled by the load layer (CLI /
  // service), not by the checker itself.
  std::vector<SkippedFile> skipped;

  size_t configs_checked = 0;  // Configurations this result actually covers.

  // Violation-scan work accounting: contracts evaluated vs skipped by the
  // subsumption prune mask (CheckOptions::prune_mask). Not rendered into
  // reports — pruned and unpruned runs must stay byte-identical there.
  size_t contracts_evaluated = 0;
  size_t contracts_pruned = 0;
  size_t total_lines = 0;    // Config lines (metadata excluded).
  size_t covered_lines = 0;  // Union over all categories.
  std::array<size_t, kNumCoverageKinds> covered_by_kind{};
  std::vector<ConfigCoverage> per_config;  // Filled when coverage is measured.

  double CoveragePercent() const {
    return total_lines == 0 ? 0.0
                            : 100.0 * static_cast<double>(covered_lines) /
                                  static_cast<double>(total_lines);
  }
  double CoveragePercent(CoverageKind kind) const {
    return total_lines == 0 ? 0.0
                            : 100.0 * static_cast<double>(covered_by_kind[static_cast<size_t>(
                                          kind)]) /
                                  static_cast<double>(total_lines);
  }
};

class ThreadPool;

// Per-call knobs of a check run. A Checker is immutable after construction, so
// one instance can serve concurrent requests as long as each passes its own
// CheckOptions (the service caches a Checker per loaded contract set).
struct CheckOptions {
  // False skips the (more expensive) coverage pass.
  bool measure_coverage = true;

  // Hot loops poll the deadline; expiry raises DeadlineExceeded from the calling
  // thread (never from a shared pool's worker, so one request's expiry cannot
  // surface in another's Wait()).
  Deadline deadline;

  // Shards the contract-major scan across worker threads (1 = serial, 0 or
  // negative = hardware concurrency). When `pool` is given it is used instead
  // of spawning a fresh pool (the service reuses one pool across requests); it
  // must outlive the call.
  int parallelism = 1;
  ThreadPool* pool = nullptr;

  // Subsumption pruning (DESIGN.md §14): per-contract mask sized to the
  // contract set, nonzero = dominated (AnalysisResult::prunable). Dominated
  // contracts are skipped by the violation scan — sound because every
  // violation they could raise is accompanied by one from an unpruned
  // dominator. Honored only when measure_coverage is false: a skipped
  // contract's coverage marks are observable in the report, and pruning must
  // never change report bytes. Null or wrongly sized masks are ignored.
  const std::vector<uint8_t>* prune_mask = nullptr;
};

class Checker {
 public:
  // Both referents must outlive the checker and must not change while it exists:
  // the constructor compiles the contract set into a check plan (type rules
  // grouped by untyped pattern, contract-pattern slot table) reused by every
  // Check call. The table must be the one `dataset`'s patterns live in
  // (contracts loaded from a file must have been interned into it).
  // `parallelism`/`pool` become the defaults for the legacy overloads below;
  // options-taking calls pass their own.
  Checker(const ContractSet* set, const PatternTable* table, int parallelism = 1,
          ThreadPool* pool = nullptr);

  // Checks every contract and measures coverage.
  CheckResult Check(const Dataset& dataset, bool measure_coverage = true) const;

  // Same, over externally owned configurations (e.g. the service's parsed-config
  // cache). `metadata` is logically appended to every configuration (§3.7).
  CheckResult Check(const std::vector<const ParsedConfig*>& configs,
                    const std::vector<ParsedLine>& metadata,
                    bool measure_coverage = true) const;

  // Same, over pre-built per-config indexes — the artifact pipeline's Index
  // stage (ArtifactStore, or the service's index cache) — skipping the
  // index-building pass entirely. The indexes must outlive the call.
  CheckResult Check(const std::vector<const ConfigIndex*>& indexes,
                    bool measure_coverage = true) const;

  // The batch-first core (DESIGN.md §12): a contract-major scan that walks the
  // contract set once, evaluating each contract against all N configs from a
  // postings table built by a single pass over the batch's indexes, with scratch
  // carved from bump arenas. Every other Check overload is a thin wrapper.
  CheckResult Check(const std::vector<const ConfigIndex*>& indexes,
                    const CheckOptions& options) const;

  // One logically independent check within a batch (its own configs, deadline,
  // and knobs) — e.g. one sub-request of a `check_batch` serve call.
  struct BatchItem {
    std::vector<const ConfigIndex*> indexes;
    CheckOptions options;
  };

  // Outcome of one BatchItem. Faults are isolated per item: one expired
  // deadline or internal error yields a failed slot, never a failed batch.
  struct BatchOutcome {
    bool ok = false;
    ErrorCode code = ErrorCode::kInternal;
    std::string message;  // Empty when ok.
    CheckResult result;   // Meaningful when ok.
  };

  // Runs every item and returns outcomes in item order. Items run sequentially
  // on the calling thread while each item's scan uses its own parallelism
  // options — nesting pool waves inside pool workers would deadlock a small
  // pool, and per-item results must not reorder.
  std::vector<BatchOutcome> CheckBatch(const std::vector<BatchItem>& items) const;

 private:
  // One type contract's rule, grouped by untyped pattern for a single pass over
  // lines (hoisted to the constructor: it depends only on the contract set).
  struct TypeRule {
    uint16_t param;
    ValueType invalid;
    size_t contract_index;
  };

  static constexpr uint32_t kNoSlot = static_cast<uint32_t>(-1);

  const ContractSet* set_;
  const PatternTable* table_;
  int parallelism_;
  ThreadPool* pool_;

  // ---- Check plan, compiled once from the contract set. ----
  FlatMap<std::string, std::vector<TypeRule>> type_rules_;
  // Dense per-PatternId view of type_rules_ for every pattern interned at plan
  // time (ids are dense), so the per-line pass indexes an array instead of
  // hashing the untyped pattern string. Ids interned after construction (the
  // table keeps growing under the service's parse cache) fall back to the
  // string probe. Pointers stay valid: type_rules_ is frozen after the ctor.
  std::vector<const std::vector<TypeRule>*> type_rules_by_id_;
  // Slot per distinct contract forall-pattern; the batch postings table is
  // indexed by slot, so the contract scan probes no hash table at all.
  FlatMap<PatternId, uint32_t> pattern_slots_;
  std::vector<uint32_t> contract_slot_;  // Per contract; kNoSlot for type rules.
  uint32_t num_slots_ = 0;
  std::vector<size_t> unique_contracts_;  // Contract indexes, ascending.
};

}  // namespace concord

#endif  // SRC_CHECK_CHECKER_H_
