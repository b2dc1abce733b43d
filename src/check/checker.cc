#include "src/check/checker.h"

#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/util/arena.h"
#include "src/util/fault.h"
#include "src/util/thread_pool.h"
#include "src/util/trace.h"

namespace concord {

std::string_view CoverageKindName(CoverageKind kind) {
  switch (kind) {
    case CoverageKind::kPresent:
      return "present";
    case CoverageKind::kOrdering:
      return "ordering";
    case CoverageKind::kUnique:
      return "unique";
    case CoverageKind::kSequence:
      return "sequence";
    case CoverageKind::kRelEquality:
      return "rel-equality";
    case CoverageKind::kRelContains:
      return "rel-contains";
    case CoverageKind::kRelAffix:
      return "rel-affix";
  }
  return "present";
}

std::optional<CoverageKind> CoverageKindOf(const Contract& contract) {
  switch (contract.kind) {
    case ContractKind::kPresent:
      return CoverageKind::kPresent;
    case ContractKind::kOrdering:
      return CoverageKind::kOrdering;
    case ContractKind::kUnique:
      return CoverageKind::kUnique;
    case ContractKind::kSequence:
      return CoverageKind::kSequence;
    case ContractKind::kType:
      return std::nullopt;
    case ContractKind::kRelational:
      switch (contract.relation) {
        case RelationKind::kEquals:
          return CoverageKind::kRelEquality;
        case RelationKind::kContains:
          return CoverageKind::kRelContains;
        case RelationKind::kStartsWith:
        case RelationKind::kPrefixOf:
        case RelationKind::kEndsWith:
        case RelationKind::kSuffixOf:
          return CoverageKind::kRelAffix;
      }
      return CoverageKind::kRelAffix;
  }
  return std::nullopt;
}

namespace {

// Per-config coverage bitmask: one byte per line, bit i = CoverageKind i.
// Atomic because parallel contract ranges can mark the same config; OR is
// commutative, so marking order never shows in the result. Null when coverage
// is off. Storage comes from the request arena.
using CoverFlags = std::atomic<uint8_t>*;

void MarkCovered(CoverFlags flags, const ConfigIndex& index, uint32_t line,
                 CoverageKind kind) {
  if (line < index.own_line_count) {
    flags[line].fetch_or(static_cast<uint8_t>(1u << static_cast<uint8_t>(kind)),
                         std::memory_order_relaxed);
  }
}

// One config's occurrence list for one contract-pattern slot of the batch
// postings table (DESIGN.md §12): built by a single scan over every config's
// index, so the contract-major loop below probes no hash table at all.
struct Posting {
  uint32_t ordinal;                   // Config position in the batch.
  const std::vector<uint32_t>* occ;   // That config's occurrence list.
};

// The contract-major scan walks the batch in config tiles of this many configs:
// pure contract-major order re-touches every config's parsed lines once per
// contract, which falls off the cache cliff for large batches. Per-contract
// cursors into the (ordinal-sorted) postings keep the output order identical.
constexpr size_t kTileConfigs = 32;

// Does the relation hold between the forall-side line l1 and exists-side line l2 of
// `contract`? Keys are the transformed canonical strings; containment evaluates on the
// actual typed values.
bool RelationHolds(const Contract& contract, const std::string& key1, const Value& value1,
                   const std::string& key2, const Value& value2) {
  switch (contract.relation) {
    case RelationKind::kEquals:
      return key1 == key2;
    case RelationKind::kContains: {
      // value2 (a prefix) must contain value1 (an address or narrower prefix).
      if (value2.type() == ValueType::kPfx4) {
        if (value1.type() == ValueType::kIp4) {
          return value2.AsPfx4().Contains(value1.AsIp4());
        }
        if (value1.type() == ValueType::kPfx4) {
          return value2.AsPfx4().Contains(value1.AsPfx4());
        }
        return false;
      }
      if (value2.type() == ValueType::kPfx6) {
        if (value1.type() == ValueType::kIp6) {
          return value2.AsPfx6().Contains(value1.AsIp6());
        }
        if (value1.type() == ValueType::kPfx6) {
          return value2.AsPfx6().Contains(value1.AsPfx6());
        }
        return false;
      }
      return false;
    }
    case RelationKind::kStartsWith:
      return key1.size() > key2.size() && key1.compare(0, key2.size(), key2) == 0;
    case RelationKind::kPrefixOf:
      return key2.size() > key1.size() && key2.compare(0, key1.size(), key1) == 0;
    case RelationKind::kEndsWith:
      return key1.size() > key2.size() &&
             key1.compare(key1.size() - key2.size(), key2.size(), key2) == 0;
    case RelationKind::kSuffixOf:
      return key2.size() > key1.size() &&
             key2.compare(key2.size() - key1.size(), key1.size(), key1) == 0;
  }
  return false;
}

struct ValueFlatHash {
  uint64_t operator()(const Value& v) const {
    return static_cast<uint64_t>(ValueHash{}(v));
  }
};

}  // namespace

Checker::Checker(const ContractSet* set, const PatternTable* table, int parallelism,
                 ThreadPool* pool)
    : set_(set), table_(table), parallelism_(parallelism), pool_(pool) {
  // Compile the check plan: everything here depends only on the contract set,
  // so repeated checks against a resident set skip the rebuild entirely.
  contract_slot_.reserve(set_->contracts.size());
  for (size_t k = 0; k < set_->contracts.size(); ++k) {
    const Contract& c = set_->contracts[k];
    if (c.kind == ContractKind::kType) {
      type_rules_[c.untyped_pattern].push_back(TypeRule{c.param, c.invalid_type, k});
      contract_slot_.push_back(kNoSlot);
      continue;
    }
    auto [slot, inserted] = pattern_slots_.TryEmplace(c.pattern, num_slots_);
    if (inserted) {
      ++num_slots_;
    }
    contract_slot_.push_back(*slot);
    if (c.kind == ContractKind::kUnique) {
      unique_contracts_.push_back(k);
    }
  }
  // Dense type-rule view, filled only after type_rules_ is frozen (rehashing
  // would invalidate the pointers).
  if (!type_rules_.empty()) {
    type_rules_by_id_.resize(table_->size(), nullptr);
    for (PatternId id = 0; id < type_rules_by_id_.size(); ++id) {
      auto it = type_rules_.find(table_->Get(id).untyped);
      if (it != type_rules_.end()) {
        type_rules_by_id_[id] = &it->second;
      }
    }
  }
}

CheckResult Checker::Check(const Dataset& dataset, bool measure_coverage) const {
  std::vector<const ParsedConfig*> configs;
  configs.reserve(dataset.configs.size());
  for (const ParsedConfig& config : dataset.configs) {
    configs.push_back(&config);
  }
  return Check(configs, dataset.metadata, measure_coverage);
}

CheckResult Checker::Check(const std::vector<const ParsedConfig*>& configs,
                           const std::vector<ParsedLine>& metadata,
                           bool measure_coverage) const {
  std::vector<ConfigIndex> owned;
  {
    TraceSpan span("check", "index");
    owned = BuildIndexes(configs, metadata, nullptr);
  }
  std::vector<const ConfigIndex*> indexes;
  indexes.reserve(owned.size());
  for (const ConfigIndex& index : owned) {
    indexes.push_back(&index);
  }
  return Check(indexes, measure_coverage);
}

CheckResult Checker::Check(const std::vector<const ConfigIndex*>& indexes,
                           bool measure_coverage) const {
  CheckOptions options;
  options.measure_coverage = measure_coverage;
  options.parallelism = parallelism_;
  options.pool = pool_;
  return Check(indexes, options);
}

CheckResult Checker::Check(const std::vector<const ConfigIndex*>& indexes,
                           const CheckOptions& options) const {
  if (FaultPoint("check")) {
    throw std::runtime_error(FaultMessage("check"));
  }
  const Deadline& deadline = options.deadline;
  const bool measure_coverage = options.measure_coverage;
  ThrowIfExpired(deadline);
  TraceSpan total_span("check", "total");
  // Per-contract-kind attribution. Contracts are canonically sorted by kind, so
  // timing only at kind boundaries keeps this to a handful of clock reads per
  // contract range; with tracing off there are none at all.
  TraceCollector& tracer = TraceCollector::Global();
  const bool trace_on = tracer.mode() != 0;
  constexpr size_t kNumKinds = 6;
  std::array<std::atomic<uint64_t>, kNumKinds> kind_micros{};

  const size_t n = indexes.size();
  const size_t num_contracts = set_->contracts.size();
  CheckResult result;
  result.configs_checked = n;

  // Subsumption pruning (see CheckOptions::prune_mask): active only when
  // coverage is off — a pruned contract's coverage marks would be observable.
  const std::vector<uint8_t>* prune = options.prune_mask;
  if (prune != nullptr && (measure_coverage || prune->size() != num_contracts)) {
    prune = nullptr;
  }
  auto pruned = [prune](size_t k) { return prune != nullptr && (*prune)[k] != 0; };
  if (prune != nullptr) {
    for (uint8_t p : *prune) {
      result.contracts_pruned += p != 0 ? 1 : 0;
    }
  }
  result.contracts_evaluated = num_contracts - result.contracts_pruned;

  // Request scratch: coverage bitmaps and the postings table live exactly as
  // long as this call, so they come from one bump arena instead of the heap.
  Arena arena;
  std::vector<CoverFlags> cover(n, nullptr);
  for (size_t ci = 0; ci < n; ++ci) {
    result.total_lines += indexes[ci]->own_line_count;
    if (measure_coverage) {
      size_t lines = indexes[ci]->lines.size();
      CoverFlags flags = arena.AllocateArray<std::atomic<uint8_t>>(lines);
      for (size_t li = 0; li < lines; ++li) {
        new (&flags[li]) std::atomic<uint8_t>(0);
      }
      cover[ci] = flags;
    }
  }

  // ---- Batch postings: one scan over every config's index. ----
  // postings[slot] lists, in batch order, each config that contains the slot's
  // pattern. The contract-major loop below reads these lists instead of probing
  // N hash maps per contract — the amortization that makes batches fast.
  std::vector<ArenaVector<Posting>> postings;
  postings.reserve(num_slots_);
  for (uint32_t s = 0; s < num_slots_; ++s) {
    postings.emplace_back(ArenaAllocator<Posting>(&arena));
  }
  for (size_t ci = 0; ci < n; ++ci) {
    if ((ci & 63u) == 63u) {
      ThrowIfExpired(deadline);
    }
    for (const auto& [pattern, occurrences] : indexes[ci]->by_pattern) {
      auto it = pattern_slots_.find(pattern);
      if (it != pattern_slots_.end()) {
        postings[it->second].push_back(
            Posting{static_cast<uint32_t>(ci), &occurrences});
      }
    }
  }

  // Deadline expiry inside parallel sections is recorded in a flag and re-raised
  // from the calling thread afterwards: pool tasks must not throw, because the
  // service shares one pool across concurrent requests and a pool-delivered
  // exception could surface in the wrong request's Wait().
  std::atomic<bool> deadline_hit{false};

  // ---- Type contracts: one pass over each config's lines (config-major; the
  // per-line rule lookup is independent of other configs). ----
  std::vector<std::vector<Violation>> type_violations(n);
  auto check_types = [&](size_t ci) {
    if (deadline_hit.load(std::memory_order_relaxed)) {
      return;
    }
    if (deadline.expired()) {
      deadline_hit.store(true, std::memory_order_relaxed);
      return;
    }
    const ConfigIndex& index = *indexes[ci];
    uint64_t start = trace_on ? tracer.NowMicros() : 0;
    for (uint32_t li = 0; li < index.lines.size(); ++li) {
      const ParsedLine& line = *index.lines[li];
      const std::vector<TypeRule>* rules;
      if (line.pattern < type_rules_by_id_.size()) {
        rules = type_rules_by_id_[line.pattern];
      } else {
        auto it = type_rules_.find(table_->Get(line.pattern).untyped);
        rules = it == type_rules_.end() ? nullptr : &it->second;
      }
      if (rules == nullptr) {
        continue;
      }
      const PatternInfo& info = table_->Get(line.pattern);
      for (const TypeRule& rule : *rules) {
        if (pruned(rule.contract_index)) {
          continue;
        }
        if (rule.param < info.param_types.size() &&
            info.param_types[rule.param] == rule.invalid) {
          type_violations[ci].push_back(Violation{
              rule.contract_index, index.config->name, line.line_number,
              "mistyped value: parameter " + PatternTable::ParamName(rule.param) +
                  " has disallowed type [" + std::string(ValueTypeName(rule.invalid)) +
                  "] in pattern " + info.untyped});
        }
      }
    }
    if (trace_on) {
      kind_micros[static_cast<size_t>(ContractKind::kType)].fetch_add(
          tracer.NowMicros() - start, std::memory_order_relaxed);
    }
  };

  // ---- Contract-major scan: contracts partitioned into contiguous ranges,
  // each range evaluated against the whole batch via the postings table. ----
  const bool parallel = options.parallelism != 1;
  size_t worker_count = 1;
  if (parallel) {
    if (options.pool != nullptr) {
      worker_count = options.pool->num_threads();
    } else if (options.parallelism <= 0) {
      worker_count = std::thread::hardware_concurrency();
    } else {
      worker_count = static_cast<size_t>(options.parallelism);
    }
    if (worker_count == 0) {
      worker_count = 1;
    }
  }
  std::vector<std::pair<size_t, size_t>> ranges;  // [begin, end) contract index.
  if (num_contracts > 0) {
    size_t want = parallel ? worker_count * 4 : 1;
    if (want > num_contracts) {
      want = num_contracts;
    }
    size_t chunk = (num_contracts + want - 1) / want;
    for (size_t begin = 0; begin < num_contracts; begin += chunk) {
      size_t end = begin + chunk < num_contracts ? begin + chunk : num_contracts;
      ranges.emplace_back(begin, end);
    }
  }

  std::vector<std::vector<std::vector<Violation>>> range_violations(ranges.size());
  auto check_range = [&](size_t r) {
    if (deadline_hit.load(std::memory_order_relaxed)) {
      return;
    }
    const auto [range_begin, range_end] = ranges[r];
    std::vector<std::vector<Violation>>& bucket = range_violations[r];
    bucket.resize(n);
    // Per-task arena for witness scratch; tasks never share arenas, so the
    // bump pointer needs no synchronization.
    Arena task_arena;
    struct Witness {
      std::string key;
      const Value* value;
      uint32_t line;
    };
    ArenaVector<Witness> witnesses{ArenaAllocator<Witness>(&task_arena)};
    witnesses.reserve(64);
    // Equality fast path: key -> (match count, line of the sole witness).
    // Reused across (contract, config) pairs; Clear() keeps the capacity.
    FlatMap<std::string, std::pair<uint32_t, uint32_t>> eq_witnesses;

    auto violate = [&](size_t ci, size_t contract_index, int line_number,
                       std::string message) {
      bucket[ci].push_back(Violation{contract_index, indexes[ci]->config->name,
                                     line_number, std::move(message)});
    };

    // Per-contract cursor into its (ordinal-sorted) postings list; each tile
    // consumes the postings whose ordinal falls inside it, in order.
    ArenaVector<size_t> cursor{ArenaAllocator<size_t>(&task_arena)};
    cursor.resize(range_end - range_begin, 0);

    int timed_kind = -1;
    uint64_t mark = trace_on ? tracer.NowMicros() : 0;
    for (size_t tile_begin = 0; tile_begin < n; tile_begin += kTileConfigs) {
    const size_t tile_end =
        tile_begin + kTileConfigs < n ? tile_begin + kTileConfigs : n;
    for (size_t k = range_begin; k < range_end; ++k) {
      // One contract now covers a whole tile, so poll the deadline at contract
      // granularity (every 16 is comparable to the old per-config cadence of
      // 256 contracts).
      if (((k - range_begin) & 15u) == 15u && deadline.expired()) {
        deadline_hit.store(true, std::memory_order_relaxed);
        return;
      }
      const Contract& c = set_->contracts[k];
      if (pruned(k)) {
        continue;
      }
      if (trace_on && static_cast<int>(c.kind) != timed_kind) {
        uint64_t now = tracer.NowMicros();
        if (timed_kind >= 0) {
          kind_micros[static_cast<size_t>(timed_kind)].fetch_add(
              now - mark, std::memory_order_relaxed);
        }
        mark = now;
        timed_kind = static_cast<int>(c.kind);
      }
      switch (c.kind) {
        case ContractKind::kType:
          break;  // Handled in the line pass above.

        case ContractKind::kUnique:
          break;  // Handled globally below.

        case ContractKind::kPresent: {
          const ArenaVector<Posting>& ps = postings[contract_slot_[k]];
          size_t& pi = cursor[k - range_begin];
          if (ps.size() == n) {
            // Every config has the pattern: coverage-only walk, no message.
            if (measure_coverage) {
              for (; pi < ps.size() && ps[pi].ordinal < tile_end; ++pi) {
                const Posting& p = ps[pi];
                if (p.occ->size() == 1) {
                  MarkCovered(cover[p.ordinal], *indexes[p.ordinal], (*p.occ)[0],
                              CoverageKind::kPresent);
                }
              }
            }
            break;
          }
          // Complement walk: postings are in batch order, so one merge pass
          // finds the configs where the pattern is absent (the violators).
          std::string missing =
              "missing line matching pattern " + table_->Get(c.pattern).text;
          for (size_t ci = tile_begin; ci < tile_end; ++ci) {
            if (pi < ps.size() && ps[pi].ordinal == ci) {
              const std::vector<uint32_t>& occ = *ps[pi].occ;
              ++pi;
              if (measure_coverage && occ.size() == 1) {
                MarkCovered(cover[ci], *indexes[ci], occ[0], CoverageKind::kPresent);
              }
            } else {
              violate(ci, k, 0, missing);
            }
          }
          break;
        }

        case ContractKind::kOrdering: {
          const ArenaVector<Posting>& ps = postings[contract_slot_[k]];
          if (ps.empty()) {
            break;  // Vacuous everywhere.
          }
          const bool stream_constant = table_->Get(c.pattern).is_constant;
          // The message is identical for every violating line of every config;
          // built at most once per contract and tile.
          std::string message;
          size_t& pi = cursor[k - range_begin];
          for (; pi < ps.size() && ps[pi].ordinal < tile_end; ++pi) {
            const Posting& p = ps[pi];
            const size_t ci = p.ordinal;
            const ConfigIndex& index = *indexes[ci];
            for (uint32_t i : *p.occ) {
              if (i >= index.own_line_count) {
                continue;  // Metadata has no meaningful adjacency.
              }
              uint32_t j;
              bool in_range;
              if (c.successor) {
                j = i + 1;
                in_range = j < index.own_line_count;
              } else {
                in_range = i > 0;
                j = in_range ? i - 1 : 0;
              }
              PatternId neighbor = kInvalidPattern;
              if (in_range) {
                neighbor = stream_constant ? index.lines[j]->const_pattern
                                           : index.lines[j]->pattern;
              }
              if (neighbor != c.pattern2) {
                if (message.empty()) {
                  message = std::string("line is not immediately ") +
                            (c.successor ? "followed" : "preceded") +
                            " by a line matching " + table_->Get(c.pattern2).text;
                }
                violate(ci, k, index.lines[i]->line_number, message);
              } else if (measure_coverage) {
                // Strict removal semantics: removing the witness j only violates the
                // contract if the line sliding into its place does NOT also match p2.
                PatternId replacement = kInvalidPattern;
                if (c.successor) {
                  if (j + 1 < index.own_line_count) {
                    replacement = stream_constant ? index.lines[j + 1]->const_pattern
                                                  : index.lines[j + 1]->pattern;
                  }
                } else if (j > 0) {
                  replacement = stream_constant ? index.lines[j - 1]->const_pattern
                                                : index.lines[j - 1]->pattern;
                }
                if (replacement != c.pattern2) {
                  MarkCovered(cover[ci], index, j, CoverageKind::kOrdering);
                }
              }
            }
          }
          break;
        }

        case ContractKind::kSequence: {
          const ArenaVector<Posting>& ps = postings[contract_slot_[k]];
          size_t& pi = cursor[k - range_begin];
          for (; pi < ps.size() && ps[pi].ordinal < tile_end; ++pi) {
            const Posting& p = ps[pi];
            const size_t ci = p.ordinal;
            const ConfigIndex& index = *indexes[ci];
            const std::vector<uint32_t>& occ = *p.occ;
            if (occ.size() < 2) {
              continue;
            }
            bool holds = true;
            bool have_step = false;
            BigInt step;
            int direction = 0;
            for (size_t m = 1; m < occ.size(); ++m) {
              const BigInt& prev = index.lines[occ[m - 1]]->values[c.param].AsBigInt();
              const BigInt& cur = index.lines[occ[m]]->values[c.param].AsBigInt();
              int dir = cur.Compare(prev);
              BigInt diff = cur.AbsDiff(prev);
              bool ok = dir != 0 && (!have_step || (diff == step && dir == direction));
              if (!ok) {
                holds = false;
                violate(ci, k, index.lines[occ[m]]->line_number,
                        "breaks the equidistant sequence of parameter " +
                            PatternTable::ParamName(c.param) + " (value " +
                            cur.ToDecimal() + ")");
                break;
              }
              if (!have_step) {
                step = diff;
                direction = dir;
                have_step = true;
              }
            }
            if (holds && measure_coverage && occ.size() >= 4) {
              for (size_t m = 1; m + 1 < occ.size(); ++m) {
                MarkCovered(cover[ci], index, occ[m], CoverageKind::kSequence);
              }
            }
          }
          break;
        }

        case ContractKind::kRelational: {
          const ArenaVector<Posting>& ps = postings[contract_slot_[k]];
          if (ps.empty()) {
            break;  // Vacuous everywhere.
          }
          // Shared message prefix (the value is per-violation), built at most
          // once per contract.
          std::string prefix;
          // Equality holds iff the transformed canonical keys match, so the
          // witness list collapses into a hash table probed per forall line:
          // O(occ1 + occ2) per config instead of the linear witness scan's
          // O(occ1 * occ2). Order-sensitive output (violations per occurrence,
          // sole-witness coverage) is unchanged: the table records the match
          // count and the sole witness line, which is all the scan ever used.
          size_t& pi = cursor[k - range_begin];
          if (c.relation == RelationKind::kEquals) {
            for (; pi < ps.size() && ps[pi].ordinal < tile_end; ++pi) {
              const Posting& p = ps[pi];
              const size_t ci = p.ordinal;
              const ConfigIndex& index = *indexes[ci];
              eq_witnesses.clear();
              auto it2 = index.by_pattern.find(c.pattern2);
              if (it2 != index.by_pattern.end()) {
                for (uint32_t j : it2->second) {
                  const ParsedLine& l2 = *index.lines[j];
                  if (c.param2 >= l2.values.size()) {
                    continue;
                  }
                  auto key2 = c.transform2.Apply(l2.values[c.param2]);
                  if (key2) {
                    auto [slot, inserted] = eq_witnesses.TryEmplace(
                        std::move(*key2), std::make_pair(uint32_t{1}, j));
                    if (!inserted) {
                      ++slot->first;
                    }
                  }
                }
              }
              for (uint32_t i : *p.occ) {
                const ParsedLine& l1 = *index.lines[i];
                if (c.param >= l1.values.size()) {
                  continue;
                }
                auto key1 = c.transform1.Apply(l1.values[c.param]);
                if (!key1) {
                  continue;
                }
                auto hit = eq_witnesses.find(*key1);
                if (hit == eq_witnesses.end()) {
                  if (prefix.empty()) {
                    prefix = "no line matching " + table_->Get(c.pattern2).text +
                             " satisfies " +
                             std::string(RelationKindName(c.relation)) +
                             " with value ";
                  }
                  violate(ci, k, l1.line_number,
                          prefix + l1.values[c.param].ToString());
                } else if (hit->second.first == 1 && measure_coverage &&
                           hit->second.second != i) {
                  // An intra-line witness disappears together with the forall
                  // line (vacuous), so it cannot count as coverage.
                  auto kind = CoverageKindOf(c);
                  if (kind) {
                    MarkCovered(cover[ci], index, hit->second.second, *kind);
                  }
                }
              }
            }
            break;
          }
          for (; pi < ps.size() && ps[pi].ordinal < tile_end; ++pi) {
            const Posting& p = ps[pi];
            const size_t ci = p.ordinal;
            const ConfigIndex& index = *indexes[ci];
            // Witness key/value list for the exists side, computed once per config.
            witnesses.clear();
            auto it2 = index.by_pattern.find(c.pattern2);
            if (it2 != index.by_pattern.end()) {
              for (uint32_t j : it2->second) {
                const ParsedLine& l2 = *index.lines[j];
                if (c.param2 >= l2.values.size()) {
                  continue;
                }
                auto key2 = c.transform2.Apply(l2.values[c.param2]);
                if (key2) {
                  witnesses.push_back(Witness{std::move(*key2), &l2.values[c.param2], j});
                }
              }
            }
            for (uint32_t i : *p.occ) {
              const ParsedLine& l1 = *index.lines[i];
              if (c.param >= l1.values.size()) {
                continue;
              }
              auto key1 = c.transform1.Apply(l1.values[c.param]);
              if (!key1) {
                continue;
              }
              uint32_t sole_witness = 0;
              int found = 0;
              for (const Witness& w : witnesses) {
                if (w.line != i &&
                    RelationHolds(c, *key1, l1.values[c.param], w.key, *w.value)) {
                  ++found;
                  sole_witness = w.line;
                  if (found > 1 && !measure_coverage) {
                    break;
                  }
                } else if (w.line == i &&
                           RelationHolds(c, *key1, l1.values[c.param], w.key, *w.value)) {
                  // Intra-line witness (different parameter of the same line).
                  ++found;
                  sole_witness = w.line;
                }
              }
              if (found == 0) {
                if (prefix.empty()) {
                  prefix = "no line matching " + table_->Get(c.pattern2).text +
                           " satisfies " + std::string(RelationKindName(c.relation)) +
                           " with value ";
                }
                violate(ci, k, l1.line_number, prefix + l1.values[c.param].ToString());
              } else if (found == 1 && measure_coverage && sole_witness != i) {
                // An intra-line witness disappears together with the forall line
                // (vacuous), so it cannot count as coverage.
                auto kind = CoverageKindOf(c);
                if (kind) {
                  MarkCovered(cover[ci], index, sole_witness, *kind);
                }
              }
            }
          }
          break;
        }
      }
    }
    }  // Tile loop.
    if (trace_on && timed_kind >= 0) {
      kind_micros[static_cast<size_t>(timed_kind)].fetch_add(
          tracer.NowMicros() - mark, std::memory_order_relaxed);
    }
  };

  // Dispatch: the two waves (config-major type pass, contract-major ranges)
  // share one pool. CheckBatch stays serial-outer precisely so these inner
  // waves never nest inside a pool worker.
  const bool parallel_types = parallel && !type_rules_.empty() && n > 1;
  const bool parallel_ranges = parallel && ranges.size() > 1;
  ThreadPool* pool = options.pool;
  std::unique_ptr<ThreadPool> owned_pool;
  if ((parallel_types || parallel_ranges) && pool == nullptr) {
    owned_pool = std::make_unique<ThreadPool>(
        options.parallelism < 0 ? 0 : static_cast<size_t>(options.parallelism));
    pool = owned_pool.get();
  }
  if (!type_rules_.empty()) {
    if (parallel_types) {
      pool->ParallelFor(n, check_types);
    } else {
      for (size_t ci = 0; ci < n; ++ci) {
        check_types(ci);
      }
    }
  }
  if (parallel_ranges) {
    pool->ParallelFor(ranges.size(), check_range);
  } else {
    for (size_t r = 0; r < ranges.size(); ++r) {
      check_range(r);
    }
  }
  if (deadline_hit.load(std::memory_order_relaxed)) {
    throw DeadlineExceeded();
  }

  // Merge in the exact order the config-major scan used to emit: per config,
  // type violations first, then the contract ranges ascending (each bucket is
  // already in ascending contract order). Byte-identity with sequential
  // checking depends on this.
  for (size_t ci = 0; ci < n; ++ci) {
    for (Violation& v : type_violations[ci]) {
      result.violations.push_back(std::move(v));
    }
    for (auto& bucket : range_violations) {
      if (ci < bucket.size()) {
        for (Violation& v : bucket[ci]) {
          result.violations.push_back(std::move(v));
        }
      }
    }
  }

  // ---- Unique contracts: global pass (cross-config by definition), walking
  // the same postings lists in batch order. ----
  uint64_t unique_start = trace_on ? tracer.NowMicros() : 0;
  for (size_t contract_index : unique_contracts_) {
    if (pruned(contract_index)) {
      continue;
    }
    const Contract& c = set_->contracts[contract_index];
    FlatMap<Value, std::pair<size_t, int>, ValueFlatHash> first;  // config, line no.
    for (const Posting& p : postings[contract_slot_[contract_index]]) {
      const size_t ci = p.ordinal;
      const ConfigIndex& index = *indexes[ci];
      for (uint32_t i : *p.occ) {
        if (i >= index.own_line_count) {
          continue;  // Metadata is shared text; skip.
        }
        const ParsedLine& line = *index.lines[i];
        if (c.param >= line.values.size()) {
          continue;
        }
        auto [pos, inserted] =
            first.TryEmplace(line.values[c.param], std::make_pair(ci, line.line_number));
        if (!inserted && pos->first != ci) {
          result.violations.push_back(Violation{
              contract_index, index.config->name, line.line_number,
              "value " + line.values[c.param].ToString() + " reuses a unique parameter (first seen in " +
                  indexes[pos->first]->config->name + ":" +
                  std::to_string(pos->second) + ")"});
        } else if (!inserted) {
          result.violations.push_back(
              Violation{contract_index, index.config->name, line.line_number,
                        "value " + line.values[c.param].ToString() +
                            " duplicated within the configuration (line " +
                            std::to_string(pos->second) + ")"});
        }
        if (measure_coverage) {
          MarkCovered(cover[ci], index, i, CoverageKind::kUnique);
        }
      }
    }
  }
  if (trace_on) {
    kind_micros[static_cast<size_t>(ContractKind::kUnique)].fetch_add(
        tracer.NowMicros() - unique_start, std::memory_order_relaxed);
    for (size_t kind = 0; kind < kNumKinds; ++kind) {
      uint64_t micros = kind_micros[kind].load(std::memory_order_relaxed);
      if (micros > 0) {
        tracer.AddStageTime("check",
                            ContractKindName(static_cast<ContractKind>(kind)),
                            micros);
      }
    }
  }

  // ---- Fold coverage. ----
  if (measure_coverage) {
    result.per_config.reserve(n);
    for (size_t ci = 0; ci < n; ++ci) {
      const ConfigIndex& index = *indexes[ci];
      ConfigCoverage per;
      per.config = index.config->name;
      per.line_numbers.reserve(index.own_line_count);
      per.kind_bits.reserve(index.own_line_count);
      for (uint32_t li = 0; li < index.own_line_count; ++li) {
        uint8_t bits = cover[ci][li].load(std::memory_order_relaxed);
        per.line_numbers.push_back(index.lines[li]->line_number);
        per.kind_bits.push_back(bits);
        if (bits != 0) {
          ++result.covered_lines;
        }
        for (size_t kind = 0; kind < kNumCoverageKinds; ++kind) {
          if (bits & (1u << kind)) {
            ++result.covered_by_kind[kind];
          }
        }
      }
      result.per_config.push_back(std::move(per));
    }
  }
  return result;
}

std::vector<Checker::BatchOutcome> Checker::CheckBatch(
    const std::vector<BatchItem>& items) const {
  std::vector<BatchOutcome> outcomes(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    BatchOutcome& outcome = outcomes[i];
    try {
      outcome.result = Check(items[i].indexes, items[i].options);
      outcome.ok = true;
      outcome.code = ErrorCode::kInternal;  // Unused when ok.
    } catch (const DeadlineExceeded&) {
      outcome.ok = false;
      outcome.code = ErrorCode::kDeadlineExceeded;
      outcome.message = "deadline_exceeded";
    } catch (const std::exception& e) {
      outcome.ok = false;
      outcome.code = ErrorCode::kInternal;
      outcome.message = e.what();
    }
  }
  return outcomes;
}

}  // namespace concord
