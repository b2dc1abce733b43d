#include "src/learn/relational.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

#include "src/util/cancellation.h"
#include "src/util/flat_map.h"
#include "src/util/thread_pool.h"
#include "src/util/trace.h"

#include "src/relations/affix_trie.h"
#include "src/relations/param_ref.h"
#include "src/relations/prefix_trie.h"
#include "src/relations/score.h"
#include "src/relations/transform.h"

namespace concord {

uint64_t PackRelationalNode(PatternId pattern, uint16_t param, Transform t) {
  return (static_cast<uint64_t>(pattern) << 32) | (static_cast<uint64_t>(param) << 16) |
         (static_cast<uint64_t>(t.kind) << 8) | t.arg;
}

PatternId RelationalNodePattern(uint64_t node) { return static_cast<PatternId>(node >> 32); }
uint16_t RelationalNodeParam(uint64_t node) {
  return static_cast<uint16_t>((node >> 16) & 0xffff);
}
Transform RelationalNodeTransform(uint64_t node) {
  return Transform{static_cast<TransformKind>((node >> 8) & 0xff),
                   static_cast<uint8_t>(node & 0xff)};
}

namespace {

constexpr size_t kMaxBucketNodes = 32;  // Values shared by more nodes are noise.
constexpr size_t kMaxDiversityWitnesses = 256;
constexpr uint32_t kNone = UINT32_MAX;

uint64_t PackPair(uint32_t high, uint32_t low) {
  return (static_cast<uint64_t>(high) << 32) | low;
}

// Every transformed key of one configuration, rendered once. Slots follow the
// (line, param, transform) walk order that both passes share, so pass 2 reads a
// slot's key id by cursor instead of rendering the value again. Equal texts share
// one dense id, whose KeyScore is computed once. (TransformsFor lists only
// transforms that apply; one that did not would render empty, score 0 and
// witness nothing, as before.)
struct KeyTable {
  std::string text;                                  // Rendered keys, concatenated.
  std::vector<std::pair<uint32_t, uint32_t>> spans;  // Slot -> (offset, length).
  std::vector<uint32_t> slot_key;                    // Slot -> key id.
  std::vector<uint32_t> key_slot;                    // Key id -> first slot.
  std::vector<double> score;                         // Key id -> KeyScore.
  FlatMap<std::string_view, uint32_t> ids;           // Views into `text`.

  std::string_view SlotText(uint32_t slot) const {
    return std::string_view(text).substr(spans[slot].first, spans[slot].second);
  }
  std::string_view KeyText(uint32_t key) const { return SlotText(key_slot[key]); }

  void Render(const ConfigIndex& index) {
    for (const ParsedLine* line : index.lines) {
      for (const Value& value : line->values) {
        for (const Transform& t : TransformsFor(value.type())) {
          std::string key = t.Apply(value).value_or(std::string());
          spans.emplace_back(static_cast<uint32_t>(text.size()),
                             static_cast<uint32_t>(key.size()));
          text += key;
        }
      }
    }
    // Intern only once `text` stops growing: the map's keys are views into it.
    slot_key.resize(spans.size());
    ids.reserve(spans.size());
    for (uint32_t slot = 0; slot < spans.size(); ++slot) {
      std::string_view key = SlotText(slot);
      auto [id, fresh] = ids.TryEmplace(key, static_cast<uint32_t>(key_slot.size()));
      if (fresh) {
        key_slot.push_back(slot);
        score.push_back(KeyScore(key));
      }
      slot_key[slot] = *id;
    }
  }
};

// Equality buckets: the distinct (pattern, param, transform) nodes carrying each
// key id, in first-insertion order, laid out contiguously (bucket k is
// nodes[begin[k], begin[k] + size[k])). A bucket keeps at most kMaxBucketNodes + 1
// nodes; one that reaches that many is noise and never probed.
struct EqualityBuckets {
  std::vector<uint32_t> begin;
  std::vector<uint32_t> size;
  std::vector<uint64_t> nodes;

  // `entries` are (key id, node) pairs in insertion order.
  void Build(size_t num_keys, const std::vector<std::pair<uint32_t, uint64_t>>& entries) {
    begin.assign(num_keys + 1, 0);
    for (const auto& [key, node] : entries) {
      ++begin[key + 1];
    }
    for (size_t k = 0; k < num_keys; ++k) {
      begin[k + 1] += begin[k];
    }
    nodes.resize(entries.size());
    size.assign(num_keys, 0);
    for (const auto& [key, node] : entries) {
      uint64_t* first = &nodes[begin[key]];
      uint64_t* last = first + size[key];
      if (size[key] <= kMaxBucketNodes && std::find(first, last, node) == last) {
        *last = node;
        ++size[key];
      }
    }
  }

  // nullptr/0 for a noise bucket.
  std::pair<const uint64_t*, size_t> Probe(uint32_t key) const {
    if (size[key] > kMaxBucketNodes) {
      return {nullptr, 0};
    }
    return {nodes.data() + begin[key], size[key]};
  }
};

}  // namespace

bool SummarizeRelationalConfig(const PatternTable& patterns, const ConfigIndex& index,
                               const std::vector<uint32_t>* support_filter, int support,
                               const Deadline& deadline, RelationalConfigSummary* out) {
  if (deadline.expired()) {
    return false;
  }
  // ---- Pass 1: render every key once, then build the relation-finding structures. ----
  KeyTable keys;
  keys.Render(index);
  PrefixTrie pfx;
  AffixTrie fwd(/*reversed=*/false);
  AffixTrie rev(/*reversed=*/true);
  std::vector<std::pair<uint32_t, uint64_t>> bucket_entries;
  bucket_entries.reserve(keys.spans.size());

  uint32_t cursor = 0;
  for (uint32_t li = 0; li < index.lines.size(); ++li) {
    const ParsedLine& line = *index.lines[li];
    for (uint16_t param = 0; param < line.values.size(); ++param) {
      const Value& value = line.values[param];
      for (const Transform& t : TransformsFor(value.type())) {
        uint32_t key = keys.slot_key[cursor++];
        if (keys.score[key] <= 0.0) {
          continue;  // Zero-informativeness keys never witness anything (§3.5).
        }
        ParamRef ref{line.pattern, param, t, li};
        bucket_entries.emplace_back(key, PackRelationalNode(line.pattern, param, t));
        std::string_view text = keys.KeyText(key);
        if (t == IdTransform() && text.size() >= 2) {
          fwd.Insert(text, ref);
          rev.Insert(text, ref);
        }
      }
      if (value.type() == ValueType::kPfx4 && value.AsPfx4().prefix_len() > 0) {
        pfx.Insert(value.AsPfx4(), ParamRef{line.pattern, param, IdTransform(), li});
      } else if (value.type() == ValueType::kPfx6 && value.AsPfx6().prefix_len() > 0) {
        pfx.Insert(value.AsPfx6(), ParamRef{line.pattern, param, IdTransform(), li});
      }
    }
  }
  EqualityBuckets buckets;
  buckets.Build(keys.key_slot.size(), bucket_entries);
  bucket_entries = {};

  // ---- Pass 2: look values up, marking candidate contracts per forall line. ----
  // Witnesses are key ids until the end, when the ones in use move to the
  // summary's pool.
  FlatMap<RelationalKey, uint32_t, RelationalKeyHash> candidate_ids;
  std::vector<uint64_t> marks;          // (candidate, forall line); may repeat.
  FlatMap<uint64_t, uint8_t> witnessed;  // (candidate, witness) already recorded.
  std::vector<PrefixTrie::Hit> pfx_hits;
  std::vector<AffixTrie::Hit> affix_hits;

  auto mark = [&](const RelationalKey& key, uint32_t line, uint32_t witness,
                  double score) {
    auto [id, fresh] =
        candidate_ids.TryEmplace(key, static_cast<uint32_t>(out->candidates.size()));
    uint32_t candidate = *id;
    if (fresh) {
      out->candidates.push_back(RelationalCandidate{key, false, {}});
    }
    marks.push_back(PackPair(candidate, line));
    RelationalCandidate& cand = out->candidates[candidate];
    if (cand.diversity.size() < kMaxDiversityWitnesses &&
        witnessed.TryEmplace(PackPair(candidate, witness)).second) {
      cand.diversity.emplace_back(witness, score);
    }
    ++out->match_events;
  };

  cursor = 0;
  for (uint32_t li = 0; li < index.lines.size(); ++li) {
    // Pass 2 dominates mining cost; poll the deadline every 512 lines so a
    // single huge config cannot blow past the budget.
    if ((li & 511u) == 511u && deadline.expired()) {
      return false;
    }
    const ParsedLine& line = *index.lines[li];
    // Support pre-filter (batch path only): a pattern below support can never be a
    // forall side, but its lines must still be *queried* because the flipped affix
    // directions mark the hit line, whose pattern may well meet support.
    const bool self_ok =
        support_filter == nullptr ||
        static_cast<int>((*support_filter)[line.pattern]) >= support;
    auto hit_ok = [&](uint64_t node) {
      return support_filter == nullptr ||
             static_cast<int>((*support_filter)[RelationalNodePattern(node)]) >= support;
    };
    for (uint16_t param = 0; param < line.values.size(); ++param) {
      const Value& value = line.values[param];
      const std::vector<Transform>& transforms = TransformsFor(value.type());
      const uint32_t first_slot = cursor;
      cursor += static_cast<uint32_t>(transforms.size());
      // TransformsFor lists the identity first.
      const uint32_t id_key = keys.slot_key[first_slot];

      // Equality candidates, all transforms.
      if (self_ok) {
        for (uint32_t ti = 0; ti < transforms.size(); ++ti) {
          uint32_t key = keys.slot_key[first_slot + ti];
          if (keys.score[key] <= 0.0) {
            continue;
          }
          uint64_t self = PackRelationalNode(line.pattern, param, transforms[ti]);
          auto [nodes, count] = buckets.Probe(key);
          for (size_t n = 0; n < count; ++n) {
            if (nodes[n] != self) {
              mark(RelationalKey{self, nodes[n], RelationKind::kEquals}, li, key,
                   keys.score[key]);
            }
          }
        }
      }

      // Containment candidates (identity transform only); the witness is the
      // value's identity key.
      bool is_pfx4 = value.type() == ValueType::kPfx4;
      bool is_pfx6 = value.type() == ValueType::kPfx6;
      if (self_ok &&
          (value.type() == ValueType::kIp4 || value.type() == ValueType::kIp6 || is_pfx4 ||
           is_pfx6)) {
        pfx_hits.clear();
        bool v6 = false;
        if (value.type() == ValueType::kIp4) {
          pfx.FindContaining(value.AsIp4(), &pfx_hits);
        } else if (is_pfx4) {
          pfx.FindContaining(value.AsPfx4(), &pfx_hits);
        } else if (value.type() == ValueType::kIp6) {
          pfx.FindContaining(value.AsIp6(), &pfx_hits);
          v6 = true;
        } else {
          pfx.FindContaining(value.AsPfx6(), &pfx_hits);
          v6 = true;
        }
        uint64_t self = PackRelationalNode(line.pattern, param, IdTransform());
        for (const PrefixTrie::Hit& hit : pfx_hits) {
          uint64_t node = PackRelationalNode(hit.ref.pattern, hit.ref.param, hit.ref.transform);
          if (node == self) {
            continue;
          }
          mark(RelationalKey{self, node, RelationKind::kContains}, li, id_key,
               PrefixScore(hit.prefix_len, v6));
        }
      }

      // Affix candidates (identity transform only). A hit h is a proper affix of
      // this value's key k; that yields candidates in both quantification orders.
      // The shared text is the hit's own (interned) key.
      std::string_view text = keys.KeyText(id_key);
      if (text.size() < 2) {
        continue;
      }
      uint64_t self = PackRelationalNode(line.pattern, param, IdTransform());
      for (bool reversed : {false, true}) {
        affix_hits.clear();
        (reversed ? rev : fwd).FindAffixesOf(text, &affix_hits);
        for (const AffixTrie::Hit& hit : affix_hits) {
          std::string_view shared = reversed ? text.substr(text.size() - hit.affix_len)
                                             : text.substr(0, hit.affix_len);
          uint32_t witness = keys.ids.at(shared);
          double score = keys.score[witness];  // > 0: only such keys were inserted.
          uint64_t node = PackRelationalNode(hit.ref.pattern, hit.ref.param, hit.ref.transform);
          if (node == self) {
            continue;
          }
          if (self_ok) {
            // forall this-line: it starts (ends) with the existing shorter value.
            mark(RelationalKey{self, node,
                               reversed ? RelationKind::kEndsWith : RelationKind::kStartsWith},
                 li, witness, score);
          }
          if (hit_ok(node)) {
            // forall the shorter value's line: it is a prefix (suffix) of this value.
            mark(RelationalKey{node, self,
                               reversed ? RelationKind::kSuffixOf : RelationKind::kPrefixOf},
                 hit.ref.line, witness, score);
          }
        }
      }
    }
  }

  // ---- Fold this config's marks into per-candidate hold bits. ----
  // Marks arrive out of order and repeatedly (the kPrefixOf/kSuffixOf directions
  // mark the *hit* line from many queries), so count distinct lines.
  std::sort(marks.begin(), marks.end());
  marks.erase(std::unique(marks.begin(), marks.end()), marks.end());
  for (size_t i = 0; i < marks.size();) {
    const uint32_t candidate = static_cast<uint32_t>(marks[i] >> 32);
    size_t j = i;
    while (j < marks.size() && static_cast<uint32_t>(marks[j] >> 32) == candidate) {
      ++j;
    }
    RelationalCandidate& cand = out->candidates[candidate];
    auto it = index.by_pattern.find(RelationalNodePattern(cand.key.forall_node));
    size_t total = it == index.by_pattern.end() ? 0 : it->second.size();
    cand.holds = total > 0 && j - i == total;
    i = j;
  }

  // ---- Move the witnesses in use into the summary's pool. ----
  std::vector<uint32_t> pool_id(keys.key_slot.size(), kNone);
  for (RelationalCandidate& cand : out->candidates) {
    for (auto& [witness, score] : cand.diversity) {
      if (pool_id[witness] == kNone) {
        pool_id[witness] = static_cast<uint32_t>(out->witness_ends.size());
        out->witness_text += keys.KeyText(witness);
        out->witness_ends.push_back(static_cast<uint32_t>(out->witness_text.size()));
      }
      witness = pool_id[witness];
    }
  }
  (void)patterns;
  return true;
}

namespace {

// Dataset-level evidence for one candidate, merged over configs.
struct GlobalStats {
  uint32_t holds = 0;
  uint32_t witnesses = 0;  // Distinct witnesses counted into `score`.
  double score = 0.0;
};

}  // namespace

std::vector<Contract> AggregateRelational(
    const std::vector<const ConfigSummary*>& summaries,
    const std::vector<uint32_t>& config_counts, const LearnOptions& options,
    RelationalMiningStats* stats) {
  // Nested inside the learner's Aggregate span: relational aggregation is the
  // one sub-stage heavy enough to deserve its own line in a profile.
  TraceSpan span("learn", "relational");
  // Candidates and witnesses get dense ids in (config, first-mark) order. Each
  // candidate sums the first score of each distinct witness, and counts at most
  // kMaxDiversityWitnesses of them: the first ones in that order.
  FlatMap<RelationalKey, uint32_t, RelationalKeyHash> candidate_ids;
  std::vector<RelationalKey> keys;
  std::vector<GlobalStats> global;
  FlatMap<std::string_view, uint32_t> witness_ids;  // Views into the summaries' pools.
  FlatMap<uint64_t, uint8_t> witnessed;              // (candidate, witness) counted.
  std::vector<uint32_t> pool_to_global;
  size_t match_events = 0;
  for (const ConfigSummary* summary : summaries) {
    const RelationalConfigSummary& relational = summary->relational;
    match_events += relational.match_events;
    pool_to_global.resize(relational.witness_ends.size());
    for (uint32_t w = 0; w < pool_to_global.size(); ++w) {
      pool_to_global[w] = *witness_ids
                               .TryEmplace(relational.Witness(w),
                                           static_cast<uint32_t>(witness_ids.size()))
                               .first;
    }
    for (const RelationalCandidate& cand : relational.candidates) {
      auto [id, fresh] =
          candidate_ids.TryEmplace(cand.key, static_cast<uint32_t>(keys.size()));
      const uint32_t candidate = *id;
      if (fresh) {
        keys.push_back(cand.key);
        global.emplace_back();
      }
      GlobalStats& g = global[candidate];
      if (cand.holds) {
        ++g.holds;
      }
      for (const auto& [witness, score] : cand.diversity) {
        if (g.witnesses >= kMaxDiversityWitnesses) {
          break;
        }
        if (witnessed.TryEmplace(PackPair(candidate, pool_to_global[witness])).second) {
          ++g.witnesses;
          g.score += score;
        }
      }
    }
  }

  if (stats != nullptr) {
    stats->candidate_keys = keys.size();
    stats->match_events = match_events;
  }

  // ---- Threshold pass. ----
  std::vector<Contract> out;
  for (size_t i = 0; i < keys.size(); ++i) {
    const RelationalKey& key = keys[i];
    const GlobalStats& g = global[i];
    PatternId p1 = RelationalNodePattern(key.forall_node);
    uint32_t support = config_counts[p1];
    if (static_cast<int>(support) < options.support) {
      continue;
    }
    double conf = static_cast<double>(g.holds) / static_cast<double>(support);
    if (conf < options.confidence || g.score < options.score_threshold) {
      continue;
    }
    Contract c;
    c.kind = ContractKind::kRelational;
    c.pattern = p1;
    c.param = RelationalNodeParam(key.forall_node);
    c.transform1 = RelationalNodeTransform(key.forall_node);
    c.relation = key.relation;
    c.pattern2 = RelationalNodePattern(key.exists_node);
    c.param2 = RelationalNodeParam(key.exists_node);
    c.transform2 = RelationalNodeTransform(key.exists_node);
    c.support = static_cast<int>(support);
    c.confidence = conf;
    c.score = g.score;
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<Contract> MineRelational(const Dataset& dataset,
                                     const std::vector<ConfigIndex>& indexes,
                                     const LearnOptions& options) {
  return MineRelationalWithStats(dataset, indexes, options, nullptr);
}

std::vector<Contract> MineRelationalWithStats(const Dataset& dataset,
                                              const std::vector<ConfigIndex>& indexes,
                                              const LearnOptions& options,
                                              RelationalMiningStats* stats) {
  std::vector<uint32_t> config_counts = CountConfigsPerPattern(dataset, indexes);

  // Configurations are summarized independently, on the caller's pool when
  // there is one, and merge in configuration order, so the parallel result is
  // identical to the serial one.
  std::vector<ConfigSummary> summaries(indexes.size());
  ParallelFor(options.pool, indexes.size(), [&](size_t ci) {
    if (!SummarizeRelationalConfig(dataset.patterns, indexes[ci], &config_counts,
                                   options.support, options.deadline,
                                   &summaries[ci].relational)) {
      throw DeadlineExceeded();
    }
  });

  std::vector<const ConfigSummary*> views;
  views.reserve(summaries.size());
  for (const ConfigSummary& summary : summaries) {
    views.push_back(&summary);
  }
  return AggregateRelational(views, config_counts, options, stats);
}

}  // namespace concord
