#include "src/relations/affix_trie.h"

namespace concord {

AffixTrie::AffixTrie(bool reversed) : reversed_(reversed) { nodes_.resize(1); }

void AffixTrie::Insert(std::string_view key, ParamRef ref) {
  if (key.empty()) {
    return;  // Empty keys are affixes of everything; pure noise.
  }
  int32_t node = 0;
  for (size_t i = 0; i < key.size(); ++i) {
    char c = At(key, i);
    int32_t next = Child(node, c);
    if (next < 0) {
      next = static_cast<int32_t>(nodes_.size());
      Node fresh;
      fresh.edge = c;
      fresh.next_sibling = nodes_[node].first_child;
      nodes_.push_back(fresh);
      nodes_[node].first_child = next;
    }
    node = next;
  }
  int32_t terminal = static_cast<int32_t>(terminals_.size());
  terminals_.push_back(Terminal{ref, -1});
  if (nodes_[node].last_terminal < 0) {
    nodes_[node].first_terminal = terminal;
  } else {
    terminals_[nodes_[node].last_terminal].next = terminal;
  }
  nodes_[node].last_terminal = terminal;
  ++num_keys_;
}

void AffixTrie::FindAffixesOf(std::string_view query, std::vector<Hit>* out) const {
  int32_t node = 0;
  for (size_t depth = 0; depth < query.size(); ++depth) {
    // Terminals at `depth` are proper affixes (length `depth` < query length) once we
    // are past the root; the root's terminals would be empty keys, never inserted.
    if (depth > 0) {
      for (int32_t t = nodes_[node].first_terminal; t >= 0; t = terminals_[t].next) {
        out->push_back(Hit{terminals_[t].ref, static_cast<int>(depth)});
      }
    }
    int32_t next = Child(node, At(query, depth));
    if (next < 0) {
      return;
    }
    node = next;
  }
  // Note: terminals at the final node have length == query length (equality), which is
  // deliberately not reported.
}

}  // namespace concord
