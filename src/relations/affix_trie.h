// Character trie for affix (startswith / endswith) relation search (§3.5).
//
// Forward mode answers: which inserted keys are a *proper prefix* of my query string?
// Reversed mode (keys and queries reversed internally) answers the same for suffixes,
// which drives contracts like Figure 1's 3: `endswith(str(l2.b), str(l1.a))` — the
// vlan id "251" is a suffix of the route distinguisher's "10251". One pass inserts
// every canonical key; a second pass walks each key through the trie, collecting all
// shorter keys it extends — O(length) per probe instead of comparing all pairs.
#ifndef SRC_RELATIONS_AFFIX_TRIE_H_
#define SRC_RELATIONS_AFFIX_TRIE_H_

#include <string_view>
#include <utility>
#include <vector>

#include "src/relations/param_ref.h"

namespace concord {

class AffixTrie {
 public:
  struct Hit {
    ParamRef ref;
    int affix_len;  // Length of the shared (shorter) key, for scoring.
  };

  // `reversed` selects endswith mode.
  explicit AffixTrie(bool reversed);

  void Insert(std::string_view key, ParamRef ref);

  // All inserted keys that are a proper affix of `query` (strictly shorter, length
  // >= 1; equality is the equality relation's job, not affix's).
  void FindAffixesOf(std::string_view query, std::vector<Hit>* out) const;

  size_t num_keys() const { return num_keys_; }

 private:
  // Nodes and terminals live in two flat vectors linked by index, so building a
  // trie costs a handful of vector growths rather than two heap blocks per node.
  // Children form a sibling list, scanned linearly: trie fanout is tiny (digits,
  // hex, a few letters). Terminals form a list in insertion order, which is the
  // order FindAffixesOf reports them in.
  struct Node {
    int32_t first_child = -1;
    int32_t next_sibling = -1;
    int32_t first_terminal = -1;
    int32_t last_terminal = -1;
    char edge = 0;
  };
  struct Terminal {
    ParamRef ref;
    int32_t next = -1;
  };

  int32_t Child(int32_t node, char c) const {
    for (int32_t child = nodes_[node].first_child; child >= 0;
         child = nodes_[child].next_sibling) {
      if (nodes_[child].edge == c) {
        return child;
      }
    }
    return -1;
  }

  // The i-th character of `s` in walk order (back to front when reversed).
  char At(std::string_view s, size_t i) const {
    return reversed_ ? s[s.size() - 1 - i] : s[i];
  }

  std::vector<Node> nodes_;
  std::vector<Terminal> terminals_;
  bool reversed_;
  size_t num_keys_ = 0;
};

}  // namespace concord

#endif  // SRC_RELATIONS_AFFIX_TRIE_H_
