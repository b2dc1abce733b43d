// Learning configuration (§4).
#ifndef SRC_LEARN_OPTIONS_H_
#define SRC_LEARN_OPTIONS_H_

#include "src/util/cancellation.h"

namespace concord {

class ThreadPool;

struct LearnOptions {
  // Support S: minimum number of configurations in which a pattern must appear before
  // any contract about it is considered (default 5 per the paper).
  int support = 5;

  // Confidence C: required fraction of supporting configurations in which the contract
  // holds (default 96% per the paper).
  double confidence = 0.96;

  // Heuristic scoring threshold for relational contracts (§3.5): minimum cumulative
  // diversity-aggregated informativeness.
  double score_threshold = 4.0;

  // Category toggles. Ordering contracts are disabled by default in the paper's
  // production deployment (§5.4/§5.5) but enabled here so every experiment can measure
  // them; benches toggle as needed.
  bool learn_present = true;
  bool learn_ordering = true;
  bool learn_type = true;
  bool learn_sequence = true;
  bool learn_unique = true;
  bool learn_relational = true;

  // Constant-learning mode (§4): also learn presence/order of exact line text.
  bool constants = false;

  // Apply relational contract minimization (§3.6).
  bool minimize = true;

  // Runtime-only, like `deadline` (never persisted or part of a learn's
  // identity): the caller-owned pool that per-config summarization shards
  // across; null runs it on the caller. Must outlive the learn.
  ThreadPool* pool = nullptr;

  // Wall-clock budget for the run; hot loops poll it and raise DeadlineExceeded
  // (a structured `deadline_exceeded` error upstream) instead of running away.
  Deadline deadline;
};

}  // namespace concord

#endif  // SRC_LEARN_OPTIONS_H_
