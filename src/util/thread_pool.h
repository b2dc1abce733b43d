// Fixed-size worker pool used to parallelize contract learning and checking.
//
// The paper's tool exposes a --parallelism flag (§4) and shards work per
// configuration file. The tree has one way to run such work: the caller that owns
// the run (a CLI command, or the Service for its whole lifetime) builds at most one
// pool with PoolForParallelism and hands a non-owning `ThreadPool*` to the layers
// below, which fan out through the free ParallelFor. A null pool means "run on the
// caller". The pool is deliberately simple: a mutex-guarded deque and condition
// variables, no work stealing.
#ifndef SRC_UTIL_THREAD_POOL_H_
#define SRC_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/util/sync.h"

namespace concord {

class ThreadPool {
 public:
  // Spawns `num_threads` workers; 0 means one per hardware thread.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. A throwing task does not kill its worker: the first exception
  // of a wave is captured and rethrown from the next Wait(). Submit/Wait track
  // pool-global state, so they are only meaningful when one caller owns the pool
  // exclusively; concurrent callers sharing a pool must use ParallelFor instead.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished. If any task threw since the
  // previous Wait(), rethrows the first captured exception (the pool stays usable).
  void Wait();

  // Runs `fn(i)` for i in [0, count) across the pool and waits for completion.
  // Work is chunked to limit queueing overhead for fine-grained items. Rethrows the
  // first exception thrown by `fn`; remaining chunks still run to completion first.
  // Safe for concurrent callers on a shared pool: each call tracks its own wave,
  // so it returns as soon as its own chunks finish (other callers' waves neither
  // delay the return nor leak their exceptions into it).
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  Mutex mu_;
  CondVar work_available_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ CONCORD_GUARDED_BY(mu_);
  std::vector<std::thread> threads_;  // Written only in the ctor; joined in dtor.
  size_t in_flight_ CONCORD_GUARDED_BY(mu_) = 0;
  bool shutdown_ CONCORD_GUARDED_BY(mu_) = false;
  // Submit/Wait path only; ParallelFor captures exceptions per wave.
  std::exception_ptr first_error_ CONCORD_GUARDED_BY(mu_);
};

// The pool for a `--parallelism` setting: null for 1 (every stage runs on the
// caller), else a pool of that many workers (0 or negative = all cores).
std::unique_ptr<ThreadPool> PoolForParallelism(int parallelism);

// Runs `fn(i)` for i in [0, count): on `pool` when there is one and count > 1,
// else inline on the caller. Either way the first exception `fn` throws reaches
// this caller (and no other), so tasks may call ThrowIfExpired directly. Must not
// be called from a task of the same pool: a nested wave can starve it.
void ParallelFor(ThreadPool* pool, size_t count, const std::function<void(size_t)>& fn);

}  // namespace concord

#endif  // SRC_UTIL_THREAD_POOL_H_
