#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace concord {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.NotifyOne();
}

void ThreadPool::Wait() {
  std::exception_ptr error;
  {
    MutexLock lock(mu_);
    while (in_flight_ != 0) {
      all_done_.Wait(mu_);
    }
    error = std::exchange(first_error_, nullptr);
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

void ThreadPool::ParallelFor(size_t count, const std::function<void(size_t)>& fn) {
  if (count == 0) {
    return;
  }
  // Per-call wave state: the service shares one pool across concurrently served
  // requests, so each caller must wait only on its own chunks (not pool-global
  // idleness) and must see only exceptions thrown by its own tasks. Waiting on
  // in_flight_ == 0 would let one request's Wait be stalled unboundedly by other
  // requests' waves — outside deadline polling, so deadline_ms could not bound it.
  struct Wave {
    explicit Wave(size_t chunks) : pending(chunks) {}
    Mutex mu;
    CondVar done;
    size_t pending CONCORD_GUARDED_BY(mu);
    std::exception_ptr error CONCORD_GUARDED_BY(mu);
  };
  size_t chunks = std::min(count, threads_.size() * 4);
  size_t chunk_size = (count + chunks - 1) / chunks;
  auto wave = std::make_shared<Wave>(chunks);
  auto next = std::make_shared<std::atomic<size_t>>(0);
  for (size_t c = 0; c < chunks; ++c) {
    Submit([wave, next, count, chunk_size, &fn] {
      std::exception_ptr error;
      try {
        while (true) {
          size_t start = next->fetch_add(chunk_size);
          if (start >= count) {
            break;
          }
          size_t end = std::min(count, start + chunk_size);
          for (size_t i = start; i < end; ++i) {
            fn(i);
          }
        }
      } catch (...) {
        error = std::current_exception();
      }
      MutexLock lock(wave->mu);
      if (error && !wave->error) {
        wave->error = std::move(error);
      }
      if (--wave->pending == 0) {
        wave->done.NotifyAll();
      }
    });
  }
  std::exception_ptr error;
  {
    MutexLock lock(wave->mu);
    while (wave->pending != 0) {
      wave->done.Wait(wave->mu);
    }
    error = std::exchange(wave->error, nullptr);
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

std::unique_ptr<ThreadPool> PoolForParallelism(int parallelism) {
  if (parallelism == 1) {
    return nullptr;
  }
  return std::make_unique<ThreadPool>(parallelism <= 0 ? 0 : static_cast<size_t>(parallelism));
}

void ParallelFor(ThreadPool* pool, size_t count, const std::function<void(size_t)>& fn) {
  if (pool == nullptr || count <= 1) {
    for (size_t i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }
  pool->ParallelFor(count, fn);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) {
        work_available_.Wait(mu_);
      }
      if (queue_.empty()) {
        return;  // Shutdown with a drained queue.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      MutexLock lock(mu_);
      if (error && !first_error_) {
        first_error_ = std::move(error);
      }
      if (--in_flight_ == 0) {
        all_done_.NotifyAll();
      }
    }
  }
}

}  // namespace concord
