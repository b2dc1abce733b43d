#include "src/util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace concord {
namespace {

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // Must not deadlock.
}

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForZeroCount) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForSmallCountFewerThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  pool.ParallelFor(3, [&sum](size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 0 + 1 + 2);
}

TEST(ThreadPool, SingleThreadStillWorks) {
  ThreadPool pool(1);
  std::atomic<long> sum{0};
  pool.ParallelFor(500, [&sum](size_t i) { sum.fetch_add(static_cast<long>(i)); });
  EXPECT_EQ(sum.load(), 500L * 499 / 2);
}

TEST(ThreadPool, ReusableAcrossWaves) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (wave + 1) * 20);
  }
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPool, ThrowingTaskSurfacesAtWait) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&count, i] {
      if (i == 17) {
        throw std::runtime_error("task 17 failed");
      }
      count.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  EXPECT_EQ(count.load(), 49);  // Every non-throwing task still ran.
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100,
                                [](size_t i) {
                                  if (i == 42) {
                                    throw std::invalid_argument("bad item");
                                  }
                                }),
               std::invalid_argument);
}

TEST(ThreadPool, PoolUsableAfterException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The error does not stick: a clean wave waits without throwing.
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 20);
}

// The service shares one pool across concurrently served connections, so a
// ParallelFor caller must wait only on its own wave and see only its own
// exceptions. With pool-global tracking this test deadlocks: the fast caller's
// wait would not return until the slow wave — released only afterwards — drains.
TEST(ThreadPool, ConcurrentParallelForWavesAreIsolated) {
  ThreadPool pool(4);
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  std::exception_ptr slow_error;
  std::thread slow_caller([&] {
    try {
      pool.ParallelFor(2, [&](size_t) {
        started.fetch_add(1);
        while (!release.load()) {
          std::this_thread::yield();
        }
        throw std::runtime_error("slow wave failed");
      });
    } catch (...) {
      slow_error = std::current_exception();
    }
  });
  while (started.load() < 2) {
    std::this_thread::yield();
  }
  // Two workers are pinned by the blocked slow wave; this wave must still
  // complete and return without throwing.
  std::atomic<int> sum{0};
  pool.ParallelFor(3, [&sum](size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 0 + 1 + 2);
  release.store(true);
  slow_caller.join();
  // The slow wave's exception reached the slow caller, not the fast one.
  ASSERT_NE(slow_error, nullptr);
  EXPECT_THROW(std::rethrow_exception(slow_error), std::runtime_error);
}

TEST(ThreadPool, FreeParallelForRunsInlineWithoutAPool) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> seen(5, 0);
  ParallelFor(nullptr, seen.size(), [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    seen[i] = 1;
  });
  EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0), 5);
  EXPECT_THROW(ParallelFor(nullptr, 3, [](size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);

  ThreadPool pool(2);
  std::atomic<int> sum{0};
  ParallelFor(&pool, 100, [&sum](size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, ParallelismOneBuildsNoPool) {
  EXPECT_EQ(PoolForParallelism(1), nullptr);
  EXPECT_EQ(PoolForParallelism(3)->num_threads(), 3u);
}

TEST(ThreadPool, OnlyFirstExceptionIsKept) {
  ThreadPool pool(4);
  for (int i = 0; i < 10; ++i) {
    pool.Submit([] { throw std::runtime_error("boom"); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  pool.Wait();  // Subsequent wait is clean.
}

}  // namespace
}  // namespace concord
