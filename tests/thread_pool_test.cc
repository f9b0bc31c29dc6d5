#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/sync.h"

namespace adahealth {
namespace common {
namespace {

TEST(ThreadPoolTest, RunsScheduledTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.TrySchedule([&counter] { counter.fetch_add(1); }));
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // Must not hang.
  SUCCEED();
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(pool.TrySchedule([&counter] { counter.fetch_add(1); }));
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, DestructorDrainsSlowTasks) {
  // Tasks that are still queued when the destructor runs must execute,
  // even when every worker is busy at destruction time.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(pool.TrySchedule([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        counter.fetch_add(1);
      }));
    }
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, ThrowingTaskDoesNotKillWorkerOrDeadlockWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  ASSERT_TRUE(pool.TrySchedule([] { throw std::runtime_error("boom"); }));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.TrySchedule([&counter] { counter.fetch_add(1); }));
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
  EXPECT_EQ(pool.failed_tasks(), 1u);
  EXPECT_EQ(pool.first_failure_message(), "boom");
}

TEST(ThreadPoolTest, NonStdExceptionIsRecordedAsUnknown) {
  ThreadPool pool(1);
  ASSERT_TRUE(pool.TrySchedule([] { throw 42; }));
  pool.Wait();
  EXPECT_EQ(pool.failed_tasks(), 1u);
  EXPECT_EQ(pool.first_failure_message(), "unknown exception");
}

TEST(ThreadPoolTest, FirstFailureMessageIsKept) {
  ThreadPool pool(1);  // Single worker makes failure order deterministic.
  ASSERT_TRUE(pool.TrySchedule([] { throw std::runtime_error("first"); }));
  ASSERT_TRUE(pool.TrySchedule([] { throw std::runtime_error("second"); }));
  pool.Wait();
  EXPECT_EQ(pool.failed_tasks(), 2u);
  EXPECT_EQ(pool.first_failure_message(), "first");
}

TEST(ThreadPoolTest, TryScheduleRunsOnLivePool) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(pool.TrySchedule([&counter] { counter.fetch_add(1); }));
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ShutdownDrainsAcceptedWorkThenRejectsNewWork) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(pool.TrySchedule([&counter] { counter.fetch_add(1); }));
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 20);
  EXPECT_FALSE(pool.TrySchedule([&counter] { counter.fetch_add(1); }));
  pool.Shutdown();  // Idempotent; the destructor will call it again.
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.TrySchedule([&counter] { counter.fetch_add(1); }));
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(pool, 0, hits.size(),
              [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  ParallelFor(pool, 5, 5, [](size_t) { FAIL(); });
  ParallelFor(pool, 7, 3, [](size_t) { FAIL(); });
}

TEST(ParallelForTest, NonZeroBegin) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  ParallelFor(pool, 10, 20,
              [&](size_t i) { sum.fetch_add(static_cast<long>(i)); });
  EXPECT_EQ(sum.load(), 145);  // 10 + 11 + ... + 19.
}

TEST(ParallelForTest, MoreWorkersThanItems) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  ParallelFor(pool, 0, 3, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ParallelForTest, NestedCallsOnSamePoolDoNotDeadlock) {
  // The caller participates in chunk execution, so an inner
  // ParallelFor issued from inside a pool task must complete even when
  // every worker is already busy running outer iterations.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  ParallelFor(pool, 0, 8, [&](size_t) {
    ParallelFor(pool, 0, 16, [&](size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ParallelForChunksTest, ChunksPartitionTheRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(777);
  size_t chunks = ParallelForChunks(
      pool, 0, hits.size(), [&](size_t begin, size_t end) {
        ASSERT_LT(begin, end);
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
  EXPECT_GE(chunks, 1u);
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelForChunksTest, ExplicitMaxChunkGivesExactGrid) {
  // An explicit max_chunk is a determinism contract: chunk boundaries
  // land exactly on multiples of it, which the k-means engines rely on
  // for bit-identical parallel reductions.
  ThreadPool pool(4);
  Mutex mutex;
  std::vector<std::pair<size_t, size_t>> seen;
  size_t chunks = ParallelForChunks(
      pool, 0, 1000,
      [&](size_t begin, size_t end) {
        MutexLock lock(&mutex);
        seen.emplace_back(begin, end);
      },
      256);
  EXPECT_EQ(chunks, 4u);
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 4u);
  for (size_t c = 0; c < seen.size(); ++c) {
    EXPECT_EQ(seen[c].first, c * 256);
    EXPECT_EQ(seen[c].second, std::min<size_t>(1000, (c + 1) * 256));
  }
}

TEST(ParallelForChunksTest, ExceptionPropagatesWithoutDeadlock) {
  ThreadPool pool(2);
  EXPECT_THROW(
      ParallelForChunks(pool, 0, 100,
                        [&](size_t begin, size_t) {
                          if (begin == 0) throw std::runtime_error("boom");
                        },
                        10),
      std::runtime_error);
  pool.Wait();  // Remaining helpers must still drain cleanly.
}

TEST(SharedPoolTest, IsProcessWideSingleton) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
  std::atomic<int> counter{0};
  ParallelFor(a, 0, 50, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace common
}  // namespace adahealth
