#include "common/sync.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace adahealth {
namespace common {
namespace {

TEST(MutexTest, ExcludesConcurrentCriticalSections) {
  Mutex mutex;
  int counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        MutexLock lock(&mutex);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter, 40000);
}

TEST(MutexLockTest, ManualUnlockReleasesAndRelockReacquires) {
  Mutex mutex;
  {
    MutexLock lock(&mutex);
    lock.Unlock();
    // The mutex is genuinely free while dropped: another thread can
    // take it (a held mutex would block the prober, and the join).
    std::atomic<bool> acquired{false};
    std::thread prober([&] {
      MutexLock probe(&mutex);
      acquired.store(true);
    });
    prober.join();
    EXPECT_TRUE(acquired.load());
    lock.Lock();
  }
  // Destructor released the re-acquired mutex.
  std::thread prober([&] { MutexLock probe(&mutex); });
  prober.join();
}

TEST(MutexLockTest, DestructorAfterManualUnlockDoesNotDoubleRelease) {
  Mutex mutex;
  {
    MutexLock lock(&mutex);
    lock.Unlock();
  }  // Destructor must observe the released state (held_ == false).
  std::thread prober([&] { MutexLock probe(&mutex); });
  prober.join();
}

TEST(CondVarTest, PredicateWaitObservesNotifiedState) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;
  int observed = 0;
  std::thread consumer([&] {
    MutexLock lock(&mutex);
    cv.Wait(mutex, [&]() ADA_REQUIRES(mutex) { return ready; });
    observed = 42;
  });
  {
    MutexLock lock(&mutex);
    ready = true;
  }
  cv.NotifyOne();
  consumer.join();
  EXPECT_EQ(observed, 42);
}

TEST(CondVarTest, NotifyAllWakesEveryWaiter) {
  Mutex mutex;
  CondVar cv;
  bool go = false;
  std::atomic<int> woken{0};
  std::vector<std::thread> waiters;
  waiters.reserve(3);
  for (int t = 0; t < 3; ++t) {
    waiters.emplace_back([&] {
      MutexLock lock(&mutex);
      cv.Wait(mutex, [&]() ADA_REQUIRES(mutex) { return go; });
      woken.fetch_add(1);
    });
  }
  {
    MutexLock lock(&mutex);
    go = true;
  }
  cv.NotifyAll();
  for (auto& waiter : waiters) waiter.join();
  EXPECT_EQ(woken.load(), 3);
}

TEST(CondVarTest, WaitForTimesOutWhenPredicateStaysFalse) {
  Mutex mutex;
  CondVar cv;
  MutexLock lock(&mutex);
  const auto start = std::chrono::steady_clock::now();
  const bool satisfied =
      cv.WaitFor(mutex, 20.0, []() { return false; });
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(satisfied);
  EXPECT_GE(elapsed, std::chrono::milliseconds(19));
}

TEST(CondVarTest, WaitForReturnsTrueWhenNotifiedInTime) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;
  bool satisfied = false;
  std::thread waiter([&] {
    MutexLock lock(&mutex);
    satisfied = cv.WaitFor(mutex, 10000.0,
                           [&]() ADA_REQUIRES(mutex) { return ready; });
  });
  {
    MutexLock lock(&mutex);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
  EXPECT_TRUE(satisfied);
}

TEST(CondVarTest, WaitUntilReportsTimeoutDistinctly) {
  Mutex mutex;
  CondVar cv;
  MutexLock lock(&mutex);
  const bool notified = cv.WaitUntil(
      mutex, std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(10));
  EXPECT_FALSE(notified);
}

}  // namespace
}  // namespace common
}  // namespace adahealth
