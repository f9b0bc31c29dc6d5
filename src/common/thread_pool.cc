#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/sync.h"

namespace adahealth {
namespace common {

ThreadPool::ThreadPool(size_t num_threads) {
  ADA_CHECK_GE(num_threads, 1u);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

ThreadPool& ThreadPool::Shared() {
  // Function-local static: constructed on first use, joined at process
  // exit. Subsystems schedule through TrySchedule so a task arriving
  // during exit teardown is executed inline by the caller instead.
  static ThreadPool pool(
      std::max<size_t>(1, std::thread::hardware_concurrency()));
  return pool;
}

void ThreadPool::Shutdown() {
  {
    MutexLock lock(&mutex_);
    shutting_down_ = true;
  }
  task_available_.NotifyAll();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

bool ThreadPool::TrySchedule(std::function<void()> task) {
  {
    MutexLock lock(&mutex_);
    if (shutting_down_) return false;
    queue_.push_back(std::move(task));
  }
  task_available_.NotifyOne();
  return true;
}

void ThreadPool::Wait() {
  MutexLock lock(&mutex_);
  all_done_.Wait(mutex_, [this]() ADA_REQUIRES(mutex_) {
    return queue_.empty() && active_ == 0;
  });
}

size_t ThreadPool::failed_tasks() const {
  MutexLock lock(&mutex_);
  return failed_tasks_;
}

std::string ThreadPool::first_failure_message() const {
  MutexLock lock(&mutex_);
  return first_failure_message_;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(&mutex_);
      task_available_.Wait(mutex_, [this]() ADA_REQUIRES(mutex_) {
        return shutting_down_ || !queue_.empty();
      });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    bool failed = false;
    std::string failure_message;
    // Fault injection: "thread_pool.task" simulates a task whose
    // execution failed. The task body still runs — completion is
    // load-bearing for ParallelFor's pending count — only the pool's
    // failure accounting fires.
    Status injected = ADA_FAILPOINT("thread_pool.task");
    if (!injected.ok()) {
      failed = true;
      failure_message = injected.message();
    }
    try {
      task();
    } catch (const std::exception& e) {
      failed = true;
      failure_message = e.what();
      ADA_LOG(kWarning) << "thread pool task failed: " << failure_message;
    } catch (...) {
      failed = true;
      failure_message = "unknown exception";
      ADA_LOG(kWarning)
          << "thread pool task failed with a non-std exception";
    }
    {
      MutexLock lock(&mutex_);
      if (failed) {
        ++failed_tasks_;
        if (failed_tasks_ == 1) first_failure_message_ = failure_message;
      }
      --active_;
      if (queue_.empty() && active_ == 0) all_done_.NotifyAll();
    }
  }
}

namespace {

/// Shared state of one ParallelForChunks call. Workers and the caller
/// claim chunk ids from `next`; whoever finishes the last chunk
/// notifies `done_cv`. Held in a shared_ptr so helper tasks stay valid
/// even if the caller unwinds first.
struct ParallelForState {
  std::function<void(size_t, size_t)> body;
  size_t begin = 0;
  size_t end = 0;
  size_t chunk = 1;
  size_t num_chunks = 0;
  std::atomic<size_t> next{0};
  std::atomic<size_t> remaining{0};
  Mutex done_mutex;
  CondVar done_cv;
  /// First body exception, wherever it ran; rethrown by the caller
  /// once every chunk has finished.
  std::exception_ptr first_error ADA_GUARDED_BY(done_mutex);
};

void FinishChunk(ParallelForState& state) {
  if (state.remaining.fetch_sub(1) == 1) {
    // Lock before notifying so the last decrement cannot slip between
    // a waiter's predicate check and its sleep.
    MutexLock lock(&state.done_mutex);
    state.done_cv.NotifyAll();
  }
}

/// Claims and executes chunks until none remain. A throwing body has
/// its exception recorded in the shared state (first one wins — the
/// caller rethrows it after the barrier, no matter which thread ran
/// the chunk) and the loop keeps claiming, so every chunk is finished
/// by someone and WaitAllChunks can never hang on an unclaimed chunk.
void RunClaimLoop(ParallelForState& state) {
  while (true) {
    const size_t id = state.next.fetch_add(1);
    if (id >= state.num_chunks) return;
    const size_t chunk_begin = state.begin + id * state.chunk;
    const size_t chunk_end = std::min(state.end, chunk_begin + state.chunk);
    try {
      state.body(chunk_begin, chunk_end);
      // Not swallowed: the caller rethrows first_error after the
      // barrier (see ParallelForChunks).
    } catch (...) {  // ada-lint: allow(catch-swallow)
      MutexLock lock(&state.done_mutex);
      if (state.first_error == nullptr) {
        state.first_error = std::current_exception();
      }
    }
    FinishChunk(state);
  }
}

/// Blocks until every chunk has finished and returns the first body
/// exception (nullptr when none). The error is read under done_mutex —
/// the annotations surfaced that the old post-barrier read relied on
/// the cv/atomic ordering alone instead of the lock that guards it.
std::exception_ptr WaitAllChunks(ParallelForState& state) {
  MutexLock lock(&state.done_mutex);
  state.done_cv.Wait(state.done_mutex,
                     [&state] { return state.remaining.load() == 0; });
  return state.first_error;
}

}  // namespace

size_t ParallelForChunks(
    ThreadPool& pool, size_t begin, size_t end,
    const std::function<void(size_t, size_t)>& chunk_body,
    size_t max_chunk) {
  if (begin >= end) return 0;
  const size_t total = end - begin;
  const size_t workers = pool.num_threads();
  // Oversubscribe chunks 4x relative to workers so a straggler chunk
  // does not serialize the tail; an explicit max_chunk is exact (the
  // chunk grid is then a deterministic function of the range alone,
  // which deterministic reductions rely on).
  size_t chunk = max_chunk;
  if (chunk == 0) {
    const size_t target = workers * 4;
    chunk = std::max<size_t>(1, (total + target - 1) / target);
  }
  const size_t num_chunks = (total + chunk - 1) / chunk;

  auto state = std::make_shared<ParallelForState>();
  state->body = chunk_body;
  state->begin = begin;
  state->end = end;
  state->chunk = chunk;
  state->num_chunks = num_chunks;
  state->remaining.store(num_chunks);

  // The caller participates, so only num_chunks - 1 helpers can ever
  // find work; TrySchedule failure (pool shutting down) just means the
  // caller runs every chunk itself.
  const size_t helpers = std::min(workers, num_chunks - 1);
  for (size_t h = 0; h < helpers; ++h) {
    if (!pool.TrySchedule([state] { RunClaimLoop(*state); })) break;
  }
  RunClaimLoop(*state);
  // The barrier hands back the first error under its own lock: the
  // caller rethrows it regardless of which thread hit it.
  if (std::exception_ptr first_error = WaitAllChunks(*state)) {
    std::rethrow_exception(first_error);
  }
  return num_chunks;
}

void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& body,
                 size_t max_chunk) {
  ParallelForChunks(
      pool, begin, end,
      [&body](size_t chunk_begin, size_t chunk_end) {
        for (size_t i = chunk_begin; i < chunk_end; ++i) body(i);
      },
      max_chunk);
}

}  // namespace common
}  // namespace adahealth
