#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "obs/metrics.h"

namespace sbr::util {
namespace {

// Shared state of one ParallelFor call. Kept on the heap behind a
// shared_ptr because enqueued helper tasks can outlive the call (they may
// be popped after every chunk is already done, in which case they see an
// exhausted counter and return without touching the body).
struct ForState {
  size_t n = 0;
  size_t num_chunks = 0;
  const std::function<void(size_t, size_t, size_t)>* body = nullptr;
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  size_t done = 0;
};

// Claims chunks until the counter is exhausted. Runs on the caller and on
// any worker that picked up a helper task. `state.body` is only
// dereferenced for a successfully claimed chunk, which the caller is
// guaranteed to still be waiting on.
void RunChunks(ForState& state, bool helper) {
  for (;;) {
    const size_t c = state.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= state.num_chunks) return;
    const size_t begin = c * state.n / state.num_chunks;
    const size_t end = (c + 1) * state.n / state.num_chunks;
    {
      SBR_OBS_TIMER(chunk_timer, "pool.chunk_us");
      (*state.body)(c, begin, end);
    }
    // Two sites, not a ternary name: the counter macro caches the metric in
    // a function-local static keyed by its call site.
    if (helper) {
      SBR_OBS_COUNT("pool.worker_chunks", 1);
    } else {
      SBR_OBS_COUNT("pool.caller_chunks", 1);
    }
    std::lock_guard<std::mutex> lock(state.mu);
    if (++state.done == state.num_chunks) state.done_cv.notify_all();
  }
}

}  // namespace

size_t HardwareThreads() {
  const unsigned h = std::thread::hardware_concurrency();
  return h == 0 ? 1 : static_cast<size_t>(h);
}

ThreadPool::ThreadPool(size_t num_workers) {
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ set and queue drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(
    size_t n, size_t num_chunks,
    const std::function<void(size_t, size_t, size_t)>& body) {
  if (n == 0) return;
  num_chunks = std::min(num_chunks, n);
  if (num_chunks <= 1) {
    body(0, 0, n);
    return;
  }

  SBR_OBS_COUNT("pool.parallel_fors", 1);
  auto state = std::make_shared<ForState>();
  state->n = n;
  state->num_chunks = num_chunks;
  state->body = &body;

  // One helper task per chunk beyond the caller's first; each helper loops
  // over the shared counter, so idle workers drain whatever the caller has
  // not claimed yet.
  const size_t helpers =
      workers_.empty() ? 0 : std::min(workers_.size(), num_chunks - 1);
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < helpers; ++i) {
        tasks_.emplace_back([state] { RunChunks(*state, /*helper=*/true); });
      }
      SBR_OBS_COUNT("pool.tasks_enqueued", helpers);
      SBR_OBS_GAUGE_SET("pool.queue_depth", tasks_.size());
    }
    cv_.notify_all();
  }

  RunChunks(*state, /*helper=*/false);
  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock,
                      [&] { return state->done == state->num_chunks; });
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(HardwareThreads() - 1);
  return pool;
}

void ParallelFor(
    size_t threads, size_t n,
    const std::function<void(size_t chunk, size_t begin, size_t end)>& body) {
  if (n == 0) return;
  if (threads <= 1) {
    body(0, 0, n);
    return;
  }
  ThreadPool::Shared().ParallelFor(n, threads, body);
}

}  // namespace sbr::util
