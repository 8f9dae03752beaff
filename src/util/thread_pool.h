// Fixed-size worker pool behind net::NetworkSim's per-node fan-out (one
// chunk's encode is single-threaded; one encoder per sensor is the unit
// of concurrency). The one primitive is ParallelFor with *static
// chunking*: the index range [0, n) is cut into min(threads, n)
// contiguous chunks whose boundaries depend only on (n, threads), never
// on the pool size or on runtime timing, so per-chunk results can be
// merged in chunk order for bitwise-deterministic reductions at any
// thread count.
//
// The calling thread always participates (it claims chunks from the same
// shared counter the workers drain), which makes nested ParallelFor calls
// deadlock-free: even when every pool worker is busy, the nested caller
// finishes its own chunks by itself.
#ifndef SBR_UTIL_THREAD_POOL_H_
#define SBR_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sbr::util {

/// std::thread::hardware_concurrency(), clamped to at least 1 (the
/// standard allows it to report 0). Callers that want "use the machine"
/// pass this as the `threads` option.
size_t HardwareThreads();

class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads (0 is valid: every ParallelFor
  /// then runs entirely on the calling thread, still chunked identically).
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Runs `body(chunk, begin, end)` over the static partition of [0, n)
  /// into min(num_chunks, n) contiguous chunks; chunk c covers
  /// [c*n/C, (c+1)*n/C). Blocks until every chunk has finished. The body
  /// must not throw. Safe to call from inside another ParallelFor body.
  void ParallelFor(
      size_t n, size_t num_chunks,
      const std::function<void(size_t chunk, size_t begin, size_t end)>& body);

  /// Process-wide pool, lazily constructed with HardwareThreads() - 1
  /// workers (the caller is the remaining thread). Never constructed when
  /// every caller sticks to threads = 1.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Convenience front end: `threads` is the user-facing option (1 = run
/// inline on the calling thread, the exact serial path); larger values
/// fan the range out over the shared pool. Chunk boundaries depend only
/// on (threads, n).
void ParallelFor(
    size_t threads, size_t n,
    const std::function<void(size_t chunk, size_t begin, size_t end)>& body);

}  // namespace sbr::util

#endif  // SBR_UTIL_THREAD_POOL_H_
