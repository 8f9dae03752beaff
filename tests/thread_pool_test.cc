// Unit tests for the thread pool behind NetworkSim's node fan-out:
// static-chunking guarantees, full and exactly-once coverage of the index
// range, nested ParallelFor (the deadlock scenario), and enough concurrent
// churn for ThreadSanitizer to chew on (this binary carries the "parallel"
// label).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace sbr::util {
namespace {

TEST(ThreadPool, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(HardwareThreads(), 1u);
}

TEST(ThreadPool, SerialWhenThreadsOne) {
  // threads <= 1 must run inline on the calling thread as one chunk: this
  // is the "default 1 = exact current behavior" contract.
  const std::thread::id caller = std::this_thread::get_id();
  size_t calls = 0;
  ParallelFor(1, 100, [&](size_t chunk, size_t begin, size_t end) {
    EXPECT_EQ(chunk, 0u);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 100u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPool, CoversRangeExactlyOnce) {
  const size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  ParallelFor(4, n, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, StaticChunkBoundariesDependOnlyOnThreadsAndN) {
  // chunk c must cover [c*n/C, (c+1)*n/C): record every chunk's range and
  // check the partition, twice, to pin that boundaries are not timing- or
  // pool-size-dependent.
  const size_t n = 103;  // deliberately not a multiple of the chunk count
  const size_t threads = 4;
  for (int repeat = 0; repeat < 2; ++repeat) {
    const size_t num_chunks = threads;  // min(threads, n)
    std::vector<std::pair<size_t, size_t>> ranges(num_chunks);
    ParallelFor(threads, n, [&](size_t chunk, size_t begin, size_t end) {
      ranges[chunk] = {begin, end};
    });
    size_t expect_begin = 0;
    for (size_t c = 0; c < num_chunks; ++c) {
      EXPECT_EQ(ranges[c].first, c * n / num_chunks);
      EXPECT_EQ(ranges[c].first, expect_begin);
      EXPECT_EQ(ranges[c].second, (c + 1) * n / num_chunks);
      expect_begin = ranges[c].second;
    }
    EXPECT_EQ(expect_begin, n);
  }
}

TEST(ThreadPool, MoreThreadsThanWorkClampsToN) {
  std::atomic<size_t> chunks{0};
  ParallelFor(16, 3, [&](size_t, size_t begin, size_t end) {
    EXPECT_EQ(end, begin + 1);  // 3 items over min(16, 3) = 3 chunks
    chunks.fetch_add(1);
  });
  EXPECT_EQ(chunks.load(), 3u);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  // A worker that issues its own ParallelFor must never deadlock, even
  // when every pool thread is already busy in the outer loop: the nested
  // caller drains its own chunks. Sum check proves every level ran.
  std::atomic<uint64_t> total{0};
  ParallelFor(4, 8, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ParallelFor(4, 64, [&](size_t, size_t b, size_t e) {
        uint64_t local = 0;
        for (size_t j = b; j < e; ++j) local += j;
        total.fetch_add(local);
      });
    }
  });
  EXPECT_EQ(total.load(), 8ull * (63ull * 64ull / 2));
}

TEST(ThreadPool, ManySmallLoopsStress) {
  // Rapid-fire dispatch: exercises task enqueue/drain races under TSan.
  std::atomic<uint64_t> total{0};
  for (int iter = 0; iter < 500; ++iter) {
    ParallelFor(8, 16, [&](size_t, size_t begin, size_t end) {
      total.fetch_add(end - begin);
    });
  }
  EXPECT_EQ(total.load(), 500ull * 16);
}

TEST(ThreadPool, ZeroLengthRangeIsNoOp) {
  bool called = false;
  ParallelFor(4, 0, [&](size_t, size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, DedicatedPoolWithZeroWorkersStillChunks) {
  // A pool without workers runs everything on the caller, with the same
  // static partition.
  ThreadPool pool(0);
  std::vector<int> hits(50, 0);
  std::atomic<size_t> chunks{0};
  pool.ParallelFor(50, 4, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
    chunks.fetch_add(1);
  });
  EXPECT_EQ(chunks.load(), 4u);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 50);
}

}  // namespace
}  // namespace sbr::util
