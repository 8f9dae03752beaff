// Metrics registry: counters, gauges and fixed-bucket histograms behind a
// name-keyed registry. The write path is lock-free — counters and
// histograms shard their cells per thread (a stable thread index modulo
// kMaxShards) and writers touch only their own cache-line-padded shard
// with relaxed atomics; readers merge the shards on demand
// (merge-on-read), so a snapshot taken mid-run is a sum of per-shard
// values each of which is individually consistent.
//
// Registration (GetCounter / GetGauge / GetHistogram) takes a mutex and
// is expected to happen once per call site — hot paths cache the returned
// reference in a function-local static via the SBR_OBS_* macros below.
#ifndef SBR_OBS_METRICS_H_
#define SBR_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.h"

namespace sbr::obs {

/// Shard count: writers land on shard (thread-registration-order %
/// kMaxShards). Collisions between threads are correct (atomics), merely
/// contended; 16 covers the recording threads the system runs — the
/// ingest thread plus the QueryService reader threads.
inline constexpr size_t kMaxShards = 16;

namespace internal {

inline std::atomic<size_t> g_shard_counter{0};

/// Stable per-thread shard index, assigned on a thread's first write.
inline size_t ThisThreadShard() {
  thread_local const size_t idx =
      g_shard_counter.fetch_add(1, std::memory_order_relaxed) % kMaxShards;
  return idx;
}

struct alignas(64) U64Cell {
  std::atomic<uint64_t> v{0};
};

}  // namespace internal

/// Monotone event counter.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    shards_[internal::ThisThreadShard()].v.fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Merge-on-read: the sum over every thread shard.
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void Reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  internal::U64Cell shards_[kMaxShards];
};

/// Point-in-time level (queue depth, buffer occupancy). A single atomic —
/// gauges are set, not accumulated, so sharding would lose the semantics.
/// Tracks the maximum level ever set alongside the current value.
class Gauge {
 public:
  void Set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    int64_t prev = max_.load(std::memory_order_relaxed);
    while (v > prev &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }
  void Add(int64_t delta) {
    Set(value_.load(std::memory_order_relaxed) + delta);
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  int64_t Max() const { return max_.load(std::memory_order_relaxed); }

  void Reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

/// Fixed power-of-two buckets: bucket 0 holds the value 0, bucket i >= 1
/// holds [2^(i-1), 2^i). One layout serves both latency (ns/us) and size
/// (bytes/values) distributions; kNumBuckets covers up to 2^46 (~20 hours
/// in microseconds, ~64 TiB in bytes).
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 48;

  static size_t BucketIndex(uint64_t value) {
    const size_t w = static_cast<size_t>(std::bit_width(value));
    return w < kNumBuckets ? w : kNumBuckets - 1;
  }
  /// Inclusive lower bound of bucket `i` (0, 1, 2, 4, 8, ...).
  static uint64_t BucketLowerBound(size_t i) {
    return i == 0 ? 0 : uint64_t{1} << (i - 1);
  }

  void Record(uint64_t value) {
    Shard& s = shards_[internal::ThisThreadShard()];
    s.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
  }

  uint64_t Count() const;
  uint64_t Sum() const;
  /// Merged bucket populations (size kNumBuckets).
  std::vector<uint64_t> Buckets() const;

  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[kNumBuckets] = {};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
  };
  Shard shards_[kMaxShards];
};

/// One merged metric in a snapshot.
struct MetricValue {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  /// Counter value, gauge current value, or histogram observation count.
  int64_t value = 0;
  /// Gauge max, or histogram sum; 0 for counters.
  int64_t aux = 0;
  /// Histogram buckets with trailing zero buckets trimmed; empty otherwise.
  std::vector<uint64_t> buckets;
};

/// A merged, name-sorted view of the registry at one instant.
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;

  /// nullptr when the name is absent.
  const MetricValue* Find(std::string_view name) const;
  /// Counter/gauge value (histogram count) by name; 0 when absent.
  int64_t ValueOf(std::string_view name) const;

  /// {"metrics":[{"name":...,"type":"counter","value":N}, ...]}
  std::string ToJson() const;
  /// Header "name,type,value,aux" + one row per metric.
  std::string ToCsv() const;
};

class MetricsRegistry {
 public:
  /// The process-wide registry every instrumentation macro records into.
  static MetricsRegistry& Global();

  /// Finds or creates. The returned reference is stable for the registry's
  /// lifetime (hot paths cache it in a function-local static).
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (registration survives; references
  /// stay valid). Tests isolate themselves with this.
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Records elapsed microseconds into a histogram on destruction; inert
/// when the runtime gate is off at construction. The gate is checked
/// inline, so an inert timer costs a load and a branch at each end.
class ScopedHistTimer {
 public:
  explicit ScopedHistTimer(const char* histogram_name) {
    if (Enabled()) Start(histogram_name);
  }
  ~ScopedHistTimer() {
    if (hist_ != nullptr) Stop();
  }
  ScopedHistTimer(const ScopedHistTimer&) = delete;
  ScopedHistTimer& operator=(const ScopedHistTimer&) = delete;

 private:
  void Start(const char* histogram_name);
  void Stop();

  Histogram* hist_ = nullptr;
  uint64_t start_ns_ = 0;
};

}  // namespace sbr::obs

// ------------------------------------------------- instrumentation macros
// Every hot-path site goes through these: a relaxed load + branch when
// disabled at runtime, and a cached-reference shard write when enabled.
// The `name` must be a literal (each site caches its metric in a
// function-local static).

#define SBR_OBS_COUNT(name, delta)                                       \
  do {                                                                   \
    if (::sbr::obs::Enabled()) {                                         \
      static ::sbr::obs::Counter& sbr_obs_counter_ =                     \
          ::sbr::obs::MetricsRegistry::Global().GetCounter(name);        \
      sbr_obs_counter_.Add(delta);                                       \
    }                                                                    \
  } while (0)

#define SBR_OBS_GAUGE_SET(name, value)                                   \
  do {                                                                   \
    if (::sbr::obs::Enabled()) {                                         \
      static ::sbr::obs::Gauge& sbr_obs_gauge_ =                         \
          ::sbr::obs::MetricsRegistry::Global().GetGauge(name);          \
      sbr_obs_gauge_.Set(value);                                         \
    }                                                                    \
  } while (0)

#define SBR_OBS_HIST(name, value)                                        \
  do {                                                                   \
    if (::sbr::obs::Enabled()) {                                         \
      static ::sbr::obs::Histogram& sbr_obs_hist_ =                      \
          ::sbr::obs::MetricsRegistry::Global().GetHistogram(name);      \
      sbr_obs_hist_.Record(value);                                       \
    }                                                                    \
  } while (0)

#define SBR_OBS_TIMER(var, name) ::sbr::obs::ScopedHistTimer var(name)

#endif  // SBR_OBS_METRICS_H_
