// Shared machinery of the pipeline benchmark: timing and percentile
// helpers, the correctness ledger, the workload interface the runner
// drives, and the fold that turns drained obs::TraceCollector events into
// per-layer timings.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline uint64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Bytes currently allocated through global operator new (heap_hook.cc).
/// Exact and repeatable while the process is single-threaded.
int64_t LiveHeapBytes();

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Lossless recorder of nanosecond durations: one counter per nanosecond
/// up to 100 us (where nearly every query and frame lands) plus a plain
/// list above it, so millions of samples cost a fixed 400 KB and the
/// quantiles are exact order statistics.
class LatencyRecorder {
 public:
  LatencyRecorder();
  void Add(uint64_t ns);
  void Merge(const LatencyRecorder& other);
  uint64_t count() const { return count_; }
  uint64_t total_ns() const { return total_ns_; }
  /// Linear-interpolation quantile in nanoseconds; 0 when empty.
  double QuantileNs(double q) const;

 private:
  static constexpr size_t kDenseNs = 100000;
  uint64_t KthNs(uint64_t k) const;  ///< k-th smallest sample (0-based)

  std::vector<uint32_t> dense_;
  mutable std::vector<uint64_t> sparse_;
  mutable bool sparse_sorted_ = true;
  uint64_t count_ = 0;
  uint64_t total_ns_ = 0;
};

/// Host-speed reference. On a shared 4-vCPU VM, timings drift by +-20%
/// over minutes (neighbours contending for the core, not clock frequency:
/// a dependent floating-point chain varies a third as much), and every
/// pipeline layer slows together. A fixed benchmark-owned kernel of
/// the operations the hot paths are made of — mutex hand-offs, atomic
/// increments, hash-table lookups — slows with them, so timings are
/// reported at reference speed: measured time x kReferenceNs / (median
/// kernel time over the samples taken while that time was measured).
/// Samples run between slices of the program's work, so the program could
/// move the kernel through the cache it leaves behind; each sample
/// therefore runs the kernel once untimed first. host_speed_ab.cc checks
/// that a program with a far larger working set moves the factor by under
/// 1%, against up to 8% without the untimed run.
class HostSpeed {
 public:
  HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Runs the kernel twice (about 1 ms each) and records the duration of
  /// the second, warm run; returns the seconds both took.
  double Sample();
  /// Samples when at least kCadence has passed since the last sample.
  double MaybeSample();
  /// Index of the next sample, to delimit the samples of one phase.
  size_t mark() const { return samples_.size(); }
  /// Duration of sample `i`'s timed kernel run, in nanoseconds.
  double sample_ns(size_t i) const { return samples_[i]; }
  /// Multiplies a duration measured while samples [from, to) were taken
  /// into reference-speed time (1 when there are none).
  double factor(size_t from, size_t to) const;

 private:
  /// Kernel time on the reference host (4-vCPU x86-64 VM, 2.1 GHz).
  static constexpr double kReferenceNs = 1.1e6;
  static constexpr auto kCadence = std::chrono::milliseconds(20);

  /// One run of the kernel; returns a checksum.
  uint64_t Kernel();

  std::mutex mu_;
  std::atomic<uint64_t> ticks_{0};
  std::unordered_map<uint64_t, uint64_t> table_;
  std::vector<double> samples_;
  Clock::time_point last_;
};

/// Correctness ledger. Every checked operation is one attempt; a failed
/// check is reported on stderr and counted. Any failure makes the run
/// incorrect and the command exit non-zero.
class Checks {
 public:
  /// Counts one attempt; returns `ok` and records a failure when false.
  bool Expect(bool ok, const char* what);
  /// Counts one attempt that must have returned OK.
  bool ExpectOk(const sbr::Status& status, const char* what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Exact metrics of one pass: integer counts or ratios of them, which
/// must repeat bit for bit for a given seed, traced or not.
using ExactMetrics = std::map<std::string, double>;

class LayerTrace;

/// What one pass of a workload measured.
struct PassResult {
  /// Wall time of the timed phase of the pass, trace drains excluded.
  double seconds = 0.0;
  /// Raw sensor values that became queryable during the timed phase.
  double visible_values = 0.0;
  /// Data frames the station ingested (decodes-per-frame denominator).
  uint64_t ingested_frames = 0;
  /// Freshness samples, one per chunk that became queryable.
  LatencyRecorder visible;
  /// Analyst query latencies.
  LatencyRecorder query;
  /// Filled only when the pass was asked for them.
  ExactMetrics exact;
};

struct PassOptions {
  /// Compute the pass's exact metrics (an extra, untimed scoring step).
  bool exact = false;
  /// Runner work due between slices of a pass (draining trace events,
  /// sampling host speed). Workloads call it at slice boundaries and
  /// exclude the seconds it returns from their timed phase.
  std::function<double()> between = [] { return 0.0; };
};

struct RecoveryResult {
  double recovery_s = 0.0;  ///< median of open + replay
  double log_open_s = 0.0;  ///< median of ChunkLog::Open over all sensors
  double replay_s = 0.0;    ///< median of storage::ReplayLog over all sensors
};

/// One benchmark workload. The runner calls Setup `setup_repeats()` times
/// (reporting the median as setup_s), then RunPass repeatedly for the
/// timed phase, then Verify and MeasureRecovery.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual size_t setup_repeats() const = 0;
  virtual sbr::Status Setup(uint64_t seed) = 0;
  virtual sbr::Status RunPass(const PassOptions& options, PassResult* out,
                              Checks* checks) = 0;
  /// Workload-specific oracles (outside every timed phase).
  virtual sbr::Status Verify(Checks* checks) = 0;
  /// Times the station restart, sampling `speed` around every repeat.
  virtual sbr::Status MeasureRecovery(HostSpeed* speed, RecoveryResult* out,
                                      Checks* checks) = 0;
};

/// The three workloads; `work_dir` holds their durable logs.
std::unique_ptr<Workload> MakeWeatherField(const std::string& work_dir);
std::unique_ptr<Workload> MakeStationIngest(const std::string& work_dir);
std::unique_ptr<Workload> MakeHistoryQuery(const std::string& work_dir);

/// Names of the benchmark's own spans, one per public call it wraps. The
/// program's spans (encode.*, decode.chunk) nest under them.
namespace span {
inline constexpr const char* kEncode = "core.encode";
inline constexpr const char* kDeliver = "net.deliver";
inline constexpr const char* kStationRx = "net.station_rx";
inline constexpr const char* kAggregate = "storage.aggregate";
inline constexpr const char* kPoint = "storage.point";
inline constexpr const char* kReconstruct = "storage.reconstruct";
}  // namespace span

/// Folds drained span events into per-layer totals. Self time of a span
/// is its duration minus the time its direct children cover.
class LayerTrace {
 public:
  /// Drains the global collector into the fold; returns the seconds the
  /// drain itself took, which the caller excludes from its timed phase.
  double Drain();

  /// Durations of one of the benchmark's span names.
  const LatencyRecorder& durations(const std::string& name) const;
  /// Summed durations of the benchmark's top-level spans.
  uint64_t attributed_ns() const { return attributed_ns_; }
  /// Every decode.chunk span of the traced phase.
  const LatencyRecorder& decode() const { return decode_; }
  /// Encode stage time under core.encode, by stage span name.
  uint64_t encode_stage_ns(const std::string& stage) const;
  /// Time of the first decode.chunk directly under each net.station_rx
  /// (the station's own history decode; the second one runs inside the
  /// query service's publish).
  uint64_t rx_station_decode_ns() const { return rx_station_decode_ns_; }
  /// The first drained events, kept for the trace file.
  const std::vector<sbr::obs::SpanEvent>& kept() const { return kept_; }

 private:
  void FoldTop(const sbr::obs::SpanEvent& top,
               const std::vector<sbr::obs::SpanEvent>& below);

  static constexpr size_t kMaxKeptEvents = 20000;

  std::map<std::string, LatencyRecorder> spans_;
  LatencyRecorder decode_;
  std::map<std::string, uint64_t> encode_stage_ns_;
  uint64_t attributed_ns_ = 0;
  uint64_t rx_station_decode_ns_ = 0;
  std::vector<sbr::obs::SpanEvent> kept_;
  /// Descendants seen since the last top-level span, per thread id.
  std::map<uint32_t, std::vector<sbr::obs::SpanEvent>> pending_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
