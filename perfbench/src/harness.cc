#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {
namespace {

bool IsBenchSpan(const char* name) {
  for (const char* s : {span::kEncode, span::kDeliver, span::kStationRx,
                        span::kAggregate, span::kPoint, span::kReconstruct}) {
    if (std::strcmp(name, s) == 0) return true;
  }
  return false;
}

bool Named(const sbr::obs::SpanEvent& e, const char* name) {
  return std::strcmp(e.name, name) == 0;
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

LatencyRecorder::LatencyRecorder() : dense_(kDenseNs, 0) {}

void LatencyRecorder::Add(uint64_t ns) {
  if (ns < kDenseNs) {
    ++dense_[ns];
  } else {
    sparse_.push_back(ns);
    sparse_sorted_ = false;
  }
  ++count_;
  total_ns_ += ns;
}

void LatencyRecorder::Merge(const LatencyRecorder& other) {
  for (size_t i = 0; i < kDenseNs; ++i) dense_[i] += other.dense_[i];
  sparse_.insert(sparse_.end(), other.sparse_.begin(), other.sparse_.end());
  sparse_sorted_ = sparse_.empty();
  count_ += other.count_;
  total_ns_ += other.total_ns_;
}

uint64_t LatencyRecorder::KthNs(uint64_t k) const {
  uint64_t seen = 0;
  for (size_t ns = 0; ns < kDenseNs; ++ns) {
    seen += dense_[ns];
    if (seen > k) return ns;
  }
  if (!sparse_sorted_) {
    std::sort(sparse_.begin(), sparse_.end());
    sparse_sorted_ = true;
  }
  return sparse_[k - seen];
}

double LatencyRecorder::QuantileNs(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  const uint64_t lo = static_cast<uint64_t>(std::floor(rank));
  const uint64_t hi = std::min<uint64_t>(lo + 1, count_ - 1);
  const double a = static_cast<double>(KthNs(lo));
  const double b = static_cast<double>(KthNs(hi));
  return a + (b - a) * (rank - std::floor(rank));
}

HostSpeed::HostSpeed() {
  for (uint64_t k = 0; k < 4096; ++k) table_[k] = k;
}

uint64_t HostSpeed::Kernel() {
  constexpr uint64_t kIterations = 60000;
  uint64_t sum = 0;
  for (uint64_t i = 0; i < kIterations; ++i) {
    std::lock_guard<std::mutex> lock(mu_);
    ticks_.fetch_add(1, std::memory_order_relaxed);
    auto it = table_.find((i * 2654435761u) % 4096);
    if (it != table_.end()) sum += it->second;
  }
  return sum;
}

double HostSpeed::Sample() {
  const auto warm = Clock::now();
  // The untimed first run brings the table back into cache after the
  // program's own work, so the timed run does not depend on how much of
  // the cache the program used.
  uint64_t sum = Kernel();
  const auto start = Clock::now();
  sum += Kernel();
  last_ = Clock::now();
  // Keeps the loops observable without printing them.
  ticks_.fetch_add(sum & 1, std::memory_order_relaxed);
  samples_.push_back(static_cast<double>(NsBetween(start, last_)));
  return NsBetween(warm, last_) * 1e-9;
}

double HostSpeed::MaybeSample() {
  return Clock::now() - last_ >= kCadence ? Sample() : 0.0;
}

double HostSpeed::factor(size_t from, size_t to) const {
  if (from >= to) return 1.0;
  return kReferenceNs / Quantile(std::vector<double>(samples_.begin() + from,
                                                     samples_.begin() + to),
                                 0.5);
}

bool Checks::Expect(bool ok, const char* what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what);
  }
  return ok;
}

bool Checks::ExpectOk(const sbr::Status& status, const char* what) {
  if (status.ok()) return Expect(true, what);
  return Expect(false, (std::string(what) + ": " + status.ToString()).c_str());
}

double LayerTrace::Drain() {
  const auto start = Clock::now();
  std::vector<sbr::obs::SpanEvent> events =
      sbr::obs::TraceCollector::Global().Drain();
  for (const sbr::obs::SpanEvent& e : events) {
    if (kept_.size() < kMaxKeptEvents) kept_.push_back(e);
    std::vector<sbr::obs::SpanEvent>& below = pending_[e.tid];
    if (e.depth > 0) {
      // Children complete before their parents, so everything deeper
      // that completed since the last top-level span belongs to the next
      // top-level span on the same thread.
      below.push_back(e);
      continue;
    }
    FoldTop(e, below);
    below.clear();
  }
  return SecondsSince(start);
}

void LayerTrace::FoldTop(const sbr::obs::SpanEvent& top,
                         const std::vector<sbr::obs::SpanEvent>& below) {
  if (IsBenchSpan(top.name)) {
    attributed_ns_ += top.duration_ns;
    spans_[top.name].Add(top.duration_ns);
  }
  if (Named(top, "decode.chunk")) decode_.Add(top.duration_ns);
  const bool encode = Named(top, span::kEncode);
  const bool rx = Named(top, span::kStationRx);
  const sbr::obs::SpanEvent* first_rx_decode = nullptr;
  for (const sbr::obs::SpanEvent& e : below) {
    if (Named(e, "decode.chunk")) {
      decode_.Add(e.duration_ns);
      if (rx && e.depth == top.depth + 1 &&
          (first_rx_decode == nullptr ||
           e.start_ns < first_rx_decode->start_ns)) {
        first_rx_decode = &e;
      }
    }
    if (encode && (Named(e, "encode.get_base") || Named(e, "encode.search") ||
                   Named(e, "encode.approx"))) {
      encode_stage_ns_[e.name] += e.duration_ns;
    }
  }
  if (first_rx_decode != nullptr) {
    rx_station_decode_ns_ += first_rx_decode->duration_ns;
  }
}

const LatencyRecorder& LayerTrace::durations(const std::string& name) const {
  static const LatencyRecorder kEmpty;
  auto it = spans_.find(name);
  return it == spans_.end() ? kEmpty : it->second;
}

uint64_t LayerTrace::encode_stage_ns(const std::string& stage) const {
  auto it = encode_stage_ns_.find(stage);
  return it == encode_stage_ns_.end() ? 0 : it->second;
}

}  // namespace perfbench
