#include "obs/metrics.h"

#include <algorithm>
#include <chrono>

namespace sbr::obs {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Histogram::Sum() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s.sum.load(std::memory_order_relaxed);
  return total;
}

std::vector<uint64_t> Histogram::Buckets() const {
  std::vector<uint64_t> merged(kNumBuckets, 0);
  for (const auto& s : shards_) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      merged[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return merged;
}

void Histogram::Reset() {
  for (auto& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
  }
}

const MetricValue* MetricsSnapshot::Find(std::string_view name) const {
  for (const MetricValue& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

int64_t MetricsSnapshot::ValueOf(std::string_view name) const {
  const MetricValue* m = Find(name);
  return m == nullptr ? 0 : m->value;
}

namespace {

const char* KindName(MetricValue::Kind kind) {
  switch (kind) {
    case MetricValue::Kind::kCounter:
      return "counter";
    case MetricValue::Kind::kGauge:
      return "gauge";
    case MetricValue::Kind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricValue& m : metrics) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + m.name + "\",\"type\":\"" + KindName(m.kind) +
           "\",\"value\":" + std::to_string(m.value) +
           ",\"aux\":" + std::to_string(m.aux);
    if (m.kind == MetricValue::Kind::kHistogram) {
      out += ",\"buckets\":[";
      for (size_t i = 0; i < m.buckets.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(m.buckets[i]);
      }
      out += "]";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string MetricsSnapshot::ToCsv() const {
  std::string out = "name,type,value,aux\n";
  for (const MetricValue& m : metrics) {
    out += m.name;
    out += ",";
    out += KindName(m.kind);
    out += ",";
    out += std::to_string(m.value);
    out += ",";
    out += std::to_string(m.aux);
    out += "\n";
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.metrics.reserve(counters_.size() + gauges_.size() +
                       histograms_.size());
  // std::map iteration keeps each section name-sorted; sections are then
  // merged name-sorted so the snapshot layout is deterministic.
  for (const auto& [name, c] : counters_) {
    MetricValue m;
    m.kind = MetricValue::Kind::kCounter;
    m.name = name;
    m.value = static_cast<int64_t>(c->Value());
    snap.metrics.push_back(std::move(m));
  }
  for (const auto& [name, g] : gauges_) {
    MetricValue m;
    m.kind = MetricValue::Kind::kGauge;
    m.name = name;
    m.value = g->Value();
    m.aux = g->Max();
    snap.metrics.push_back(std::move(m));
  }
  for (const auto& [name, h] : histograms_) {
    MetricValue m;
    m.kind = MetricValue::Kind::kHistogram;
    m.name = name;
    m.value = static_cast<int64_t>(h->Count());
    m.aux = static_cast<int64_t>(h->Sum());
    m.buckets = h->Buckets();
    while (!m.buckets.empty() && m.buckets.back() == 0) {
      m.buckets.pop_back();
    }
    snap.metrics.push_back(std::move(m));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return snap;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ScopedHistTimer::ScopedHistTimer(const char* histogram_name) {
  if (!Enabled()) return;
  hist_ = &MetricsRegistry::Global().GetHistogram(histogram_name);
  start_ns_ = NowNs();
}

ScopedHistTimer::~ScopedHistTimer() {
  if (hist_ == nullptr) return;
  hist_->Record((NowNs() - start_ns_) / 1000);  // microseconds
}

}  // namespace sbr::obs
