// Query-service throughput bench: concurrent readers against published
// epoch snapshots. A weather stream is encoded through SBR and ingested
// into a storage::QueryService; reader fleets of increasing size then
// drive four query mixes against it and the bench reports aggregate
// throughput and per-query latency percentiles. Every timed cell runs a
// warmup pass first so one-time costs (page faults, snapshot pin) stay
// out of the numbers.
//
// The "wide" mix spans >= 64 chunk-aligned chunks per query — the shape
// the hierarchical moment index exists for. A separate head-to-head
// (index on vs the legacy interval scan, identical stream, identical
// queries) records the raw engine speedup as the "wide_speedup" summary
// record in BENCH_query.json; tools/bench_compare.py diffs the file
// against bench/baselines/.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/encoder.h"
#include "datagen/weather.h"
#include "storage/query_service.h"

namespace {

using namespace sbr;

constexpr size_t kChunkLen = 512;
constexpr size_t kChunks = 96;  // the wide mix needs >= 64-chunk spans
constexpr size_t kQueriesPerThread = 8000;
constexpr size_t kWarmupPerThread = 500;
/// Minimum chunk span of a "wide" query.
constexpr size_t kWideSpanChunks = 64;
/// Reconstruction ranges are capped so the scan mix measures the snapshot
/// path, not memcpy of the whole history.
constexpr size_t kMaxScanLen = 2048;
/// Queries per side of the index-vs-scan head-to-head.
constexpr size_t kCompareQueries = 1500;

struct MixResult {
  double seconds = 0.0;
  uint64_t queries = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// One query of mix `mix` against `service`, range geometry drawn from
/// `rng`. Shared by the warmup and the timed pass so they exercise the
/// identical code path.
void RunOne(const storage::QueryService& service, const std::string& mix,
            size_t q, size_t len, size_t num_signals, std::mt19937_64* rng) {
  std::uniform_int_distribution<size_t> pick_t(0, len - 1);
  std::uniform_int_distribution<size_t> pick_s(0, num_signals - 1);
  std::uniform_int_distribution<size_t> pick_c(0, len / kChunkLen - 1);
  size_t a = pick_t(*rng), b = pick_t(*rng);
  if (a > b) std::swap(a, b);
  const size_t sig = pick_s(*rng);
  if (mix == "aggregate") {
    // Chunk-aligned windows — the dashboard pattern (bounded key space,
    // heavy repetition).
    size_t ca = pick_c(*rng), cb = pick_c(*rng);
    if (ca > cb) std::swap(ca, cb);
    (void)service.Aggregate(0, sig, ca * kChunkLen, (cb + 1) * kChunkLen);
  } else if (mix == "wide") {
    // Chunk-aligned spans of >= kWideSpanChunks chunks: interior-heavy
    // aggregates where the moment index does almost all the work.
    std::uniform_int_distribution<size_t> pick_span(kWideSpanChunks,
                                                    kChunks);
    const size_t span = pick_span(*rng);
    std::uniform_int_distribution<size_t> pick_start(0, kChunks - span);
    const size_t start = pick_start(*rng);
    (void)service.Aggregate(0, sig, start * kChunkLen,
                            (start + span) * kChunkLen);
  } else if (mix == "scan") {
    const size_t hi = std::min(b + 1, a + kMaxScanLen);
    (void)service.Reconstruct(0, sig, a, hi);
  } else {
    switch (q % 3) {
      case 0: (void)service.Aggregate(0, sig, a, b + 1); break;
      case 1: (void)service.Point(0, sig, a); break;
      default: {
        const size_t hi = std::min(b + 1, a + kMaxScanLen);
        (void)service.Reconstruct(0, sig, a, hi);
        break;
      }
    }
  }
}

/// Runs `threads` readers of one mix against the service: a warmup pass
/// per worker, then `kQueriesPerThread` timed queries each with per-query
/// latency capture. `mix` is "aggregate" (chunk-aligned dashboard
/// aggregates), "wide" (>= 64-chunk index-heavy aggregates), "mixed"
/// (aggregate/point/reconstruct round-robin) or "scan" (pure range
/// reconstruction).
MixResult RunMix(const storage::QueryService& service, const std::string& mix,
                 size_t threads, size_t len, size_t num_signals) {
  std::vector<std::vector<double>> latencies(threads);
  // Warmup: untimed, uncounted; drains cold-start effects the way a
  // long-lived service would have.
  {
    std::vector<std::thread> workers;
    for (size_t w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        std::mt19937_64 rng(77 + w);
        for (size_t q = 0; q < kWarmupPerThread; ++q) {
          RunOne(service, mix, q, len, num_signals, &rng);
        }
      });
    }
    for (auto& t : workers) t.join();
  }

  const storage::QueryServiceCounters before = service.counters();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const auto start = std::chrono::steady_clock::now();
  for (size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      std::mt19937_64 rng(1234 + w);
      std::vector<double>& lat = latencies[w];
      lat.reserve(kQueriesPerThread);
      for (size_t q = 0; q < kQueriesPerThread; ++q) {
        const auto t0 = std::chrono::steady_clock::now();
        RunOne(service, mix, q, len, num_signals, &rng);
        const auto t1 = std::chrono::steady_clock::now();
        lat.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
    });
  }
  for (auto& t : workers) t.join();
  const auto end = std::chrono::steady_clock::now();
  const storage::QueryServiceCounters after = service.counters();

  MixResult r;
  r.seconds = std::chrono::duration<double>(end - start).count();
  r.queries = after.queries - before.queries;

  std::vector<double> all;
  all.reserve(threads * kQueriesPerThread);
  for (const auto& lat : latencies) all.insert(all.end(), lat.begin(),
                                               lat.end());
  if (!all.empty()) {
    const auto pct = [&](double p) {
      const size_t idx = std::min(
          all.size() - 1, static_cast<size_t>(p * (all.size() - 1)));
      std::nth_element(all.begin(), all.begin() + idx, all.end());
      return all[idx];
    };
    r.p50_us = pct(0.50);
    r.p99_us = pct(0.99);
  }
  return r;
}

void WriteRecord(FILE* json, bool* first, const char* mix, size_t threads,
                 const MixResult& r, double qps) {
  if (json == nullptr) return;
  std::fprintf(json,
               "%s  {\"mix\": \"%s\", \"threads\": %zu, "
               "\"queries\": %llu, \"seconds\": %.6f, \"qps\": %.1f, "
               "\"p50_us\": %.3f, \"p99_us\": %.3f}",
               *first ? "" : ",\n", mix, threads,
               static_cast<unsigned long long>(r.queries), r.seconds, qps,
               r.p50_us, r.p99_us);
  *first = false;
}

}  // namespace

int main() {
  using namespace sbr;
  std::printf("== Query service: reader throughput vs thread count ==\n");

  datagen::WeatherOptions wopts;
  wopts.length = kChunks * kChunkLen;
  wopts.seed = 7;
  const datagen::Dataset feed = datagen::GenerateWeather(wopts);
  const size_t num_signals = feed.num_signals();
  const size_t n = num_signals * kChunkLen;

  core::EncoderOptions eopts;
  eopts.total_band = n / 10;
  eopts.m_base = 1024;
  core::SbrEncoder encoder(eopts);

  // One encoded stream feeds two services: the default (moment-indexed)
  // service, which runs the throughput table, and a legacy interval-scan
  // one for the raw index-vs-scan engine comparison.
  storage::QueryServiceOptions sopts;
  sopts.m_base = eopts.m_base;
  storage::QueryService service(sopts);

  storage::QueryServiceOptions scan_opts = sopts;
  scan_opts.index.enabled = false;
  storage::QueryService service_scan(scan_opts);

  std::vector<double> chunk(n);
  for (size_t c = 0; c < kChunks; ++c) {
    for (size_t s = 0; s < num_signals; ++s) {
      for (size_t k = 0; k < kChunkLen; ++k) {
        chunk[s * kChunkLen + k] = feed.values(s, c * kChunkLen + k);
      }
    }
    auto t = encoder.EncodeChunk(chunk, num_signals);
    if (!t.ok()) {
      std::fprintf(stderr, "encode failed: %s\n",
                   t.status().ToString().c_str());
      return 1;
    }
    for (storage::QueryService* svc : {&service, &service_scan}) {
      if (auto st = svc->Ingest(0, *t); !st.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
  }
  const size_t len = kChunks * kChunkLen;
  std::printf("history: %zu samples x %zu signals, epoch %llu\n\n", len,
              num_signals,
              static_cast<unsigned long long>(service.epoch(0)));

  FILE* json = std::fopen("BENCH_query.json", "w");
  if (json != nullptr) std::fprintf(json, "[\n");
  bool first_record = true;

  std::printf("%-10s %-8s %-10s %-10s %-10s %-10s %-10s\n", "mix",
              "threads", "queries", "seconds", "qps", "p50_us", "p99_us");
  for (const char* mix : {"aggregate", "wide", "mixed", "scan"}) {
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      const MixResult r = RunMix(service, mix, threads, len, num_signals);
      const double qps =
          r.seconds > 0 ? static_cast<double>(r.queries) / r.seconds : 0.0;
      std::printf("%-10s %-8zu %-10llu %-10.4f %-10.0f %-10.3f %-10.3f\n",
                  mix, threads, static_cast<unsigned long long>(r.queries),
                  r.seconds, qps, r.p50_us, r.p99_us);
      std::fflush(stdout);
      WriteRecord(json, &first_record, mix, threads, r, qps);
    }
  }

  // Raw engine head-to-head: identical wide queries, moment index on vs
  // the legacy interval scan. This is the number the index exists for;
  // the acceptance bar is >= 5x.
  std::printf("\n== Wide-range engine comparison (1 thread) ==\n");
  const auto run_compare = [&](const storage::QueryService& svc) {
    std::mt19937_64 rng(4096);
    std::uniform_int_distribution<size_t> pick_s(0, num_signals - 1);
    std::uniform_int_distribution<size_t> pick_span(kWideSpanChunks,
                                                    kChunks);
    // Untimed warmup sweep.
    for (size_t q = 0; q < 50; ++q) {
      (void)svc.Aggregate(0, pick_s(rng), 0, len);
    }
    const auto start = std::chrono::steady_clock::now();
    for (size_t q = 0; q < kCompareQueries; ++q) {
      const size_t span = pick_span(rng);
      std::uniform_int_distribution<size_t> pick_start(0, kChunks - span);
      const size_t start_c = pick_start(rng);
      (void)svc.Aggregate(0, pick_s(rng), start_c * kChunkLen,
                          (start_c + span) * kChunkLen);
    }
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - start).count();
  };
  const double sec_indexed = run_compare(service);
  const double sec_scan = run_compare(service_scan);
  const double qps_indexed =
      sec_indexed > 0 ? kCompareQueries / sec_indexed : 0.0;
  const double qps_scan = sec_scan > 0 ? kCompareQueries / sec_scan : 0.0;
  const double speedup = qps_scan > 0 ? qps_indexed / qps_scan : 0.0;
  std::printf("index on : %8.0f qps (%.4f s)\n", qps_indexed, sec_indexed);
  std::printf("index off: %8.0f qps (%.4f s)\n", qps_scan, sec_scan);
  std::printf("speedup  : %.1fx\n", speedup);
  if (json != nullptr) {
    std::fprintf(json,
                 "%s  {\"mix\": \"wide_indexed\", \"threads\": 1, "
                 "\"queries\": %zu, \"seconds\": %.6f, \"qps\": %.1f}",
                 first_record ? "" : ",\n", kCompareQueries, sec_indexed,
                 qps_indexed);
    first_record = false;
    std::fprintf(json,
                 ",\n  {\"mix\": \"wide_scan\", \"threads\": 1, "
                 "\"queries\": %zu, \"seconds\": %.6f, \"qps\": %.1f}",
                 kCompareQueries, sec_scan, qps_scan);
    std::fprintf(json,
                 ",\n  {\"mix\": \"wide_speedup\", \"threads\": 1, "
                 "\"speedup\": %.2f}",
                 speedup);
  }

  if (json != nullptr) {
    std::fprintf(json, "\n]\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_query.json\n");
  }
  return 0;
}
