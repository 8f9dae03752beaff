// Kernel microbenchmarks (google-benchmark): the throughput of every hot
// path in the pipeline. The paper reports ~1,000 items/second end-to-end
// on a 300 MHz StrongARM-class host; these numbers calibrate the modern-
// host equivalent and expose the relative costs of the stages.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <new>
#include <span>
#include <string>
#include <vector>
#if defined(__unix__)
#include <unistd.h>
#endif

#include "compress/wavelet.h"
#include "core/best_map.h"
#include "core/encoder.h"
#include "core/get_base.h"
#include "core/get_intervals.h"
#include "core/regression.h"
#include "core/search.h"
#include "core/workspace.h"
#include "datagen/dataset.h"
#include "datagen/weather.h"
#include "linalg/dct.h"
#include "net/base_station.h"
#include "obs/obs.h"
#include "storage/query_service.h"
#include "util/crc32.h"
#include "util/prefix_sums.h"
#include "util/rng.h"

namespace alloc_count {
// Process-wide heap counters fed by the replacement global allocator
// below; BM_BestMapWorkspace reads them around each encode to report
// allocations per encode with and without workspace reuse.
std::atomic<uint64_t> count{0};
std::atomic<uint64_t> bytes{0};
}  // namespace alloc_count

// Replacement global allocator: two relaxed increments per allocation,
// noise for the other rows (which time O(n) kernels, not the allocator).
// The nothrow / array / sized-delete forms forward here per the standard's
// default definitions; the aligned forms are replaced explicitly.
//
// GCC flags free() in the replaced deletes as mismatched because it cannot
// see that the replaced news above are malloc-backed — a false positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  alloc_count::count.fetch_add(1, std::memory_order_relaxed);
  alloc_count::bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  alloc_count::count.fetch_add(1, std::memory_order_relaxed);
  alloc_count::bytes.fetch_add(size, std::memory_order_relaxed);
  const std::size_t a =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace {

using namespace sbr;
using namespace sbr::core;

std::vector<double> RandomSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    y[i] = std::sin(i * 0.17) * 3 + rng.Gaussian(0, 0.5);
  }
  return y;
}

void BM_FitSse(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const auto x = RandomSeries(len, 1);
  const auto y = RandomSeries(len, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitSse(x, y));
  }
  state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(BM_FitSse)->Arg(64)->Arg(256)->Arg(1024);

void BM_FitSseRelative(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const auto x = RandomSeries(len, 3);
  const auto y = RandomSeries(len, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitSseRelative(x, y, 1.0));
  }
  state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(BM_FitSseRelative)->Arg(256);

void BM_FitMaxAbs(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const auto x = RandomSeries(len, 5);
  const auto y = RandomSeries(len, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitMaxAbs(x, y));
  }
  state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(BM_FitMaxAbs)->Arg(256);

void BM_BestMap(benchmark::State& state) {
  const size_t base_len = static_cast<size_t>(state.range(0));
  const auto x = RandomSeries(base_len, 7);
  const auto y = RandomSeries(512, 8);
  BestMapOptions opts;
  for (auto _ : state) {
    Interval iv;
    iv.start = 128;
    iv.length = 64;
    BestMap(x, y, /*w=*/64, opts, &iv);
    benchmark::DoNotOptimize(iv);
  }
  state.SetItemsProcessed(state.iterations() * base_len);
}
BENCHMARK(BM_BestMap)->Arg(512)->Arg(2048);

void BM_ShiftScanKernel(benchmark::State& state) {
  // The SSE shift scan's block kernel — the instance this host dispatches
  // to — on the Table-2 weather scan mix. Per chunk (N=6, M=4096,
  // M_base=3456, 10% band) the memoized scans evaluate this many new
  // shifts at each interval length (GetIntervals halves intervals, so the
  // lengths are powers of two; counted over the 48 chunks of perfbench
  // weather_field seed 1, 24 sensors x 2, and divided by 48). One
  // iteration runs one chunk's scan work, about 8.5e7 multiply-adds;
  // items/s is multiply-adds per second.
  struct MixRow {
    size_t len;
    size_t shifts;
  };
  constexpr MixRow kMix[] = {{2, 30547},    {4, 94388},    {8, 149065},
                             {16, 177491},  {32, 188968},  {64, 222520},
                             {128, 215343}, {256, 125970}};
  datagen::WeatherOptions wopts;
  wopts.length = 3456;
  const datagen::Dataset ds = datagen::GenerateWeather(wopts);
  const auto x = ds.Signal(0);
  const auto y = ds.Signal(1);
  const PrefixSums prefix(x);
  const ShiftBlockKernel kernel = SelectShiftBlockKernel();

  std::vector<SseShiftScan> scans;
  size_t madds = 0;
  for (const MixRow& row : kMix) {
    SseShiftScan scan;
    scan.x = x.data();
    scan.y = y.data();
    scan.len = row.len;
    scan.prefix = &prefix;
    for (size_t i = 0; i < row.len; ++i) {
      scan.sum_y += y[i];
      scan.sum_y2 += y[i] * y[i];
    }
    scans.push_back(scan);
    madds += (row.shifts + kShiftBlock - 1) / kShiftBlock * kShiftBlock *
             row.len;
  }
  double err[kShiftBlock];
  for (auto _ : state) {
    for (size_t r = 0; r < scans.size(); ++r) {
      // Block starts cycle over the whole base, as the scans' ranges do.
      const size_t starts = x.size() - kMix[r].len + 2 - kShiftBlock;
      size_t shift = 0;
      for (size_t done = 0; done < kMix[r].shifts; done += kShiftBlock) {
        kernel(scans[r], shift, err);
        benchmark::DoNotOptimize(err);
        shift += kShiftBlock;
        if (shift >= starts) shift = 0;
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * madds));
  state.SetLabel(kernel == FitShiftBlockBaseline ? "baseline" : "avx2");
}
BENCHMARK(BM_ShiftScanKernel);

void BM_GetIntervals(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = RandomSeries(1024, 9);
  const auto y = RandomSeries(n, 10);
  GetIntervalsOptions opts;
  const size_t w = static_cast<size_t>(std::sqrt(static_cast<double>(n)));
  for (auto _ : state) {
    auto r = GetIntervals(x, y, /*num_signals=*/4, n / 10, w, opts);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GetIntervals)->Arg(4096)->Arg(16384);

void BM_GetBase(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto y = RandomSeries(n, 11);
  const size_t w = static_cast<size_t>(std::sqrt(static_cast<double>(n)));
  GetBaseOptions opts;
  for (auto _ : state) {
    auto r = GetBase(y, /*num_signals=*/4, w, /*max_ins=*/8, opts);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GetBase)->Arg(4096)->Arg(16384);

void BM_GetBaseLowMem(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto y = RandomSeries(n, 12);
  const size_t w = static_cast<size_t>(std::sqrt(static_cast<double>(n)));
  GetBaseOptions opts;
  for (auto _ : state) {
    auto r = GetBaseLowMem(y, /*num_signals=*/4, w, /*max_ins=*/8, opts);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GetBaseLowMem)->Arg(4096);

void BM_EncodeChunk(benchmark::State& state) {
  // One whole chunk encode (GetBase matrix + search probes + BestMap
  // scans) on the calling thread.
  const size_t n = 16384;
  const auto y = RandomSeries(n, 15);
  for (auto _ : state) {
    EncoderOptions opts;
    opts.total_band = n / 10;
    opts.m_base = 1024;
    SbrEncoder enc(opts);
    auto t = enc.EncodeChunk(y, /*num_signals=*/4);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EncodeChunk)->UseRealTime();

void BM_BestMapWorkspace(benchmark::State& state) {
  // Per-encode heap-allocation accounting on a scaled-down Table-2 weather
  // workload (N=6, M=1024, 10% ratio), before (arg 0: workspace pointers
  // left null, i.e. the pre-refactor per-call allocations preserved by the
  // legacy path) and after (arg 1: one persistent EncodeWorkspace) the
  // workspace refactor. One "encode" = the insert-count search plus the
  // final approximation — the stages the workspace serves. The emitted
  // intervals are bitwise identical either way; only allocator traffic
  // moves, reported by the allocs/encode and KB/encode counters.
  const bool reuse = state.range(0) != 0;
  datagen::WeatherOptions wopts;
  wopts.length = 1024;
  const datagen::Dataset ds = datagen::GenerateWeather(wopts);
  const std::vector<double> y = datagen::ConcatRows(ds.values);
  const std::vector<size_t> lengths(ds.num_signals(), ds.length());
  const size_t n = y.size();
  const size_t w = static_cast<size_t>(std::sqrt(static_cast<double>(n)));
  const size_t band = n / 10;

  GetIntervalsOptions gi;
  gi.values_per_interval = 4;

  // Candidate construction is hoisted out of the measurement: GetBase
  // allocates the same either way and the workspace targets the
  // search/approximate stages.
  const auto candidates =
      GetBaseMultiRate(y, lengths, w, /*max_ins=*/band / w, GetBaseOptions{});
  std::vector<double> full_base;
  for (const auto& c : candidates) {
    full_base.insert(full_base.end(), c.values.begin(), c.values.end());
  }

  EncodeWorkspace ws;
  uint64_t allocs = 0;
  uint64_t bytes = 0;
  for (auto _ : state) {
    const uint64_t c0 = alloc_count::count.load(std::memory_order_relaxed);
    const uint64_t b0 = alloc_count::bytes.load(std::memory_order_relaxed);

    if (reuse) ws.BeginChunk();
    gi.best_map.workspace = reuse ? &ws : nullptr;
    SearchContext ctx;
    ctx.current_base = {};
    ctx.candidates = &candidates;
    ctx.y = y;
    ctx.row_lengths = lengths;
    ctx.w = w;
    ctx.total_band = band;
    ctx.get_intervals = gi;
    ctx.workspace = reuse ? &ws : nullptr;
    const SearchResult sr = SearchInsertCount(ctx);

    const std::span<const double> base(full_base.data(), sr.ins * w);
    if (reuse) ws.SetBase(base);
    auto r = GetIntervalsMultiRate(base, y, lengths,
                                   band - sr.ins * (w + 1), w, gi);
    benchmark::DoNotOptimize(r);

    allocs += alloc_count::count.load(std::memory_order_relaxed) - c0;
    bytes += alloc_count::bytes.load(std::memory_order_relaxed) - b0;
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["allocs/encode"] =
      benchmark::Counter(static_cast<double>(allocs) / iters);
  state.counters["KB/encode"] =
      benchmark::Counter(static_cast<double>(bytes) / iters / 1024.0);
  state.SetLabel(reuse ? "workspace" : "baseline");
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BestMapWorkspace)->Arg(0)->Arg(1);

void BM_EncodeWeatherObs(benchmark::State& state) {
  // Observability overhead on the Table-2 weather encode path. Arg 0 runs
  // with the runtime gate off (each instrumentation site costs one relaxed
  // load + branch), arg 1 with the full metric/span recording on; their
  // ratio is the enabled-vs-disabled cost. The sites are always compiled
  // in: paired runs against a build with them compiled out read a median
  // ratio of 1.02, within noise (TESTING.md §5).
  const bool enabled = state.range(0) != 0;
  datagen::WeatherOptions wopts;
  wopts.length = 1024;
  const datagen::Dataset ds = datagen::GenerateWeather(wopts);
  const std::vector<double> y = datagen::ConcatRows(ds.values);
  const size_t n = y.size();

  sbr::obs::SetEnabled(enabled);
  for (auto _ : state) {
    EncoderOptions opts;
    opts.total_band = n / 10;
    opts.m_base = 1024;
    SbrEncoder enc(opts);
    auto t = enc.EncodeChunk(y, ds.num_signals());
    benchmark::DoNotOptimize(t);
  }
  sbr::obs::SetEnabled(false);
  state.SetLabel(enabled ? "obs-enabled" : "obs-disabled");
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EncodeWeatherObs)->Arg(0)->Arg(1);

// Station-ingest geometry (N=6 weather signals, M=128, M_base=256,
// TotalBand 76): enough chunks for the longest pre-ingested history plus
// the timed ingests. The base signal is frozen after a short warm-up
// (the Section 4.4 shortcut), so no timed chunk carries base updates and
// every one allocates alike, whatever the history length before it.
constexpr size_t kPublishChunkLen = 128;
constexpr size_t kPublishMBase = 256;
constexpr int64_t kPublishIngests = 32;

const std::vector<Transmission>& PublishStream() {
  static const std::vector<Transmission> stream = [] {
    constexpr size_t kChunks = 4096 + kPublishIngests;
    datagen::WeatherOptions wopts;
    wopts.length = kChunks * kPublishChunkLen;
    wopts.seed = 3;
    const datagen::Dataset ds = datagen::GenerateWeather(wopts);
    const size_t signals = ds.num_signals();
    EncoderOptions opts;
    opts.total_band = 76;
    opts.m_base = kPublishMBase;
    SbrEncoder enc(opts);
    std::vector<Transmission> out;
    std::vector<double> y(signals * kPublishChunkLen);
    for (size_t c = 0; c < kChunks; ++c) {
      if (c == 4) enc.set_update_base(false);
      for (size_t s = 0; s < signals; ++s) {
        for (size_t k = 0; k < kPublishChunkLen; ++k) {
          y[s * kPublishChunkLen + k] = ds.values(s, c * kPublishChunkLen + k);
        }
      }
      out.push_back(std::move(enc.EncodeChunk(y, signals)).value());
    }
    return out;
  }();
  return stream;
}

void BM_QueryServicePublish(benchmark::State& state) {
  // Cost of one QueryService::Ingest — decode, compressed ingest, epoch
  // publish and release of the previous epoch — after `n` chunks of
  // history, built untimed. A fixed 32 ingests keep the history within
  // [n, n + 32) and, at every n here, away from the shared logs' block
  // and directory boundaries other than one node-log block each, so
  // allocs/publish is comparable across n. Run the rows with
  // --benchmark_enable_random_interleaving=true: host speed drifts on a
  // shared machine, and interleaving spreads the drift over every n.
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<Transmission>& stream = PublishStream();
#if defined(__GLIBC__)
  // A station's heap only grows, but each repetition here frees a whole
  // history. Keep glibc from handing those pages back to the kernel, or
  // long rows' timed ingests first-touch fresh pages (about one minor
  // fault per ingest at 4096 chunks) while short rows reuse warm ones.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  storage::QueryServiceOptions opts;
  opts.m_base = kPublishMBase;
  storage::QueryService service(opts);
  for (size_t c = 0; c < n; ++c) {
    if (!service.Ingest(0, stream[c]).ok()) {
      state.SkipWithError("history ingest failed");
      return;
    }
  }
  size_t next = n;
  uint64_t allocs = 0;
  for (auto _ : state) {
    const uint64_t c0 = alloc_count::count.load(std::memory_order_relaxed);
    const Status st = service.Ingest(0, stream[next++]);
    allocs += alloc_count::count.load(std::memory_order_relaxed) - c0;
    benchmark::DoNotOptimize(st);
  }
  if (service.epoch(0) != next) state.SkipWithError("an ingest failed");
  state.counters["allocs/publish"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_QueryServicePublish)
    ->Arg(64)
    ->Arg(512)
    ->Arg(4096)
    ->Iterations(kPublishIngests)
    ->Repetitions(15)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMicrosecond);

/// One sensor's live feed at the station-ingest geometry (N=6, M=128,
/// M_base=256, TotalBand 76): `chunks` weather chunks of seed `seed`,
/// encoded in order with a live base signal.
std::vector<Transmission> EncodeStationFeed(uint64_t seed, size_t chunks) {
  datagen::WeatherOptions wopts;
  wopts.length = chunks * kPublishChunkLen;
  wopts.seed = seed;
  const datagen::Dataset ds = datagen::GenerateWeather(wopts);
  const size_t signals = ds.num_signals();
  EncoderOptions opts;
  opts.total_band = 76;
  opts.m_base = kPublishMBase;
  SbrEncoder enc(opts);
  std::vector<Transmission> out;
  std::vector<double> y(signals * kPublishChunkLen);
  for (size_t c = 0; c < chunks; ++c) {
    for (size_t s = 0; s < signals; ++s) {
      for (size_t k = 0; k < kPublishChunkLen; ++k) {
        y[s * kPublishChunkLen + k] = ds.values(s, c * kPublishChunkLen + k);
      }
    }
    out.push_back(std::move(enc.EncodeChunk(y, signals)).value());
  }
  return out;
}

// Station-ingest fleet for BM_StationReceiveBytes: 16 sensors x 100
// chunks, each sensor its own feed, serialized as in-order data frames
// and interleaved round-robin as a station hears them.
constexpr size_t kStationSensors = 16;
constexpr size_t kStationChunks = 100;

const std::vector<std::vector<uint8_t>>& StationFrames() {
  static const std::vector<std::vector<uint8_t>> frames = [] {
    std::vector<std::vector<Transmission>> per_sensor;
    for (uint32_t id = 0; id < kStationSensors; ++id) {
      per_sensor.push_back(EncodeStationFeed(100 + id, kStationChunks));
    }
    std::vector<std::vector<uint8_t>> out;
    for (size_t c = 0; c < kStationChunks; ++c) {
      for (uint32_t id = 0; id < kStationSensors; ++id) {
        BinaryWriter writer;
        MakeDataFrame(id, c, 0, per_sensor[id][c]).Serialize(&writer);
        out.push_back(writer.TakeBuffer());
      }
    }
    return out;
  }();
  return frames;
}

/// An empty directory under the system temp dir, named `name` plus this
/// process's id.
std::string FreshTempDir(const char* name) {
  std::string dir = (std::filesystem::temp_directory_path() / name).string();
#if defined(__unix__)
  dir += "_" + std::to_string(::getpid());
#endif
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void BM_StationReceiveBytes(benchmark::State& state) {
  // One BaseStation::ReceiveBytes of an in-order data frame, with durable
  // per-sensor logs and a QueryService attached: envelope check, receive
  // state machine, the one timeline ingest (the service's) with its epoch
  // publish, and the log append of the payload bytes as received. Each
  // repetition starts a fresh station on empty logs and feeds the whole
  // fleet once, so histories grow from 0 to 100 chunks per sensor within
  // it. Only the steady state is timed: each sensor's first frame, which
  // creates its log file and its timeline, is fed before the timed loop.
  // allocs/frame and KB/frame count the heap allocations (and bytes
  // requested) of one timed ReceiveBytes, the receive path's allocation
  // budget.
  const auto& frames = StationFrames();
  const std::string dir = FreshTempDir("sbr_bench_station");
  {
    storage::QueryServiceOptions opts;
    opts.m_base = kPublishMBase;
    storage::QueryService service(opts);
    net::BaseStation station(kPublishMBase, dir);
    if (!station.AttachQueryService(&service).ok()) {
      state.SkipWithError("attach failed");
      return;
    }
    size_t next = 0;
    size_t rejected = 0;
    for (; next < kStationSensors; ++next) {
      auto ack = station.ReceiveBytes(frames[next]);
      if (!ack.ok() || ack->type != net::AckType::kAccept) ++rejected;
    }
    uint64_t allocs = 0;
    uint64_t bytes = 0;
    for (auto _ : state) {
      const uint64_t c0 = alloc_count::count.load(std::memory_order_relaxed);
      const uint64_t b0 = alloc_count::bytes.load(std::memory_order_relaxed);
      auto ack = station.ReceiveBytes(frames[next++]);
      allocs += alloc_count::count.load(std::memory_order_relaxed) - c0;
      bytes += alloc_count::bytes.load(std::memory_order_relaxed) - b0;
      if (!ack.ok() || ack->type != net::AckType::kAccept) ++rejected;
    }
    if (rejected > 0) state.SkipWithError("a frame was not accepted");
    const double iters = static_cast<double>(state.iterations());
    state.counters["allocs/frame"] =
        benchmark::Counter(static_cast<double>(allocs) / iters);
    state.counters["KB/frame"] =
        benchmark::Counter(static_cast<double>(bytes) / iters / 1024.0);
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StationReceiveBytes)
    ->Iterations(kStationSensors * (kStationChunks - 1))
    ->Repetitions(30)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMicrosecond);

void BM_TransmissionParse(benchmark::State& state) {
  // One Transmission::ParsePayload of a data frame's payload into a
  // reused scratch, as the station, log recovery and replay parse it.
  // The payloads are sensor 0's 100 chunks of the station-ingest fleet,
  // parsed in turn (base-update chunks included). Time per frame and
  // payload bytes/s.
  // The payloads lie back to back in one 64-byte-aligned block, so their
  // placement does not depend on what earlier rows left on the heap (with
  // one allocation per payload, this row read 42 or 74 ns from run to run
  // after BM_StationReceiveBytes had run in the same process).
  std::vector<size_t> ends;
  std::vector<uint8_t> block;
  for (size_t c = 0; c < kStationChunks; ++c) {
    auto frame = Frame::ParseView(StationFrames()[c * kStationSensors]);
    block.insert(block.end(), frame->payload.begin(), frame->payload.end());
    ends.push_back(block.size());
  }
  std::vector<uint8_t> storage(block.size() + 64);
  const size_t misalign = reinterpret_cast<uintptr_t>(storage.data()) % 64;
  uint8_t* aligned = storage.data() + (64 - misalign) % 64;
  std::copy(block.begin(), block.end(), aligned);
  std::vector<std::span<const uint8_t>> payloads;
  for (size_t c = 0, begin = 0; c < ends.size(); begin = ends[c++]) {
    payloads.emplace_back(aligned + begin, ends[c] - begin);
  }
  Transmission t;
  size_t next = 0;
  int64_t bytes = 0;
  for (auto _ : state) {
    const std::span<const uint8_t> payload = payloads[next];
    next = next + 1 == payloads.size() ? 0 : next + 1;
    const Status st = Transmission::ParsePayload(payload, &t);
    if (!st.ok()) {
      state.SkipWithError("a payload did not parse");
      return;
    }
    benchmark::DoNotOptimize(t.intervals.data());
    bytes += static_cast<int64_t>(payload.size());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_TransmissionParse)->Repetitions(10)->ReportAggregatesOnly(true);

void BM_StationRecovery(benchmark::State& state) {
  // A restarted station's recovery of the station-ingest fleet's durable
  // logs (16 sensors x 100 chunks, written untimed by one BaseStation):
  // per sensor, ChunkLog::Open (index and validate every record) and
  // ReplayLog into a fresh QueryService — the storage.log_open_s plus
  // storage.replay_s of a perfbench restart. Time per whole recovery.
  const auto& frames = StationFrames();
  const std::string dir = FreshTempDir("sbr_bench_recovery");
  {
    net::BaseStation station(kPublishMBase, dir);
    for (const auto& frame : frames) {
      auto ack = station.ReceiveBytes(frame);
      if (!ack.ok() || ack->type != net::AckType::kAccept) {
        state.SkipWithError("a frame was not accepted");
        return;
      }
    }
  }
  size_t failed = 0;
  for (auto _ : state) {
    storage::QueryServiceOptions opts;
    opts.m_base = kPublishMBase;
    storage::QueryService service(opts);
    for (uint32_t id = 0; id < kStationSensors; ++id) {
      auto log = storage::ChunkLog::Open(dir + "/sensor_" +
                                         std::to_string(id) + ".log");
      if (!log.ok() || log->size() != kStationChunks ||
          !storage::ReplayLog(*log, id, &service).ok()) {
        ++failed;
      }
    }
    if (service.epoch(kStationSensors - 1) != kStationChunks) ++failed;
  }
  if (failed > 0) state.SkipWithError("a log did not recover");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(frames.size()));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StationRecovery)
    ->Repetitions(10)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMillisecond);

// Dashboard fleet for BM_ServiceProbeAfterIngest: 64 sensors x 48 chunks,
// each sensor its own feed, interleaved round-robin as a station hears
// them.
constexpr uint32_t kProbeSensors = 64;
constexpr size_t kProbeChunks = 48;

struct ProbeIngest {
  uint32_t sensor = 0;
  Transmission t;
};

const std::vector<ProbeIngest>& ProbeFleet() {
  static const std::vector<ProbeIngest> fleet = [] {
    std::vector<std::vector<Transmission>> per_sensor;
    for (uint32_t id = 0; id < kProbeSensors; ++id) {
      per_sensor.push_back(EncodeStationFeed(300 + id, kProbeChunks));
    }
    std::vector<ProbeIngest> out;
    for (size_t c = 0; c < kProbeChunks; ++c) {
      for (uint32_t id = 0; id < kProbeSensors; ++id) {
        out.push_back({id, std::move(per_sensor[id][c])});
      }
    }
    return out;
  }();
  return fleet;
}

void BM_ServiceProbeAfterIngest(benchmark::State& state) {
  // The freshness read of a live station: after each QueryService::Ingest
  // (untimed), the dashboard probes the sensor that just published — one
  // aggregate per signal over its newest chunk plus the newest sample —
  // so every probe reads an epoch no earlier query has seen. Only the
  // probe is timed (manual time). Each repetition starts a fresh service
  // and feeds the whole fleet once.
  const std::vector<ProbeIngest>& fleet = ProbeFleet();
  storage::QueryServiceOptions opts;
  opts.m_base = kPublishMBase;
  storage::QueryService service(opts);
  size_t next = 0;
  size_t failed = 0;
  for (auto _ : state) {
    const ProbeIngest& in = fleet[next++];
    if (!service.Ingest(in.sensor, in.t).ok()) ++failed;
    const size_t len = in.t.chunk_len;
    const size_t t1 = service.Snapshot(in.sensor)->history.history_len();
    const auto start = std::chrono::steady_clock::now();
    for (size_t s = 0; s < in.t.num_signals; ++s) {
      auto agg = service.Aggregate(in.sensor, s, t1 - len, t1);
      if (!agg.ok()) ++failed;
      benchmark::DoNotOptimize(agg);
    }
    auto point = service.Point(in.sensor, 0, t1 - 1);
    if (!point.ok()) ++failed;
    benchmark::DoNotOptimize(point);
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
  }
  if (failed > 0) state.SkipWithError("an ingest or a probe failed");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fleet[0].t.num_signals + 1));
}
BENCHMARK(BM_ServiceProbeAfterIngest)
    ->Iterations(kProbeSensors * kProbeChunks)
    ->Repetitions(10)
    ->ReportAggregatesOnly(true)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

void BM_ServiceRead(benchmark::State& state) {
  // The fixed cost of a read through the service: the probe fleet
  // (64 sensors x 48 chunks) ingested untimed, then a fixed cycle of
  // queries over every sensor — a Point at a pseudo-random sample, or an
  // Aggregate over a pseudo-random range of up to four chunks — asked
  // either of the service (held:0: find the sensor, load its published
  // epoch, answer) or of a SensorSnapshot taken once per sensor before
  // the loop (held:1: answer only). The two rows of one query kind
  // answer the same queries, so their difference is what finding the
  // epoch costs per query.
  const bool held = state.range(0) != 0;
  const bool aggregate = state.range(1) != 0;
  const std::vector<ProbeIngest>& fleet = ProbeFleet();
  storage::QueryServiceOptions opts;
  opts.m_base = kPublishMBase;
  storage::QueryService service(opts);
  for (const ProbeIngest& in : fleet) {
    if (!service.Ingest(in.sensor, in.t).ok()) {
      state.SkipWithError("ingest failed");
      return;
    }
  }
  std::vector<std::shared_ptr<const storage::SensorSnapshot>> snapshots;
  for (uint32_t id = 0; id < kProbeSensors; ++id) {
    snapshots.push_back(service.Snapshot(id));
  }
  struct Read {
    uint32_t sensor;
    size_t signal;
    size_t t0;
    size_t t1;
  };
  const size_t len = kProbeChunks * kPublishChunkLen;
  const size_t signals = fleet[0].t.num_signals;
  std::vector<Read> reads;
  Rng rng(17);
  for (size_t i = 0; i < 4096; ++i) {
    Read r;
    r.sensor = static_cast<uint32_t>(i % kProbeSensors);
    r.signal = static_cast<size_t>(rng.NextU64() % signals);
    const size_t width = 1 + rng.NextU64() % (4 * kPublishChunkLen);
    r.t0 = static_cast<size_t>(rng.NextU64() % (len - width));
    r.t1 = r.t0 + width;
    reads.push_back(r);
  }
  size_t next = 0;
  size_t failed = 0;
  for (auto _ : state) {
    const Read& r = reads[next];
    next = next + 1 == reads.size() ? 0 : next + 1;
    if (aggregate) {
      auto agg = held ? snapshots[r.sensor]->history.Aggregate(r.signal,
                                                               r.t0, r.t1)
                      : service.Aggregate(r.sensor, r.signal, r.t0, r.t1);
      if (!agg.ok()) ++failed;
      benchmark::DoNotOptimize(agg);
    } else {
      auto point = held ? snapshots[r.sensor]->history.Value(r.signal, r.t0)
                        : service.Point(r.sensor, r.signal, r.t0);
      if (!point.ok()) ++failed;
      benchmark::DoNotOptimize(point);
    }
  }
  if (failed > 0) state.SkipWithError("a read failed");
}
BENCHMARK(BM_ServiceRead)
    ->ArgNames({"held", "aggregate"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Repetitions(10)
    ->ReportAggregatesOnly(true);

void BM_Crc32(benchmark::State& state) {
  // CRC-32 of one frame-sized buffer (the frame check and the log record
  // each checksum every frame once). Bytes/s; not gated.
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::vector<uint8_t> buf(n);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(buf));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_Crc32)->Arg(512);

void BM_HaarForward(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto y = RandomSeries(n, 13);
  for (auto _ : state) {
    compress::HaarForward(y);
    compress::HaarInverse(y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HaarForward)->Arg(16384);

void BM_FastDct(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto y = RandomSeries(n, 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::DctOrthonormal(y));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FastDct)->Arg(16384);

}  // namespace
