// Observability subsystem tests: registry semantics (counter / gauge /
// histogram, merge-on-read under concurrent writers — the `parallel`
// label runs this binary under TSan), span nesting determinism of one
// encode, the runtime/compile-time gates, and the stage report schema
// the benches emit (obs/export.h). Every test leaves the global registry
// and trace collector clean so ordering never matters.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/decoder.h"
#include "core/encoder.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sbr::obs {
namespace {

// Scrubs global observability state around each test.
class ObsTest : public testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().ResetAll();
    TraceCollector::Global().Clear();
  }
  void TearDown() override {
    SetEnabled(false);
    MetricsRegistry::Global().ResetAll();
    TraceCollector::Global().Clear();
  }
};

TEST_F(ObsTest, CounterGaugeHistogramBasics) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& c = reg.GetCounter("test.counter");
  c.Add(3);
  c.Add(4);
  EXPECT_EQ(c.Value(), 7u);
  // Registration is idempotent: same name, same object.
  EXPECT_EQ(&reg.GetCounter("test.counter"), &c);

  Gauge& g = reg.GetGauge("test.gauge");
  g.Set(10);
  g.Set(4);
  EXPECT_EQ(g.Value(), 4);
  EXPECT_EQ(g.Max(), 10);

  Histogram& h = reg.GetHistogram("test.hist");
  h.Record(0);
  h.Record(1);
  h.Record(1000);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.Sum(), 1001u);
  const auto buckets = h.Buckets();
  ASSERT_EQ(buckets.size(), Histogram::kNumBuckets);
  EXPECT_EQ(buckets[Histogram::BucketIndex(0)], 1u);
  EXPECT_EQ(buckets[Histogram::BucketIndex(1)], 1u);
  EXPECT_EQ(buckets[Histogram::BucketIndex(1000)], 1u);

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.ValueOf("test.counter"), 7);
  EXPECT_EQ(snap.ValueOf("test.gauge"), 4);
  EXPECT_EQ(snap.ValueOf("test.hist"), 3);
  EXPECT_EQ(snap.Find("test.absent"), nullptr);

  reg.ResetAll();
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(g.Value(), 0);
  EXPECT_EQ(h.Count(), 0u);
}

TEST_F(ObsTest, HistogramBucketLayout) {
  // Bucket 0 holds only the value 0; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  for (size_t i = 1; i + 1 < Histogram::kNumBuckets; ++i) {
    const uint64_t lo = Histogram::BucketLowerBound(i);
    EXPECT_EQ(Histogram::BucketIndex(lo), i);
    EXPECT_EQ(Histogram::BucketIndex(2 * lo - 1), i);
    EXPECT_EQ(Histogram::BucketIndex(2 * lo), i + 1);
  }
  // The last bucket absorbs everything beyond the table.
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}),
            Histogram::kNumBuckets - 1);
}

TEST_F(ObsTest, MergeOnReadIsExactUnderConcurrentWriters) {
  // Many raw threads (more than kMaxShards, so shards are shared) hammer
  // one counter and one histogram; merge-on-read must account for every
  // single write. TSan runs this via the `parallel` label.
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& c = reg.GetCounter("test.mt.counter");
  Histogram& h = reg.GetHistogram("test.mt.hist");

  constexpr size_t kThreads = 24;
  constexpr size_t kOpsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h, t] {
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        c.Add(1);
        h.Record(t);
        if (i % 1000 == 0) {
          // Interleave reads with the writes: a mid-run merge must be a
          // valid partial sum, never a torn or out-of-range value.
          (void)c.Value();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(c.Value(), kThreads * kOpsPerThread);
  EXPECT_EQ(h.Count(), kThreads * kOpsPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : h.Buckets()) bucket_total += b;
  EXPECT_EQ(bucket_total, kThreads * kOpsPerThread);
}

TEST_F(ObsTest, RuntimeGateStopsMacroSites) {
  if (!CompiledIn()) GTEST_SKIP() << "instrumentation compiled out";
  MetricsRegistry& reg = MetricsRegistry::Global();
  SetEnabled(false);
  SBR_OBS_COUNT("test.gated", 1);
  EXPECT_EQ(reg.Snapshot().ValueOf("test.gated"), 0);
  SetEnabled(true);
  SBR_OBS_COUNT("test.gated", 1);
  SBR_OBS_COUNT("test.gated", 2);
  EXPECT_EQ(reg.Snapshot().ValueOf("test.gated"), 3);
  SetEnabled(false);
  SBR_OBS_COUNT("test.gated", 5);
  EXPECT_EQ(reg.Snapshot().ValueOf("test.gated"), 3);
}

TEST_F(ObsTest, CompiledOutMacrosAreInert) {
  if (CompiledIn()) GTEST_SKIP() << "only meaningful in a noobs build";
  // In an SBR_OBS=0 build the gate cannot be turned on and macro sites
  // vanish; the registry API itself still works (asserted by the tests
  // above), so tooling compiles in both modes.
  SetEnabled(true);
  EXPECT_FALSE(Enabled());
  SBR_OBS_COUNT("test.compiled.out", 1);
  SBR_OBS_SPAN(span, "test.compiled.out.span");
  EXPECT_EQ(MetricsRegistry::Global().Snapshot().ValueOf("test.compiled.out"),
            0);
  EXPECT_TRUE(TraceCollector::Global().Drain().empty());
}

// Encodes one deterministic weather-like chunk with observability
// enabled, returning the drained span events.
std::vector<SpanEvent> TraceOneEncode() {
  TraceCollector::Global().Clear();
  EnabledScope enabled;
  const size_t num_signals = 4, m = 256;
  std::vector<double> y(num_signals * m);
  Rng rng(99);
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = std::sin(i * 0.07) * 3 + rng.Gaussian(0, 0.2);
  }
  core::EncoderOptions opts;
  opts.total_band = y.size() / 8;
  opts.m_base = 128;
  core::SbrEncoder enc(opts);
  auto t = enc.EncodeChunk(y, num_signals);
  EXPECT_TRUE(t.ok());
  return TraceCollector::Global().Drain();
}

void CheckWellFormed(const std::vector<SpanEvent>& events) {
  ASSERT_FALSE(events.empty());
  // Per tid: seq strictly increasing in drain order, depths sane, and
  // every nested span completes within its enclosing stack (children
  // complete before parents, so a depth-d event may only follow depths
  // >= d - 1 ... any jump deeper than one level would mean a lost span).
  std::map<uint32_t, uint64_t> last_seq;
  std::map<uint32_t, uint32_t> last_depth;
  for (const SpanEvent& e : events) {
    ASSERT_NE(e.name, nullptr);
    if (last_seq.count(e.tid)) {
      EXPECT_LT(last_seq[e.tid], e.seq) << "seq must increase within a tid";
      EXPECT_LE(e.depth, last_depth[e.tid] + 1)
          << "nesting may deepen by at most one completed level";
    }
    last_seq[e.tid] = e.seq;
    last_depth[e.tid] = e.depth;
  }
}

TEST_F(ObsTest, SpanNestingIsWellFormedAndDeterministic) {
  if (!CompiledIn()) GTEST_SKIP() << "instrumentation compiled out";
  const auto events = TraceOneEncode();
  CheckWellFormed(events);

  // The stage structure is deterministic: same stages, same counts, on
  // a repeat run (timings move, names do not).
  const auto again = TraceOneEncode();
  CheckWellFormed(again);
  const auto agg1 = TraceCollector::Aggregate(events);
  const auto agg2 = TraceCollector::Aggregate(again);
  ASSERT_EQ(agg1.size(), agg2.size());
  for (size_t i = 0; i < agg1.size(); ++i) {
    EXPECT_EQ(agg1[i].name, agg2[i].name);
    EXPECT_EQ(agg1[i].count, agg2[i].count) << agg1[i].name;
  }

  // The encode runs on the calling thread: every stage is present and
  // nests on one tid.
  std::set<std::string> names;
  for (const auto& a : agg1) names.insert(a.name);
  EXPECT_TRUE(names.count("encode.chunk"));
  EXPECT_TRUE(names.count("encode.get_base"));
  EXPECT_TRUE(names.count("encode.search"));
  EXPECT_TRUE(names.count("encode.approx"));
  std::set<uint32_t> tids;
  for (const auto& e : events) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), 1u);
}

TEST_F(ObsTest, EncodeCountersMirrorEncodeStats) {
  if (!CompiledIn()) GTEST_SKIP() << "instrumentation compiled out";
  EnabledScope enabled;
  const size_t num_signals = 3, m = 192;
  std::vector<double> y(num_signals * m);
  Rng rng(5);
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = std::sin(i * 0.09) * 2 + rng.Gaussian(0, 0.25);
  }
  core::EncoderOptions opts;
  // Generous band: intervals must split down below 2W (W = sqrt(576) = 24)
  // or BestMap never runs a shift scan and the scan counters stay zero.
  opts.total_band = y.size() / 4;
  opts.m_base = 96;
  core::SbrEncoder enc(opts);
  auto t = enc.EncodeChunk(y, num_signals);
  ASSERT_TRUE(t.ok());
  const core::EncodeStats& stats = enc.last_stats();

  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.ValueOf("encode.chunks"), 1);
  EXPECT_EQ(snap.ValueOf("encode.search_probes"),
            static_cast<int64_t>(stats.search_probes));
  EXPECT_EQ(snap.ValueOf("encode.inserted_cbis"),
            static_cast<int64_t>(stats.inserted_base_intervals));
  EXPECT_EQ(snap.ValueOf("encode.intervals"),
            static_cast<int64_t>(stats.num_intervals));
  EXPECT_EQ(snap.ValueOf("encode.workspace.moment_hits"),
            static_cast<int64_t>(stats.workspace.moment_hits));
  EXPECT_EQ(snap.ValueOf("encode.workspace.moment_misses"),
            static_cast<int64_t>(stats.workspace.moment_misses));
  EXPECT_EQ(snap.ValueOf("encode.workspace.shifts_reused"),
            static_cast<int64_t>(stats.workspace.shifts_reused));
  EXPECT_GT(stats.workspace.shifts_reused, 0u);
  EXPECT_GT(snap.ValueOf("encode.best_map.calls"), 0);
  EXPECT_GT(snap.ValueOf("encode.best_map.shifts_scanned"), 0);
}

TEST_F(ObsTest, StageReportSchemaAndAttribution) {
  if (!CompiledIn()) GTEST_SKIP() << "instrumentation compiled out";
  // The exact code path the benches call: an instrumented encode+decode,
  // then StageReportJson/Csv over the global registry and trace. Asserts
  // the documented schema of obs/export.h plus non-zero stage
  // attribution, which is what makes the bench artifacts meaningful.
  {
    EnabledScope enabled;
    const size_t num_signals = 4, m = 256;
    std::vector<double> y(num_signals * m);
    Rng rng(123);
    for (size_t i = 0; i < y.size(); ++i) {
      y[i] = std::sin(i * 0.05) * 5 + rng.Gaussian(0, 0.2);
    }
    core::EncoderOptions opts;
    opts.total_band = y.size() / 8;
    opts.m_base = 128;
    core::SbrEncoder enc(opts);
    auto t = enc.EncodeChunk(y, num_signals);
    ASSERT_TRUE(t.ok());
    core::SbrDecoder dec(core::DecoderOptions{opts.m_base});
    auto d = dec.DecodeChunk(*t);
    ASSERT_TRUE(d.ok());
  }

  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const auto events = TraceCollector::Global().Drain();
  const auto stages = TraceCollector::Aggregate(events);

  // JSON schema: both sections present, stages carry the four fields.
  const std::string json = StageReportJson(snap, stages);
  EXPECT_NE(json.find("\"metrics\":["), std::string::npos);
  EXPECT_NE(json.find("\"stages\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"encode.chunk\""), std::string::npos);
  EXPECT_NE(json.find("\"total_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"avg_us\":"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');

  // CSV schema: header plus one row per metric and per stage.
  const std::string csv = StageReportCsv(snap, stages);
  EXPECT_EQ(csv.rfind("kind,name,value,aux\n", 0), 0u);
  EXPECT_NE(csv.find("counter,encode.chunks,1,"), std::string::npos);
  EXPECT_NE(csv.find("stage,encode.chunk,"), std::string::npos);

  // Non-zero attribution: the pipeline stages exist, were entered, and
  // consumed time; the interior stages are a subset of the chunk total.
  std::map<std::string, const StageAggregate*> by_name;
  for (const auto& s : stages) by_name[s.name] = &s;
  for (const char* stage :
       {"encode.chunk", "encode.get_base", "encode.search", "encode.approx",
        "decode.chunk"}) {
    ASSERT_TRUE(by_name.count(stage)) << stage;
    EXPECT_GT(by_name[stage]->count, 0u) << stage;
    EXPECT_GT(by_name[stage]->total_ns, 0u) << stage;
  }
  EXPECT_LE(by_name["encode.search"]->total_ns,
            by_name["encode.chunk"]->total_ns);
  EXPECT_GT(snap.ValueOf("decode.chunks"), 0);
}

TEST_F(ObsTest, ChromeTraceAndCsvExports) {
  if (!CompiledIn()) GTEST_SKIP() << "instrumentation compiled out";
  const auto events = TraceOneEncode();
  ASSERT_FALSE(events.empty());
  const std::string json = TraceCollector::ToChromeJson(events);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"encode.chunk\""), std::string::npos);
  const std::string csv = TraceCollector::ToCsv(events);
  EXPECT_EQ(csv.rfind("name,tid,depth,seq,start_us,duration_us\n", 0), 0u);
  // One row per event plus the header.
  size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, events.size() + 1);
}

TEST_F(ObsTest, PoolMetricsAttributeChunks) {
  if (!CompiledIn()) GTEST_SKIP() << "instrumentation compiled out";
  EnabledScope enabled;
  std::atomic<size_t> touched{0};
  util::ParallelFor(4, 1000, [&](size_t, size_t begin, size_t end) {
    touched.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(touched.load(), 1000u);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  // Caller + workers together ran every chunk; on a single-core host the
  // pool has no workers and the caller runs them all, so only the sum is
  // asserted.
  const int64_t chunks = snap.ValueOf("pool.caller_chunks") +
                         snap.ValueOf("pool.worker_chunks");
  EXPECT_EQ(chunks, 4);  // min(threads, n) static chunks
  EXPECT_EQ(snap.ValueOf("pool.parallel_fors"), 1);
}

}  // namespace
}  // namespace sbr::obs
