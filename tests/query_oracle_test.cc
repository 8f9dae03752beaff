// Differential query oracle: the compressed-domain aggregate path
// (CompressedHistory::Aggregate — prefix sums over base snapshots, closed
// forms for linear fall-backs) must agree with an exact recompute from the
// materialized reconstruction (DecodedHistory::QueryRange) on every range,
// for every dataset family, seed and error metric. The two paths share no
// arithmetic beyond the decoder's affine map, so agreement pins the whole
// aggregate algebra: interval tiling, shift resolution, base-version
// selection and the SumT/SumT2 closed forms.
#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/encoder.h"
#include "datagen/phonecall.h"
#include "datagen/stock.h"
#include "datagen/weather.h"
#include "storage/decoded_history.h"
#include "storage/query_engine.h"

namespace sbr {
namespace {

constexpr size_t kChunkLen = 128;
constexpr size_t kChunks = 5;
constexpr size_t kMBase = 256;

struct Workload {
  std::string name;
  datagen::Dataset dataset;
  core::ErrorMetric metric = core::ErrorMetric::kSse;
  bool quadratic = false;
  uint64_t range_seed = 0;
};

datagen::Dataset MakeDataset(const std::string& family, uint64_t seed) {
  const size_t length = kChunks * kChunkLen;
  if (family == "weather") {
    datagen::WeatherOptions o;
    o.length = length;
    o.seed = seed;
    return datagen::GenerateWeather(o);
  }
  if (family == "stock") {
    datagen::StockOptions o;
    o.length = length;
    o.seed = seed;
    return datagen::GenerateStock(o);
  }
  datagen::PhoneCallOptions o;
  o.length = length;
  o.seed = seed;
  return datagen::GeneratePhoneCalls(o);
}

/// Exact aggregate recompute from the reconstructed samples, using the
/// same variance formula as the engine (E[x^2] - mean^2) so the oracle
/// isolates the compressed-domain algebra, not floating-point folklore.
struct Reference {
  double sum = 0.0;
  double sumsq = 0.0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  size_t n = 0;
};

Reference Recompute(const std::vector<double>& values) {
  Reference r;
  r.n = values.size();
  for (double v : values) {
    r.sum += v;
    r.sumsq += v * v;
    r.mn = std::min(r.mn, v);
    r.mx = std::max(r.mx, v);
  }
  return r;
}

/// The per-workload state both stores build from the identical
/// transmission sequence.
struct BuiltStores {
  storage::CompressedHistory compressed{kMBase};
  storage::DecodedHistory history{kMBase};
  /// Chunk indices whose ingest published a new base version *after* the
  /// stream was warm — ranges straddling them cross base versions.
  std::vector<size_t> version_change_chunks;
};

void Build(const Workload& w, BuiltStores* out_ptr) {
  BuiltStores& out = *out_ptr;
  const size_t num_signals = w.dataset.num_signals();
  const size_t n = num_signals * kChunkLen;
  core::EncoderOptions opts;
  opts.total_band = n / 8;
  opts.m_base = kMBase;
  opts.metric = w.metric;
  opts.quadratic = w.quadratic;
  core::SbrEncoder encoder(opts);

  std::vector<double> chunk(n);
  for (size_t c = 0; c < kChunks; ++c) {
    for (size_t s = 0; s < num_signals; ++s) {
      for (size_t k = 0; k < kChunkLen; ++k) {
        chunk[s * kChunkLen + k] = w.dataset.values(s, c * kChunkLen + k);
      }
    }
    auto t = encoder.EncodeChunk(chunk, num_signals);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    const size_t versions_before = out.compressed.num_base_versions();
    ASSERT_TRUE(out.compressed.Ingest(*t).ok());
    ASSERT_TRUE(out.history.Ingest(*t).ok());
    if (c > 0 && out.compressed.num_base_versions() > versions_before) {
      out.version_change_chunks.push_back(c);
    }
  }
}

void CheckRange(const BuiltStores& stores, size_t signal, size_t t0,
                size_t t1, const std::string& label) {
  auto agg = stores.compressed.Aggregate(signal, t0, t1);
  ASSERT_TRUE(agg.ok()) << label << ": " << agg.status().ToString();
  auto exact = stores.history.QueryRange(signal, t0, t1);
  ASSERT_TRUE(exact.ok()) << label << ": " << exact.status().ToString();
  const Reference ref = Recompute(*exact);

  ASSERT_EQ(agg->count, ref.n) << label;
  const double n = static_cast<double>(ref.n);
  const double scale = std::abs(ref.sum) + n;
  EXPECT_NEAR(agg->sum, ref.sum, 1e-9 * scale) << label;
  EXPECT_NEAR(agg->avg, ref.sum / n, 1e-9 * (std::abs(ref.sum / n) + 1.0))
      << label;
  const double ref_mean = ref.sum / n;
  const double ref_var = std::max(0.0, ref.sumsq / n - ref_mean * ref_mean);
  // The engine folds squares through prefix sums and closed forms; after
  // the E[x^2] - mean^2 cancellation the agreement is relative to the
  // *uncancelled* magnitude, not the variance itself.
  const double var_scale = ref.sumsq / n + ref_mean * ref_mean + 1.0;
  EXPECT_NEAR(agg->variance, ref_var, 1e-8 * var_scale) << label;
  EXPECT_NEAR(agg->min, ref.mn, 1e-9 * (std::abs(ref.mn) + 1.0)) << label;
  EXPECT_NEAR(agg->max, ref.mx, 1e-9 * (std::abs(ref.mx) + 1.0)) << label;
}

void RunWorkload(const Workload& w) {
  SCOPED_TRACE(w.name);
  BuiltStores stores;
  Build(w, &stores);
  if (::testing::Test::HasFatalFailure()) return;
  const size_t len = stores.compressed.history_len();
  const size_t num_signals = stores.compressed.num_signals();
  ASSERT_EQ(len, kChunks * kChunkLen);

  std::mt19937_64 rng(w.range_seed);
  std::uniform_int_distribution<size_t> pick_t(0, len - 1);
  std::uniform_int_distribution<size_t> pick_s(0, num_signals - 1);

  // Randomized ranges, any alignment.
  for (int q = 0; q < 12; ++q) {
    size_t a = pick_t(rng), b = pick_t(rng);
    if (a > b) std::swap(a, b);
    CheckRange(stores, pick_s(rng), a, b + 1,
               "random [" + std::to_string(a) + "," + std::to_string(b + 1) +
                   ")");
  }
  // Single-sample, full-history and chunk-boundary-straddling ranges.
  const size_t t_single = pick_t(rng);
  CheckRange(stores, pick_s(rng), t_single, t_single + 1, "single-sample");
  CheckRange(stores, pick_s(rng), 0, len, "full-history");
  for (size_t c = 1; c < kChunks; ++c) {
    const size_t edge = c * kChunkLen;
    CheckRange(stores, pick_s(rng), edge - 3, edge + 3,
               "chunk-straddle@" + std::to_string(edge));
  }
  // Base-version-crossing ranges: straddle every chunk whose ingest
  // published a new base snapshot mid-stream.
  for (size_t c : stores.version_change_chunks) {
    CheckRange(stores, pick_s(rng), (c - 1) * kChunkLen + kChunkLen / 2,
               c * kChunkLen + kChunkLen / 2,
               "base-version-crossing@" + std::to_string(c));
  }

  // Point pin: Value(t) is definitionally the one-sample range.
  for (int q = 0; q < 8; ++q) {
    const size_t t = pick_t(rng);
    const size_t s = pick_s(rng);
    auto point = stores.compressed.Value(s, t);
    ASSERT_TRUE(point.ok()) << point.status().ToString();
    auto exact = stores.history.QueryRange(s, t, t + 1);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    EXPECT_NEAR(*point, (*exact)[0], 1e-9 * (std::abs((*exact)[0]) + 1.0))
        << "point t=" << t << " signal=" << s;
  }
}

// 3 dataset families x 6 seeds x 3 error metrics = 54 seeded workloads,
// every one checked over randomized + adversarially-aligned ranges.
TEST(QueryOracle, CompressedAggregatesMatchExactRecompute) {
  const std::string families[] = {"weather", "stock", "phone"};
  const core::ErrorMetric metrics[] = {core::ErrorMetric::kSse,
                                       core::ErrorMetric::kSseRelative,
                                       core::ErrorMetric::kMaxAbs};
  size_t workloads = 0;
  for (const std::string& family : families) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      for (core::ErrorMetric metric : metrics) {
        Workload w;
        w.name = family + "/seed" + std::to_string(seed) + "/metric" +
                 std::to_string(static_cast<int>(metric));
        w.dataset = MakeDataset(family, 100 + seed);
        w.metric = metric;
        w.range_seed = seed * 977 + static_cast<uint64_t>(metric);
        RunWorkload(w);
        if (::testing::Test::HasFatalFailure()) return;
        ++workloads;
      }
    }
  }
  EXPECT_GE(workloads, 50u);
}

// The quadratic extension exercises the engine's direct-scan interval
// path (c != 0), which the linear workloads never reach.
TEST(QueryOracle, QuadraticEncodingsMatchExactRecompute) {
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    Workload w;
    w.name = "weather-quadratic/seed" + std::to_string(seed);
    w.dataset = MakeDataset("weather", 300 + seed);
    w.quadratic = true;
    w.range_seed = seed;
    RunWorkload(w);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Gap alignment across the two stores: after MarkGap both views agree
// that a range abutting the gap succeeds and a range touching it reports
// DataLoss — the boundary semantics satellite-4 pins for both stores.
TEST(QueryOracle, GapBoundariesAgreeAcrossStores) {
  Workload w;
  w.name = "weather-gaps";
  w.dataset = MakeDataset("weather", 42);
  w.range_seed = 42;

  storage::CompressedHistory compressed{kMBase};
  storage::DecodedHistory history{kMBase};
  const size_t num_signals = w.dataset.num_signals();
  const size_t n = num_signals * kChunkLen;
  core::EncoderOptions opts;
  opts.total_band = n / 8;
  opts.m_base = kMBase;
  core::SbrEncoder encoder(opts);
  std::vector<double> chunk(n);
  for (size_t c = 0; c < kChunks; ++c) {
    if (c == 2) {  // chunk 2 is lost on both timelines
      compressed.MarkGap(1);
      history.MarkGap(1);
      continue;
    }
    for (size_t s = 0; s < num_signals; ++s) {
      for (size_t k = 0; k < kChunkLen; ++k) {
        chunk[s * kChunkLen + k] = w.dataset.values(s, c * kChunkLen + k);
      }
    }
    auto t = encoder.EncodeChunk(chunk, num_signals);
    ASSERT_TRUE(t.ok());
    // Post-gap chunks still decode on both views: base updates travel
    // inside the transmissions and both stores fold them identically.
    ASSERT_TRUE(history.Ingest(*t).ok());
    ASSERT_TRUE(compressed.Ingest(*t).ok());
  }
  ASSERT_EQ(compressed.num_gaps(), 1u);
  ASSERT_EQ(history.num_gaps(), 1u);
  ASSERT_TRUE(compressed.IsGap(2));
  ASSERT_TRUE(history.IsGap(2));

  const size_t gap_lo = 2 * kChunkLen;
  const size_t gap_hi = 3 * kChunkLen;
  // Abutting the gap from either side succeeds...
  EXPECT_TRUE(compressed.Aggregate(0, kChunkLen, gap_lo).ok());
  EXPECT_TRUE(history.QueryRange(0, kChunkLen, gap_lo).ok());
  EXPECT_TRUE(compressed.Aggregate(0, gap_hi, gap_hi + kChunkLen).ok());
  EXPECT_TRUE(history.QueryRange(0, gap_hi, gap_hi + kChunkLen).ok());
  // ...touching it by one sample is DataLoss on both views.
  EXPECT_EQ(compressed.Aggregate(0, kChunkLen, gap_lo + 1).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(history.QueryRange(0, kChunkLen, gap_lo + 1).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(compressed.Aggregate(0, gap_hi - 1, gap_hi + 1).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(history.QueryRange(0, gap_hi - 1, gap_hi + 1).status().code(),
            StatusCode::kDataLoss);
  // The surviving timeline still matches the differential oracle around
  // the gap.
  CheckRange({std::move(compressed), std::move(history), {}}, 0, gap_hi,
             gap_hi + kChunkLen / 2, "post-gap");
}

}  // namespace
}  // namespace sbr
