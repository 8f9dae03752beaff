// Index-vs-scan differential oracle: the hierarchical moment index
// (storage/moment_index.h) must answer every aggregate exactly like the
// legacy O(range) interval scan it replaced. The two paths share the
// per-interval arithmetic but nothing above it — node decomposition,
// boundary-chunk splitting, gap propagation, base-RMQ lookups — so
// agreement pins the whole acceleration layer. The determinism contract
// under test: count, min and max are BITWISE identical between the paths
// (selection folds are exact in any association), while sum / avg /
// variance agree to the oracle tolerances (addition re-associates across
// power-of-two groups). Gap semantics must match to the byte: the same
// status code and the same "range touches lost chunk N" message, N being
// the lowest lost chunk inside the range.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/encoder.h"
#include "datagen/phonecall.h"
#include "datagen/stock.h"
#include "datagen/weather.h"
#include "storage/append_log.h"
#include "storage/decoded_history.h"
#include "storage/moment_index.h"
#include "storage/query_engine.h"
#include "storage/query_service.h"
#include "util/range_min_max.h"

namespace sbr {
namespace {

constexpr size_t kChunkLen = 128;
constexpr size_t kChunks = 11;  // non-power-of-two: index depth 4, ragged top
constexpr size_t kMBase = 256;

datagen::Dataset MakeDataset(const std::string& family, uint64_t seed,
                             size_t length) {
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

// ------------------------------------------------------------------
// MomentIndex unit oracle: Query/FirstGap vs a naive leaf fold.
// ------------------------------------------------------------------

storage::MomentSummary RandomLeaf(std::mt19937_64* rng) {
  std::uniform_real_distribution<double> val(-50.0, 50.0);
  storage::MomentSummary s;
  const size_t n = 1 + (*rng)() % 7;
  for (size_t i = 0; i < n; ++i) {
    const double v = val(*rng);
    s.sum += v;
    s.sumsq += v * v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.count = n;
  return s;
}

storage::MomentSummary NaiveFold(
    const std::vector<storage::MomentSummary>& leaves, size_t lo, size_t hi) {
  storage::MomentSummary acc;
  for (size_t i = lo; i < hi; ++i) acc.Merge(leaves[i]);
  return acc;
}

size_t NaiveFirstGap(const std::vector<storage::MomentSummary>& leaves,
                     size_t lo, size_t hi) {
  for (size_t i = lo; i < hi; ++i) {
    if (leaves[i].has_gap) return i;
  }
  return hi;
}

TEST(MomentIndexUnit, EveryRangeMatchesNaiveLeafFold) {
  // 400 chunks of two signals make about 1600 summaries in the index's
  // node log: past the 64-entry block cap and through three directory
  // growths, so all of them are on the Query and FirstGap paths. Each
  // signal has its own leaves, so a slot mix-up between the signals
  // sharing a node shows. Sprinkled gap leaves pin FirstGap against a
  // linear scan.
  constexpr size_t kLeaves = 400;
  constexpr size_t kSignals = 2;
  std::mt19937_64 rng(4242);
  std::vector<std::vector<storage::MomentSummary>> leaves(kSignals);
  storage::MomentIndex index(kSignals);
  for (size_t i = 0; i < kLeaves; ++i) {
    std::vector<storage::MomentSummary> chunk;
    for (size_t s = 0; s < kSignals; ++s) {
      const bool gap = rng() % 9 == 0;
      leaves[s].push_back(gap ? storage::MomentSummary::Gap()
                              : RandomLeaf(&rng));
      chunk.push_back(leaves[s].back());
    }
    index.AppendChunk([&](size_t s) { return chunk[s]; });
    ASSERT_EQ(index.size(), i + 1);
  }
  for (size_t s = 0; s < kSignals; ++s) {
    for (size_t lo = 0; lo <= kLeaves; ++lo) {
      // The ascending naive fold of [lo, hi), extended one leaf per hi.
      storage::MomentSummary want;
      for (size_t hi = lo; hi <= kLeaves; ++hi) {
        if (hi > lo) want.Merge(leaves[s][hi - 1]);
        const storage::MomentSummary got = index.Query(s, lo, hi);
        ASSERT_EQ(got.count, want.count) << s << ":" << lo << "," << hi;
        ASSERT_EQ(got.has_gap, want.has_gap) << s << ":" << lo << "," << hi;
        // min/max are exact selections — identical in any association.
        ASSERT_EQ(got.min, want.min) << s << ":" << lo << "," << hi;
        ASSERT_EQ(got.max, want.max) << s << ":" << lo << "," << hi;
        // sum/sumsq re-associate across nodes; agreement is relative.
        ASSERT_NEAR(got.sum, want.sum,
                    1e-9 * (std::abs(want.sum) +
                            static_cast<double>(want.count) + 1.0))
            << s << ":" << lo << "," << hi;
        ASSERT_NEAR(got.sumsq, want.sumsq, 1e-9 * (want.sumsq + 1.0))
            << s << ":" << lo << "," << hi;
        ASSERT_EQ(index.FirstGap(s, lo, hi),
                  NaiveFirstGap(leaves[s], lo, hi))
            << s << ":" << lo << "," << hi;
      }
    }
  }
}

TEST(MomentIndexUnit, CopiesShareSealedBlocksAndStayImmutable) {
  // The epoch-publish path copies the index; the copy must be a frozen
  // snapshot (bitwise stable answers) no matter how far the original
  // advances past it — the shared-log property readers rely on.
  std::mt19937_64 rng(77);
  std::vector<storage::MomentSummary> leaves;
  storage::MomentIndex index;
  for (size_t i = 0; i < 130; ++i) {  // 255 nodes: mid-block, 2nd directory
    leaves.push_back(RandomLeaf(&rng));
    index.AppendChunk([&](size_t) { return leaves.back(); });
  }
  const storage::MomentIndex frozen = index;
  const storage::MomentSummary before = frozen.Query(0, 0, 130);
  for (size_t i = 0; i < 40; ++i) {
    index.AppendChunk([&](size_t) { return RandomLeaf(&rng); });
  }

  ASSERT_EQ(frozen.size(), 130u);
  ASSERT_EQ(index.size(), 170u);
  const storage::MomentSummary after = frozen.Query(0, 0, 130);
  EXPECT_EQ(before.sum, after.sum);
  EXPECT_EQ(before.sumsq, after.sumsq);
  EXPECT_EQ(before.min, after.min);
  EXPECT_EQ(before.max, after.max);
  EXPECT_EQ(before.count, after.count);
  const storage::MomentSummary naive = NaiveFold(leaves, 0, 130);
  EXPECT_EQ(after.count, naive.count);
  EXPECT_EQ(after.min, naive.min);
  EXPECT_EQ(after.max, naive.max);
}

// ------------------------------------------------------------------
// AppendLog unit oracle: the shared log under MomentIndex and both
// stores' chunk lists. Its blocks hold 1, 2, 4, ..., 64 entries, then 64
// each, so sizes 1, 3, 63, 127 and 191 end a block; its first directory
// holds 8 blocks, so the append at size 191 grows the directory.
// ------------------------------------------------------------------

using Log = storage::AppendLog<uint64_t>;

/// Entry i of a log whose appends are tagged `tag`.
uint64_t Tagged(uint64_t tag, size_t i) { return (tag << 32) | i; }

/// Appends tagged entries until the log holds `n`.
void FillTo(Log* log, size_t n, uint64_t tag) {
  while (log->size() < n) log->push_back(Tagged(tag, log->size()));
}

/// True if entries [0, size) are tag_a below `split` and tag_b above.
::testing::AssertionResult Holds(const Log& log, size_t size, size_t split,
                                 uint64_t tag_a, uint64_t tag_b) {
  if (log.size() != size) {
    return ::testing::AssertionFailure()
           << "size " << log.size() << " != " << size;
  }
  for (size_t i = 0; i < size; ++i) {
    const uint64_t want = Tagged(i < split ? tag_a : tag_b, i);
    if (log[i] != want) {
      return ::testing::AssertionFailure()
             << "entry " << i << " of " << size << " is " << log[i];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(AppendLogUnit, ReadsBackEverySize) {
  Log log;
  EXPECT_TRUE(log.empty());
  for (size_t n = 0; n <= 300; ++n) {
    FillTo(&log, n, 1);
    ASSERT_TRUE(Holds(log, n, n, 1, 1));
    if (n > 0) {
      ASSERT_EQ(log.back(), Tagged(1, n - 1));
    }
  }
}

TEST(AppendLogUnit, CopiesStayFrozenWhileTheOriginalAppends) {
  const std::vector<size_t> sizes = {0,   1,   2,   63,  64, 65,
                                     126, 127, 128, 191, 192};
  Log log;
  std::vector<Log> copies;
  for (size_t n : sizes) {
    FillTo(&log, n, 1);
    copies.push_back(log);
  }
  FillTo(&log, 300, 1);
  ASSERT_TRUE(Holds(log, 300, 300, 1, 1));
  for (size_t k = 0; k < sizes.size(); ++k) {
    EXPECT_TRUE(Holds(copies[k], sizes[k], sizes[k], 1, 1));
  }
}

TEST(AppendLogUnit, DivergedCopiesReadBackOnlyTheirOwnAppends) {
  // Split points on and off block boundaries and at the directory
  // growth. Either side may append first: the one that falls behind
  // forks, sharing the full blocks and copying the partial one.
  for (size_t split : {0, 1, 2, 3, 5, 62, 63, 64, 100, 126, 127, 128, 150,
                       190, 191, 192, 255, 256}) {
    for (bool copy_first : {false, true}) {
      Log original;
      FillTo(&original, split, 1);
      Log copy = original;
      if (copy_first) {
        FillTo(&copy, split + 1, 2);
        FillTo(&original, split + 1, 3);
      }
      FillTo(&original, 400, 3);
      FillTo(&copy, 300, 2);
      ASSERT_TRUE(Holds(original, 400, split, 1, 3)) << split;
      ASSERT_TRUE(Holds(copy, 300, split, 1, 2)) << split;
    }
    // Copies of copies fork again: three continuations of one prefix.
    Log a;
    FillTo(&a, split, 1);
    Log b = a;
    Log c = b;
    FillTo(&b, split + 70, 2);
    FillTo(&c, split + 5, 3);
    FillTo(&a, split + 200, 4);
    EXPECT_TRUE(Holds(a, split + 200, split, 1, 4)) << split;
    EXPECT_TRUE(Holds(b, split + 70, split, 1, 2)) << split;
    EXPECT_TRUE(Holds(c, split + 5, split, 1, 3)) << split;
  }
}

TEST(AppendLogUnit, MovedFromLogIsEmptyAndAppendable) {
  Log log;
  FillTo(&log, 150, 1);
  Log moved = std::move(log);
  EXPECT_TRUE(Holds(moved, 150, 150, 1, 1));
  EXPECT_TRUE(log.empty());  // NOLINT(bugprone-use-after-move)
  FillTo(&log, 200, 2);
  EXPECT_TRUE(Holds(log, 200, 0, 1, 2));
  Log assigned;
  FillTo(&assigned, 10, 3);
  assigned = std::move(moved);
  EXPECT_TRUE(Holds(assigned, 150, 150, 1, 1));
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
  FillTo(&moved, 3, 4);
  EXPECT_TRUE(Holds(moved, 3, 0, 1, 4));

  const auto gap = [](size_t) { return storage::MomentSummary::Gap(); };
  storage::MomentIndex index;
  for (int i = 0; i < 5; ++i) index.AppendChunk(gap);
  storage::MomentIndex index_moved = std::move(index);
  EXPECT_EQ(index_moved.size(), 5u);
  EXPECT_EQ(index.size(), 0u);  // NOLINT(bugprone-use-after-move)
  index.AppendChunk(gap);
  EXPECT_EQ(index.FirstGap(0, 0, 1), 0u);
}

TEST(AppendLogUnit, EntriesLiveUntilTheLastHandleDrops) {
  // Element lifetime follows the blocks: dropping a copy releases
  // nothing the original still holds, and the last handle frees them
  // all, forked partial blocks included.
  auto tracked = std::make_shared<int>(7);
  std::weak_ptr<int> watch = tracked;
  {
    storage::AppendLog<std::shared_ptr<int>> log;
    for (int i = 0; i < 100; ++i) log.push_back(tracked);
    auto copy = std::make_unique<storage::AppendLog<std::shared_ptr<int>>>(
        log);
    copy->push_back(tracked);  // forks: copies the partial block
    log.push_back(nullptr);
    tracked.reset();
    EXPECT_FALSE(watch.expired());
    copy.reset();
    EXPECT_FALSE(watch.expired());
    EXPECT_EQ(*log[99], 7);
    EXPECT_EQ(log[100], nullptr);
  }
  EXPECT_TRUE(watch.expired());
}

// ------------------------------------------------------------------
// RangeMinMax unit oracle: sparse table vs a left-to-right scan.
// ------------------------------------------------------------------

TEST(RangeMinMaxIndex, BitwiseEqualToScanOnEveryRange) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> val(-1e6, 1e6);
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{64},
                   size_t{65}, size_t{100}}) {
    std::vector<double> values(n);
    for (double& v : values) v = val(rng);
    RangeMinMax table(values);
    ASSERT_EQ(table.size(), n);
    for (size_t start = 0; start < n; ++start) {
      for (size_t len = 1; len <= n - start; ++len) {
        double mn = values[start];
        double mx = values[start];
        for (size_t i = 1; i < len; ++i) {
          mn = std::min(mn, values[start + i]);
          mx = std::max(mx, values[start + i]);
        }
        ASSERT_EQ(table.Min(start, len), mn) << n << ":" << start << "+"
                                             << len;
        ASSERT_EQ(table.Max(start, len), mx) << n << ":" << start << "+"
                                             << len;
      }
    }
  }
}

TEST(RangeMinMaxIndex, ResetRebuildsAndEmptyClears) {
  RangeMinMax table(std::vector<double>{3.0, 1.0, 2.0});
  EXPECT_EQ(table.Min(0, 3), 1.0);
  table.Reset(std::vector<double>{5.0, 4.0});
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Min(0, 2), 4.0);
  EXPECT_EQ(table.Max(0, 2), 5.0);
  table.Reset({});
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(table.CoversRange(0, 1));
}

// ------------------------------------------------------------------
// Engine-level differential oracle: indexed vs legacy scan path.
// ------------------------------------------------------------------

/// Indexed and legacy views built from the identical transmission stream.
struct EnginePair {
  storage::CompressedHistory indexed{kMBase};
  storage::CompressedHistory legacy{kMBase,
                                    storage::IndexOptions{.enabled = false}};
  storage::DecodedHistory history{kMBase};
  std::vector<size_t> version_change_chunks;
};

void CheckAligned(const EnginePair& p, size_t signal, size_t t0, size_t t1,
                  const std::string& label) {
  ASSERT_TRUE(p.indexed.index_enabled());
  ASSERT_FALSE(p.legacy.index_enabled());
  auto a = p.indexed.Aggregate(signal, t0, t1);
  auto b = p.legacy.Aggregate(signal, t0, t1);
  ASSERT_EQ(a.ok(), b.ok()) << label << ": " << a.status().ToString()
                            << " vs " << b.status().ToString();
  if (!a.ok()) {
    // Same typed error, same message — including the first-gap chunk id.
    EXPECT_EQ(a.status().code(), b.status().code()) << label;
    EXPECT_EQ(a.status().message(), b.status().message()) << label;
    return;
  }
  ASSERT_EQ(a->count, b->count) << label;
  EXPECT_EQ(a->min, b->min) << label;  // bitwise: exact selection fold
  EXPECT_EQ(a->max, b->max) << label;
  const double n = static_cast<double>(b->count);
  EXPECT_NEAR(a->sum, b->sum, 1e-9 * (std::abs(b->sum) + n)) << label;
  EXPECT_NEAR(a->avg, b->avg, 1e-9 * (std::abs(b->avg) + 1.0)) << label;
  const double var_scale =
      std::abs(b->variance) + b->avg * b->avg + 1.0;
  EXPECT_NEAR(a->variance, b->variance, 1e-8 * var_scale) << label;
}

void RunAlignedRanges(const EnginePair& p, uint64_t range_seed) {
  const size_t len = p.indexed.history_len();
  const size_t num_signals = p.indexed.num_signals();
  ASSERT_EQ(len, p.legacy.history_len());
  std::mt19937_64 rng(range_seed);
  std::uniform_int_distribution<size_t> pick_t(0, len - 1);
  std::uniform_int_distribution<size_t> pick_s(0, num_signals - 1);

  for (int q = 0; q < 16; ++q) {
    size_t a = pick_t(rng), b = pick_t(rng);
    if (a > b) std::swap(a, b);
    CheckAligned(p, pick_s(rng), a, b + 1,
                 "random [" + std::to_string(a) + "," +
                     std::to_string(b + 1) + ")");
  }
  // Single-sample ranges: the indexed path degenerates to one boundary
  // fold (no interior nodes) — the decomposition's corner case.
  for (int q = 0; q < 6; ++q) {
    const size_t t = pick_t(rng);
    CheckAligned(p, pick_s(rng), t, t + 1,
                 "single-sample@" + std::to_string(t));
  }
  CheckAligned(p, pick_s(rng), 0, len, "full-history");
  // Chunk-aligned ranges hit the pure-interior path (no boundary folds).
  CheckAligned(p, pick_s(rng), kChunkLen, len - kChunkLen, "aligned-wide");
  for (size_t c = 1; c < p.indexed.num_chunks(); ++c) {
    const size_t edge = c * kChunkLen;
    CheckAligned(p, pick_s(rng), edge - 3, edge + 3,
                 "chunk-straddle@" + std::to_string(edge));
  }
  for (size_t c : p.version_change_chunks) {
    CheckAligned(p, pick_s(rng), (c - 1) * kChunkLen + kChunkLen / 2,
                 c * kChunkLen + kChunkLen / 2,
                 "base-version-crossing@" + std::to_string(c));
  }
}

void BuildPair(const datagen::Dataset& dataset, core::ErrorMetric metric,
               core::BaseStrategy strategy, EnginePair* out) {
  const size_t num_signals = dataset.num_signals();
  const size_t n = num_signals * kChunkLen;
  core::EncoderOptions opts;
  opts.total_band = n / 8;
  opts.m_base = kMBase;
  opts.metric = metric;
  opts.base_strategy = strategy;
  core::SbrEncoder encoder(opts);

  std::vector<double> chunk(n);
  for (size_t c = 0; c < kChunks; ++c) {
    for (size_t s = 0; s < num_signals; ++s) {
      for (size_t k = 0; k < kChunkLen; ++k) {
        chunk[s * kChunkLen + k] = dataset.values(s, c * kChunkLen + k);
      }
    }
    auto t = encoder.EncodeChunk(chunk, num_signals);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    const size_t versions_before = out->indexed.num_base_versions();
    ASSERT_TRUE(out->indexed.Ingest(*t).ok());
    ASSERT_TRUE(out->legacy.Ingest(*t).ok());
    ASSERT_TRUE(out->history.Ingest(*t).ok());
    if (c > 0 && out->indexed.num_base_versions() > versions_before) {
      out->version_change_chunks.push_back(c);
    }
  }
}

TEST(QueryIndex, IndexedAggregatesMatchLegacyScan) {
  const std::string families[] = {"weather", "stock", "phone"};
  const core::ErrorMetric metrics[] = {core::ErrorMetric::kSse,
                                       core::ErrorMetric::kMaxAbs};
  for (const std::string& family : families) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      for (core::ErrorMetric metric : metrics) {
        SCOPED_TRACE(family + "/seed" + std::to_string(seed) + "/metric" +
                     std::to_string(static_cast<int>(metric)));
        EnginePair p;
        BuildPair(MakeDataset(family, 500 + seed, kChunks * kChunkLen),
                  metric, core::BaseStrategy::kGetBase, &p);
        if (::testing::Test::HasFatalFailure()) return;
        RunAlignedRanges(p, seed * 131 + static_cast<uint64_t>(metric));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(QueryIndex, SelfContainedChunksMatchLegacyScan) {
  // BaseStrategy::kNone emits chunks with no base reference at all — the
  // indexed path must fold their direct linear intervals exactly like the
  // scan (no base RMQ involved anywhere).
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    SCOPED_TRACE("self-contained/seed" + std::to_string(seed));
    EnginePair p;
    BuildPair(MakeDataset("weather", 900 + seed, kChunks * kChunkLen),
              core::ErrorMetric::kSse, core::BaseStrategy::kNone, &p);
    if (::testing::Test::HasFatalFailure()) return;
    RunAlignedRanges(p, 900 + seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(QueryIndex, GapSemanticsMatchLegacyScanToTheByte) {
  // Gap layout exercising every index gap path: chunk 0 lost BEFORE the
  // first ingest (geometry unknown — the backfill path), a two-chunk run
  // {4, 5} lost mid-stream, survivors everywhere else.
  const datagen::Dataset dataset =
      MakeDataset("weather", 1234, kChunks * kChunkLen);
  const size_t num_signals = dataset.num_signals();
  const size_t n = num_signals * kChunkLen;
  core::EncoderOptions opts;
  opts.total_band = n / 8;
  opts.m_base = kMBase;
  core::SbrEncoder encoder(opts);

  EnginePair p;
  std::vector<double> chunk(n);
  for (size_t c = 0; c < kChunks; ++c) {
    if (c == 0 || c == 4 || c == 5) {
      p.indexed.MarkGap(1);
      p.legacy.MarkGap(1);
      p.history.MarkGap(1);
      continue;
    }
    for (size_t s = 0; s < num_signals; ++s) {
      for (size_t k = 0; k < kChunkLen; ++k) {
        chunk[s * kChunkLen + k] = dataset.values(s, c * kChunkLen + k);
      }
    }
    auto t = encoder.EncodeChunk(chunk, num_signals);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    ASSERT_TRUE(p.indexed.Ingest(*t).ok());
    ASSERT_TRUE(p.legacy.Ingest(*t).ok());
    ASSERT_TRUE(p.history.Ingest(*t).ok());
  }
  ASSERT_EQ(p.indexed.num_gaps(), 3u);
  for (size_t c : {size_t{0}, size_t{4}, size_t{5}}) {
    ASSERT_TRUE(p.indexed.IsGap(c));
    ASSERT_TRUE(p.legacy.IsGap(c));
  }

  const size_t len = p.indexed.history_len();
  // Abutting a gap from either side succeeds on both paths; touching it
  // by one sample is DataLoss with the identical message. A wide range
  // over several gaps names the LOWEST lost chunk inside the range.
  CheckAligned(p, 0, kChunkLen, 4 * kChunkLen, "between-gaps");
  CheckAligned(p, 0, 6 * kChunkLen, len, "after-gap-run");
  CheckAligned(p, 0, kChunkLen - 1, 4 * kChunkLen, "touch-left-gap");
  CheckAligned(p, 0, kChunkLen, 4 * kChunkLen + 1, "touch-mid-gap");
  CheckAligned(p, 0, 6 * kChunkLen - 1, len, "touch-gap-run-tail");
  CheckAligned(p, 0, 0, len, "all-gaps-wide");
  CheckAligned(p, 0, 4 * kChunkLen + kChunkLen / 2,
               5 * kChunkLen + kChunkLen / 2, "inside-gap-run");

  auto wide = p.indexed.Aggregate(0, kChunkLen, len);
  ASSERT_EQ(wide.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(wide.status().message(), "range touches lost chunk 4");
  auto from_start = p.indexed.Aggregate(0, 0, 2 * kChunkLen);
  ASSERT_EQ(from_start.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(from_start.status().message(), "range touches lost chunk 0");

  RunAlignedRanges(p, 1234);
}

// ------------------------------------------------------------------
// DecodedHistory::AggregateExact vs a raw recompute over QueryRange.
// ------------------------------------------------------------------

TEST(QueryIndex, DecodedHistoryExactAggregatesMatchRawRecompute) {
  const datagen::Dataset dataset =
      MakeDataset("stock", 321, kChunks * kChunkLen);
  const size_t num_signals = dataset.num_signals();
  const size_t n = num_signals * kChunkLen;
  core::EncoderOptions opts;
  opts.total_band = n / 8;
  opts.m_base = kMBase;
  core::SbrEncoder encoder(opts);

  storage::DecodedHistory store(kMBase);
  std::vector<double> chunk(n);
  for (size_t c = 0; c < kChunks; ++c) {
    if (c == 3) {
      store.MarkGap(1);
      continue;
    }
    for (size_t s = 0; s < num_signals; ++s) {
      for (size_t k = 0; k < kChunkLen; ++k) {
        chunk[s * kChunkLen + k] = dataset.values(s, c * kChunkLen + k);
      }
    }
    auto t = encoder.EncodeChunk(chunk, num_signals);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    ASSERT_TRUE(store.Ingest(*t).ok());
  }

  std::mt19937_64 rng(321);
  const size_t len = store.history_len();
  std::uniform_int_distribution<size_t> pick_t(0, len - 1);
  std::uniform_int_distribution<size_t> pick_s(0, num_signals - 1);
  size_t checked_ok = 0;
  for (int q = 0; q < 200; ++q) {
    size_t a = pick_t(rng), b = pick_t(rng);
    if (a > b) std::swap(a, b);
    const size_t s = pick_s(rng);
    auto agg = store.AggregateExact(s, a, b + 1);
    auto raw = store.QueryRange(s, a, b + 1);
    ASSERT_EQ(agg.ok(), raw.ok()) << a << "," << b + 1;
    if (!agg.ok()) {
      EXPECT_EQ(agg.status().code(), raw.status().code());
      EXPECT_EQ(agg.status().message(), raw.status().message());
      continue;
    }
    ++checked_ok;
    double sum = 0.0, mn = (*raw)[0], mx = (*raw)[0];
    for (double v : *raw) {
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    ASSERT_EQ(agg->count, raw->size());
    EXPECT_EQ(agg->min, mn);  // bitwise: same selection candidates
    EXPECT_EQ(agg->max, mx);
    EXPECT_NEAR(agg->sum, sum,
                1e-9 * (std::abs(sum) + static_cast<double>(raw->size())));
  }
  EXPECT_GE(checked_ok, 50u);  // the gap must not have eaten the oracle
  // Abut vs touch around the lost chunk, exact-side.
  EXPECT_TRUE(store.AggregateExact(0, 0, 3 * kChunkLen).ok());
  EXPECT_TRUE(store.AggregateExact(0, 4 * kChunkLen, len).ok());
  auto touch = store.AggregateExact(0, 0, 3 * kChunkLen + 1);
  ASSERT_EQ(touch.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(touch.status().message(), "range touches lost chunk 3");
}

// ------------------------------------------------------------------
// Concurrency: readers over shared sealed blocks while ingest advances.
// ------------------------------------------------------------------

TEST(QueryIndexParallel, ConcurrentWideReadsOverSharedSealedBlocks) {
  // Writer publishes epochs (copying the per-signal indexes block-wise)
  // while readers run wide indexed aggregates on pinned snapshots. Under
  // TSan this pins that sealed blocks really are immutable-shared; the
  // bitwise repeat check pins that a pinned epoch's answers are frozen.
  constexpr size_t kStreamChunks = 48;
  const datagen::Dataset dataset =
      MakeDataset("weather", 55, kStreamChunks * kChunkLen);
  const size_t num_signals = dataset.num_signals();
  const size_t n = num_signals * kChunkLen;
  core::EncoderOptions opts;
  opts.total_band = n / 8;
  opts.m_base = kMBase;
  core::SbrEncoder encoder(opts);
  std::vector<core::Transmission> stream;
  std::vector<double> chunk(n);
  for (size_t c = 0; c < kStreamChunks; ++c) {
    for (size_t s = 0; s < num_signals; ++s) {
      for (size_t k = 0; k < kChunkLen; ++k) {
        chunk[s * kChunkLen + k] = dataset.values(s, c * kChunkLen + k);
      }
    }
    auto t = encoder.EncodeChunk(chunk, num_signals);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    stream.push_back(std::move(*t));
  }

  storage::QueryServiceOptions sopts;
  sopts.m_base = kMBase;
  storage::QueryService service(sopts);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(1000 + static_cast<uint64_t>(r));
      size_t my_reads = 0;
      // Keep reading past ingest completion until this reader has done a
      // minimum amount of real work — on a loaded single-core box the
      // writer can finish before a reader ever gets a timeslice.
      while (!done.load(std::memory_order_acquire) || my_reads < 25) {
        auto snap = service.Snapshot(7);
        if (snap == nullptr || snap->compressed.num_chunks() == 0) continue;
        const size_t len = snap->compressed.history_len();
        const size_t lo = rng() % len;
        auto a = snap->compressed.Aggregate(0, lo, len);
        auto b = snap->compressed.Aggregate(0, lo, len);
        if (!a.ok() || !b.ok()) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Same pinned epoch, same range: bitwise identical answers.
        if (a->sum != b->sum || a->min != b->min || a->max != b->max ||
            a->count != b->count || a->count != len - lo) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        ++my_reads;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (const core::Transmission& t : stream) {
    ASSERT_TRUE(service.Ingest(7, t).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(reads.load(), 0u);

  // The final service answer equals a fresh single-threaded indexed
  // rebuild of the same stream, bitwise (identical fold order).
  storage::CompressedHistory rebuilt(kMBase);
  for (const core::Transmission& t : stream) {
    ASSERT_TRUE(rebuilt.Ingest(t).ok());
  }
  const size_t len = rebuilt.history_len();
  auto got = service.Aggregate(7, 0, 0, len);
  auto want = rebuilt.Aggregate(0, 0, len);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->sum, want->sum);
  EXPECT_EQ(got->min, want->min);
  EXPECT_EQ(got->max, want->max);
  EXPECT_EQ(got->variance, want->variance);
  EXPECT_EQ(got->count, want->count);
}

}  // namespace
}  // namespace sbr
