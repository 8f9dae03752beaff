// Unit tests for the util substrate: Status/StatusOr, the deterministic
// RNG, binary serialization, error metrics / statistics, prefix sums and
// CSV I/O.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/crc32.h"
#include "util/csv.h"
#include "util/prefix_sums.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/stats.h"
#include "util/status.h"

namespace sbr {
namespace {

// ---------------------------------------------------------------- Status

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad thing");
}

TEST(Status, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kNotFound,
        StatusCode::kDataLoss, StatusCode::kInternal,
        StatusCode::kUnimplemented}) {
    EXPECT_STRNE(StatusCodeName(c), "UNKNOWN");
  }
}

TEST(Status, Equality) {
  EXPECT_EQ(Status::Ok(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

Status FailsThrough() {
  SBR_RETURN_IF_ERROR(Status::DataLoss("inner"));
  return Status::Ok();
}

TEST(Status, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailsThrough().code(), StatusCode::kDataLoss);
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOr, MoveOut) {
  StatusOr<std::vector<int>> v = std::vector<int>{1, 2, 3};
  std::vector<int> taken = std::move(v).value();
  EXPECT_EQ(taken.size(), 3u);
}

// ------------------------------------------------------------------- Rng

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ReseedReplays) {
  Rng r(77);
  const uint64_t first = r.NextU64();
  r.NextU64();
  r.Seed(77);
  EXPECT_EQ(r.NextU64(), first);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeWithoutBias) {
  Rng r(9);
  std::array<int, 7> counts{};
  const int trials = 70000;
  for (int i = 0; i < trials; ++i) {
    const int64_t v = r.UniformInt(3, 9);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 9);
    ++counts[v - 3];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, trials / 7.0, trials * 0.01);
  }
}

TEST(Rng, GaussianMomentsMatch) {
  Rng r(11);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(r.Gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0, 0.02);
}

TEST(Rng, GaussianScaled) {
  Rng r(12);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(r.Gaussian(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(stats.variance()), 2.0, 0.05);
}

TEST(Rng, PoissonSmallMean) {
  Rng r(13);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.Add(static_cast<double>(r.Poisson(3.5)));
  }
  EXPECT_NEAR(stats.mean(), 3.5, 0.05);
  EXPECT_NEAR(stats.variance(), 3.5, 0.15);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
  Rng r(14);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    const int64_t v = r.Poisson(400.0);
    ASSERT_GE(v, 0);
    stats.Add(static_cast<double>(v));
  }
  EXPECT_NEAR(stats.mean(), 400.0, 1.0);
  EXPECT_NEAR(stats.variance(), 400.0, 20.0);
}

TEST(Rng, PoissonZeroMean) {
  Rng r(15);
  EXPECT_EQ(r.Poisson(0.0), 0);
}

TEST(Rng, ExponentialMean) {
  Rng r(16);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(r.Exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, SampleIndicesDistinctSortedInRange) {
  Rng r(17);
  for (int trial = 0; trial < 100; ++trial) {
    const auto sample = r.SampleIndices(50, 10);
    ASSERT_EQ(sample.size(), 10u);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
    EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
    for (size_t v : sample) EXPECT_LT(v, 50u);
  }
}

TEST(Rng, SampleIndicesFullRange) {
  Rng r(18);
  const auto sample = r.SampleIndices(5, 5);
  EXPECT_EQ(sample, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

// ------------------------------------------------------------- Serialize

TEST(Serialize, RoundTripPrimitives) {
  BinaryWriter w;
  w.PutU8(0xab);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefull);
  w.PutI64(-12345);
  w.PutDouble(3.14159);
  w.PutString("hello");
  w.PutDoubles(std::vector<double>{1.5, -2.5, 1e300});

  BinaryReader r(w.buffer());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double d;
  std::string s;
  std::vector<double> ds;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetI64(&i64).ok());
  ASSERT_TRUE(r.GetDouble(&d).ok());
  ASSERT_TRUE(r.GetString(&s).ok());
  ASSERT_TRUE(r.GetDoubles(&ds).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i64, -12345);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(ds, (std::vector<double>{1.5, -2.5, 1e300}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serialize, DoubleBitExactRoundTrip) {
  const double specials[] = {0.0, -0.0, 1e-308, -1e308,
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min()};
  for (double v : specials) {
    BinaryWriter w;
    w.PutDouble(v);
    BinaryReader r(w.buffer());
    double out;
    ASSERT_TRUE(r.GetDouble(&out).ok());
    EXPECT_EQ(std::bit_cast<uint64_t>(v), std::bit_cast<uint64_t>(out));
  }
}

TEST(Serialize, TruncatedInputFailsCleanly) {
  BinaryWriter w;
  w.PutU64(7);
  std::span<const uint8_t> half(w.buffer().data(), 4);
  BinaryReader r(half);
  uint64_t v;
  EXPECT_EQ(r.GetU64(&v).code(), StatusCode::kDataLoss);
}

TEST(Serialize, TruncatedDoublesArrayFails) {
  BinaryWriter w;
  w.PutU32(100);  // claims 100 doubles but provides none
  BinaryReader r(w.buffer());
  std::vector<double> out;
  EXPECT_EQ(r.GetDoubles(&out).code(), StatusCode::kDataLoss);
}

TEST(Serialize, EmptyContainers) {
  BinaryWriter w;
  w.PutString("");
  w.PutDoubles(std::span<const double>{});
  BinaryReader r(w.buffer());
  std::string s;
  std::vector<double> ds{99.0};
  ASSERT_TRUE(r.GetString(&s).ok());
  ASSERT_TRUE(r.GetDoubles(&ds).ok());
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(ds.empty());
}

// ----------------------------------------------------------------- Stats

TEST(Stats, SumSquaredError) {
  std::vector<double> a{1, 2, 3};
  std::vector<double> b{1, 4, 0};
  EXPECT_DOUBLE_EQ(SumSquaredError(a, b), 4.0 + 9.0);
  EXPECT_DOUBLE_EQ(SumSquaredError(a, a), 0.0);
}

TEST(Stats, SumSquaredRelativeErrorUsesFloor) {
  std::vector<double> truth{0.0};  // |truth| below the floor of 1.0
  std::vector<double> approx{2.0};
  EXPECT_DOUBLE_EQ(SumSquaredRelativeError(truth, approx), 4.0);
  std::vector<double> truth2{10.0};
  std::vector<double> approx2{11.0};
  EXPECT_DOUBLE_EQ(SumSquaredRelativeError(truth2, approx2), 0.01);
}

TEST(Stats, MaxAbsoluteError) {
  std::vector<double> a{1, 2, 3};
  std::vector<double> b{2, 0, 3.5};
  EXPECT_DOUBLE_EQ(MaxAbsoluteError(a, b), 2.0);
}

TEST(Stats, MeanVarianceExtent) {
  std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_DOUBLE_EQ(Variance(v), 4.0);
  const MinMax mm = Extent(v);
  EXPECT_DOUBLE_EQ(mm.min, 2.0);
  EXPECT_DOUBLE_EQ(mm.max, 9.0);
}

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
}

TEST(Stats, PearsonCorrelation) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> z{10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
  std::vector<double> c{3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, c), 0.0);
}

TEST(Stats, RunningStatsMatchesBatch) {
  Rng r(21);
  std::vector<double> values;
  RunningStats rs;
  for (int i = 0; i < 1000; ++i) {
    const double v = r.Uniform(-10, 10);
    values.push_back(v);
    rs.Add(v);
  }
  EXPECT_NEAR(rs.mean(), Mean(values), 1e-9);
  EXPECT_NEAR(rs.variance(), Variance(values), 1e-9);
  const MinMax mm = Extent(values);
  EXPECT_DOUBLE_EQ(rs.min(), mm.min);
  EXPECT_DOUBLE_EQ(rs.max(), mm.max);
  EXPECT_EQ(rs.count(), 1000u);
}

// ----------------------------------------------------------- PrefixSums

TEST(PrefixSums, MatchesNaiveRangeSums) {
  Rng r(30);
  std::vector<double> v(257);
  for (auto& x : v) x = r.Uniform(-5, 5);
  PrefixSums ps(v);
  EXPECT_EQ(ps.size(), v.size());
  for (size_t start : {0u, 1u, 100u, 255u}) {
    for (size_t len : {1u, 2u, 7u}) {
      if (start + len > v.size()) continue;
      double sum = 0, sum2 = 0;
      for (size_t i = start; i < start + len; ++i) {
        sum += v[i];
        sum2 += v[i] * v[i];
      }
      EXPECT_NEAR(ps.RangeSum(start, len), sum, 1e-9);
      EXPECT_NEAR(ps.RangeSumSquares(start, len), sum2, 1e-9);
    }
  }
}

TEST(PrefixSums, ResetReplacesSeries) {
  PrefixSums ps(std::vector<double>{1, 2, 3});
  EXPECT_DOUBLE_EQ(ps.RangeSum(0, 3), 6.0);
  ps.Reset(std::vector<double>{10, 10});
  EXPECT_EQ(ps.size(), 2u);
  EXPECT_DOUBLE_EQ(ps.RangeSum(0, 2), 20.0);
}

TEST(PrefixSums, AppendMatchesReset) {
  // Incremental growth must produce bitwise the same tables as a fresh
  // build over the full series — the encode pipeline relies on this when
  // Search extends the trial base one candidate at a time.
  Rng r(31);
  std::vector<double> v(97);
  for (auto& x : v) x = r.Uniform(-3, 3);

  PrefixSums incremental;
  for (double x : v) incremental.Append(x);
  PrefixSums fresh(v);

  ASSERT_EQ(incremental.size(), fresh.size());
  for (size_t start = 0; start < v.size(); start += 13) {
    for (size_t len : {1u, 5u, 31u}) {
      if (!fresh.CoversRange(start, len)) continue;
      // Exact equality, not NEAR: the append path performs the identical
      // left-to-right additions as the reset path.
      EXPECT_EQ(incremental.RangeSum(start, len), fresh.RangeSum(start, len));
      EXPECT_EQ(incremental.RangeSumSquares(start, len),
                fresh.RangeSumSquares(start, len));
    }
  }
}

TEST(PrefixSums, AppendOntoExistingSeries) {
  PrefixSums ps(std::vector<double>{1, 2});
  ps.Append(3);
  ps.Append(4);
  EXPECT_EQ(ps.size(), 4u);
  EXPECT_DOUBLE_EQ(ps.RangeSum(0, 4), 10.0);
  EXPECT_DOUBLE_EQ(ps.RangeSumSquares(2, 2), 25.0);
}

TEST(PrefixSums, CoversRangeIsOverflowSafe) {
  PrefixSums ps(std::vector<double>{1, 2, 3});
  EXPECT_TRUE(ps.CoversRange(0, 3));
  EXPECT_TRUE(ps.CoversRange(3, 0));
  EXPECT_FALSE(ps.CoversRange(0, 4));
  EXPECT_FALSE(ps.CoversRange(4, 0));
  // start + length would wrap to a small value; the naive
  // `start + length <= size` check would accept these.
  const size_t huge = std::numeric_limits<size_t>::max();
  EXPECT_FALSE(ps.CoversRange(huge, 2));
  EXPECT_FALSE(ps.CoversRange(2, huge));
  EXPECT_FALSE(ps.CoversRange(huge, huge));
}

// ------------------------------------------------------------------- Csv

TEST(Csv, WriteReadRoundTrip) {
  const std::string path = testing::TempDir() + "/sbr_csv_test.csv";
  CsvTable table;
  table.columns = {"a", "b"};
  table.rows = {{1.5, -2.25}, {3.0, 1e-7}};
  ASSERT_TRUE(WriteCsv(path, table).ok());
  auto read = ReadCsv(path, /*has_header=*/true);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->columns, table.columns);
  ASSERT_EQ(read->rows.size(), 2u);
  EXPECT_DOUBLE_EQ(read->rows[0][0], 1.5);
  EXPECT_DOUBLE_EQ(read->rows[1][1], 1e-7);
  std::filesystem::remove(path);
}

TEST(Csv, HeaderlessRead) {
  const std::string path = testing::TempDir() + "/sbr_csv_nh.csv";
  CsvTable table;
  table.rows = {{1, 2, 3}};
  ASSERT_TRUE(WriteCsv(path, table).ok());
  auto read = ReadCsv(path, /*has_header=*/false);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->columns.empty());
  EXPECT_EQ(read->rows[0], (std::vector<double>{1, 2, 3}));
  std::filesystem::remove(path);
}

TEST(Csv, RaggedRowsRejected) {
  const std::string path = testing::TempDir() + "/sbr_csv_ragged.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("1,2\n3\n", f);
    std::fclose(f);
  }
  auto read = ReadCsv(path, /*has_header=*/false);
  EXPECT_FALSE(read.ok());
  std::filesystem::remove(path);
}

TEST(Csv, NonNumericCellRejected) {
  const std::string path = testing::TempDir() + "/sbr_csv_alpha.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("1,abc\n", f);
    std::fclose(f);
  }
  auto read = ReadCsv(path, /*has_header=*/false);
  EXPECT_FALSE(read.ok());
  std::filesystem::remove(path);
}

TEST(Csv, MissingFileIsNotFound) {
  auto read = ReadCsv("/nonexistent/dir/file.csv", false);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

// ----------------------------------------------------------------- CRC32

/// Bitwise CRC-32 (IEEE, reflected polynomial 0xEDB88320), one bit per
/// step: the reference the table-driven implementation is held to.
uint32_t ReferenceCrc32Update(uint32_t state, std::span<const uint8_t> data) {
  for (uint8_t byte : data) {
    state ^= byte;
    for (int k = 0; k < 8; ++k) {
      state = (state & 1u) ? 0xedb88320u ^ (state >> 1) : state >> 1;
    }
  }
  return state;
}

TEST(Crc32, KnownCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32({reinterpret_cast<const uint8_t*>(check.data()),
                   check.size()}),
            0xcbf43926u);
  EXPECT_EQ(Crc32({}), 0u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..1100 from each of the 8 start alignments, so every tail
  // length of the 8-byte stride and every misaligned load is covered.
  Rng rng(1234);
  std::vector<uint8_t> buf(1100 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 1100; ++len) {
      const std::span<const uint8_t> data(buf.data() + align, len);
      ASSERT_EQ(Crc32Update(kCrc32Init, data),
                ReferenceCrc32Update(kCrc32Init, data))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32, SplitUpdateChainsEqualOneShot) {
  Rng rng(99);
  std::vector<uint8_t> buf(1100);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  const uint32_t whole = Crc32(buf);
  for (int trial = 0; trial < 300; ++trial) {
    // Random split points, including empty pieces and single bytes.
    size_t a = static_cast<size_t>(rng.UniformInt(0, 1100));
    size_t b = static_cast<size_t>(rng.UniformInt(0, 1100));
    if (a > b) std::swap(a, b);
    const std::span<const uint8_t> all(buf);
    uint32_t state = Crc32Update(kCrc32Init, all.subspan(0, a));
    state = Crc32Update(state, all.subspan(a, b - a));
    state = Crc32Update(state, all.subspan(b));
    ASSERT_EQ(Crc32Finalize(state), whole) << a << " " << b;
  }
}

}  // namespace
}  // namespace sbr
