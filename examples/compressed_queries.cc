// Compressed-domain analytics: aggregate queries served straight from the
// SBR representation, never materializing the reconstructed series.
// Because each interval is an affine image of a base segment, SUM / AVG /
// VARIANCE over any time range reduce to prefix sums over the base-signal
// snapshot — O(intervals touched) instead of O(samples).
//
//   $ ./compressed_queries
#include <chrono>
#include <cmath>
#include <cstdio>

#include "core/encoder.h"
#include "datagen/weather.h"
#include "storage/query_engine.h"

int main() {
  using namespace sbr;

  // A year of 10-minute weather data, compressed in monthly batches.
  datagen::WeatherOptions wopts;
  wopts.length = 144 * 360;  // 360 days
  wopts.seed = 2002;
  const datagen::Dataset ds = datagen::GenerateWeather(wopts);
  const size_t chunk_len = 144 * 30;  // one month per transmission
  const size_t n = ds.num_signals() * chunk_len;

  core::EncoderOptions opts;
  opts.total_band = n / 10;
  opts.m_base = 2048;
  core::SbrEncoder encoder(opts);

  storage::CompressedHistory queries(opts.m_base);
  for (size_t c = 0; c < ds.NumChunks(chunk_len); ++c) {
    const auto y = datagen::ConcatRows(ds.Chunk(c, chunk_len));
    auto t = encoder.EncodeChunk(y, ds.num_signals());
    if (!t.ok()) {
      std::fprintf(stderr, "encode failed: %s\n",
                   t.status().ToString().c_str());
      return 1;
    }
    if (!queries.Ingest(*t).ok()) return 1;
  }
  std::printf("%zu months compressed; %zu base-signal versions retained\n\n",
              queries.num_chunks(), queries.num_base_versions());

  // Monthly temperature climate summary, straight from compressed form.
  std::printf("month  avg_temp  min_temp  max_temp  stddev\n");
  for (size_t month = 0; month < queries.num_chunks(); ++month) {
    auto agg = queries.Aggregate(/*air_temp=*/0, month * chunk_len,
                                 (month + 1) * chunk_len);
    if (!agg.ok()) return 1;
    std::printf("%5zu  %8.2f  %8.2f  %8.2f  %6.2f\n", month, agg->avg,
                agg->min, agg->max, std::sqrt(agg->variance));
  }

  // Compare the cost: compressed-domain vs decode-then-scan (the range
  // reconstructed on demand, then summed), over many random ranges.
  const size_t kQueries = 2000;
  const size_t len = queries.history_len();
  double sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t q = 0; q < kQueries; ++q) {
    const size_t a = (q * 7919) % (len - 2000);
    auto agg = queries.Aggregate(4, a, a + 2000);
    if (agg.ok()) sink += agg->sum;
  }
  const double fast =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const auto t1 = std::chrono::steady_clock::now();
  for (size_t q = 0; q < kQueries; ++q) {
    const size_t a = (q * 7919) % (len - 2000);
    auto range = queries.QueryRange(4, a, a + 2000);
    if (range.ok()) {
      for (double v : *range) sink += v;
    }
  }
  const double slow =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
          .count();
  std::printf(
      "\n%zu range-SUM queries over solar irradiance: compressed-domain "
      "%.3f s vs decode-then-scan %.3f s (%.1fx)\n",
      kQueries, fast, slow, slow / fast);
  (void)sink;
  return 0;
}
