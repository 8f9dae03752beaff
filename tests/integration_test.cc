// Cross-module integration tests: miniature versions of the paper's
// experiments wired end-to-end through the real datasets, the full
// compressor set and the sensor/base-station pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "compress/dct_compressor.h"
#include "compress/histogram.h"
#include "compress/linear_model.h"
#include "compress/sbr_compressor.h"
#include "compress/wavelet.h"
#include "datagen/dataset.h"
#include "datagen/phonecall.h"
#include "datagen/weather.h"
#include "net/base_station.h"
#include "net/node.h"
#include "util/stats.h"

namespace sbr {
namespace {

// Runs `chunks` transmissions of `setup` through a compressor and returns
// the summed SSE.
double TotalSse(compress::ChunkCompressor& c, const datagen::Dataset& ds,
                size_t chunk_len, size_t budget, size_t num_chunks) {
  double total = 0;
  for (size_t i = 0; i < num_chunks; ++i) {
    const auto chunk = ds.Chunk(i, chunk_len);
    const auto y = datagen::ConcatRows(chunk);
    auto rec = c.CompressAndReconstruct(y, ds.num_signals(), budget);
    EXPECT_TRUE(rec.ok()) << c.Name() << ": " << rec.status().ToString();
    total += SumSquaredError(y, *rec);
  }
  return total;
}

TEST(Integration, MiniPaperComparisonOnWeather) {
  // A scaled-down Table 2: SBR must beat DCT and histograms on weather
  // data at a 15% ratio, and be competitive with (here: beat) wavelets.
  datagen::WeatherOptions wopts;
  wopts.length = 4096;  // 4 chunks of 1024
  wopts.seed = 2002;
  const datagen::Dataset ds = datagen::GenerateWeather(wopts);
  const size_t chunk_len = 1024;
  const size_t n = ds.num_signals() * chunk_len;
  const size_t budget = n * 15 / 100;

  core::EncoderOptions sbr_opts;
  sbr_opts.total_band = budget;
  sbr_opts.m_base = 512;
  compress::SbrCompressor sbr(sbr_opts);
  compress::WaveletCompressor wavelet;
  compress::DctCompressor dct;
  compress::HistogramCompressor hist(compress::HistogramKind::kEquiDepth);

  const double e_sbr = TotalSse(sbr, ds, chunk_len, budget, 4);
  const double e_wav = TotalSse(wavelet, ds, chunk_len, budget, 4);
  const double e_dct = TotalSse(dct, ds, chunk_len, budget, 4);
  const double e_hist = TotalSse(hist, ds, chunk_len, budget, 4);

  EXPECT_LT(e_sbr, e_wav) << "sbr=" << e_sbr << " wavelet=" << e_wav;
  EXPECT_LT(e_sbr, e_dct);
  EXPECT_LT(e_sbr, e_hist);
}

TEST(Integration, SbrBeatsLinearRegressionOnPhoneData) {
  datagen::PhoneCallOptions popts;
  popts.length = 4320;  // 3 days
  const datagen::Dataset full = datagen::GeneratePhoneCalls(popts);
  const datagen::Dataset ds = full.SelectSignals({0, 1, 4, 12}, "phone4");
  const size_t chunk_len = 1440;
  const size_t n = ds.num_signals() * chunk_len;
  const size_t budget = n / 10;

  core::EncoderOptions sbr_opts;
  sbr_opts.total_band = budget;
  sbr_opts.m_base = 512;
  compress::SbrCompressor sbr(sbr_opts);
  compress::LinearModelCompressor lin;

  const double e_sbr = TotalSse(sbr, ds, chunk_len, budget, 3);
  const double e_lin = TotalSse(lin, ds, chunk_len, budget, 3);
  EXPECT_LT(e_sbr, e_lin);
}

TEST(Integration, RelativeErrorMetricImprovesRelativeScore) {
  // Encoding under the relative metric must produce a better relative
  // error than encoding under plain SSE (on data with mixed magnitudes).
  datagen::PhoneCallOptions popts;
  popts.length = 2880;
  const datagen::Dataset full = datagen::GeneratePhoneCalls(popts);
  const datagen::Dataset ds = full.SelectSignals({1, 3}, "mixed_mag");
  const size_t chunk_len = 1440;
  const size_t budget = 2 * 1440 / 10;

  auto run = [&](core::ErrorMetric metric) {
    core::EncoderOptions opts;
    opts.total_band = budget;
    opts.m_base = 256;
    opts.metric = metric;
    compress::SbrCompressor sbr(opts);
    double rel = 0;
    for (size_t c = 0; c < 2; ++c) {
      const auto y = datagen::ConcatRows(ds.Chunk(c, chunk_len));
      auto rec = sbr.CompressAndReconstruct(y, 2, budget);
      EXPECT_TRUE(rec.ok());
      rel += SumSquaredRelativeError(y, *rec);
    }
    return rel;
  };
  const double rel_under_sse = run(core::ErrorMetric::kSse);
  const double rel_under_rel = run(core::ErrorMetric::kSseRelative);
  EXPECT_LT(rel_under_rel, rel_under_sse);
}

TEST(Integration, SensorToStationPipelineWithWire) {
  // Full path: samples -> node batches -> serialized transmission ->
  // station log + history -> range query ~ truth.
  datagen::WeatherOptions wopts;
  wopts.length = 768;
  wopts.seed = 7;
  const datagen::Dataset ds = datagen::GenerateWeather(wopts);

  core::EncoderOptions opts;
  opts.total_band = 400;
  opts.m_base = 256;
  net::SensorNode node(42, ds.num_signals(), 256, opts);
  net::BaseStation station(opts.m_base);

  std::vector<double> sample(ds.num_signals());
  for (size_t t = 0; t < ds.length(); ++t) {
    for (size_t s = 0; s < ds.num_signals(); ++s) {
      sample[s] = ds.values(s, t);
    }
    auto r = node.AddSamples(sample);
    ASSERT_TRUE(r.ok());
    if (r->has_value()) {
      core::Frame frame = node.MakeDataFrame(**r);
      BinaryWriter w;
      frame.Serialize(&w);
      auto ack = station.ReceiveBytes(w.buffer());
      ASSERT_TRUE(ack.ok());
      ASSERT_EQ(ack->type, net::AckType::kAccept);
    }
  }
  auto history = station.History(42);
  ASSERT_TRUE(history.ok());
  EXPECT_EQ((*history)->history_len(), 768u);

  // Air temperature reconstruction error small vs its variance.
  auto approx = (*history)->QueryRange(0, 0, 768);
  ASSERT_TRUE(approx.ok());
  std::vector<double> truth(768);
  for (size_t t = 0; t < 768; ++t) truth[t] = ds.values(0, t);
  const double err = SumSquaredError(truth, *approx);
  const double var = Variance(truth) * 768;
  EXPECT_LT(err, 0.25 * var);

  // The log replays to the same answer.
  auto log = station.Log(42);
  ASSERT_TRUE(log.ok());
  auto replayed = storage::CompressedHistory::FromLog(**log, opts.m_base);
  ASSERT_TRUE(replayed.ok());
  auto again = replayed->QueryRange(0, 0, 768);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*approx, *again);
}

TEST(Integration, WarmBaseSignalBeatsColdStart) {
  // The paper's warm-up claim: a sensor whose base signal is already
  // populated approximates a chunk at least as well as a cold sensor that
  // must spend bandwidth building its base from scratch on that chunk.
  datagen::WeatherOptions wopts;
  wopts.length = 6 * 512;
  wopts.seed = 11;
  const datagen::Dataset ds = datagen::GenerateWeather(wopts);
  core::EncoderOptions opts;
  opts.total_band = 460;  // ~15% of 3072
  opts.m_base = 512;
  compress::SbrCompressor warm(opts);

  double warm_err = 0, cold_err = 0;
  for (size_t c = 0; c < 6; ++c) {
    const auto y = datagen::ConcatRows(ds.Chunk(c, 512));
    auto rec = warm.CompressAndReconstruct(y, ds.num_signals(),
                                           opts.total_band);
    ASSERT_TRUE(rec.ok());
    if (c == 0) continue;  // chunk 0 warms the base; not scored
    warm_err += SumSquaredError(y, *rec);

    // A cold encoder sees this chunk as its very first transmission.
    compress::SbrCompressor cold(opts);
    auto cold_rec = cold.CompressAndReconstruct(y, ds.num_signals(),
                                                opts.total_band);
    ASSERT_TRUE(cold_rec.ok());
    cold_err += SumSquaredError(y, *cold_rec);
  }
  EXPECT_LT(warm_err, cold_err * 1.05);
}

TEST(Integration, EveryCompressorHonorsTheSharedBudget) {
  datagen::WeatherOptions wopts;
  wopts.length = 512;
  const datagen::Dataset ds = datagen::GenerateWeather(wopts);
  const auto y = datagen::ConcatRows(ds.Chunk(0, 512));
  const size_t budget = y.size() / 5;

  core::EncoderOptions sbr_opts;
  sbr_opts.total_band = budget;
  sbr_opts.m_base = 512;

  std::vector<std::unique_ptr<compress::ChunkCompressor>> all;
  all.push_back(std::make_unique<compress::SbrCompressor>(sbr_opts));
  all.push_back(std::make_unique<compress::WaveletCompressor>());
  all.push_back(std::make_unique<compress::DctCompressor>());
  all.push_back(std::make_unique<compress::HistogramCompressor>());
  all.push_back(std::make_unique<compress::LinearModelCompressor>());
  for (auto& c : all) {
    auto rec = c->CompressAndReconstruct(y, ds.num_signals(), budget);
    ASSERT_TRUE(rec.ok()) << c->Name();
    EXPECT_EQ(rec->size(), y.size()) << c->Name();
    double finite = 0;
    for (double v : *rec) finite += std::isfinite(v) ? 0 : 1;
    EXPECT_EQ(finite, 0) << c->Name();
  }
}

}  // namespace
}  // namespace sbr
