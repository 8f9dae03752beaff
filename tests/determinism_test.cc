// Determinism and reproducibility guarantees: identical inputs and seeds
// must yield bit-identical datasets, transmissions and reconstructions
// across runs — the property every bench table and EXPERIMENTS.md number
// relies on. Also pins a few structural "golden" facts about the fixed
// paper setups so accidental algorithm or generator changes surface here
// instead of silently shifting the experiment outputs.
#include <gtest/gtest.h>

#include <cmath>

#include "core/decoder.h"
#include "core/encoder.h"
#include "datagen/paper_datasets.h"
#include "datagen/weather.h"
#include "net/network.h"
#include "util/rng.h"

namespace sbr {
namespace {

std::vector<uint8_t> EncodeToBytes(const datagen::ExperimentSetup& setup,
                                   size_t chunks, size_t ratio_pct) {
  const size_t n = setup.dataset.num_signals() * setup.chunk_len;
  core::EncoderOptions opts;
  opts.total_band = n * ratio_pct / 100;
  opts.m_base = setup.m_base;
  core::SbrEncoder enc(opts);
  BinaryWriter w;
  for (size_t c = 0; c < chunks; ++c) {
    const auto y = datagen::ConcatRows(setup.dataset.Chunk(c, setup.chunk_len));
    auto t = enc.EncodeChunk(y, setup.dataset.num_signals());
    EXPECT_TRUE(t.ok());
    t->Serialize(&w);
  }
  return w.TakeBuffer();
}

TEST(Determinism, DatasetsAreBitReproducible) {
  const auto a = datagen::PaperWeatherSetup();
  const auto b = datagen::PaperWeatherSetup();
  ASSERT_EQ(a.dataset.length(), b.dataset.length());
  for (size_t s = 0; s < a.dataset.num_signals(); ++s) {
    for (size_t i = 0; i < a.dataset.length(); i += 997) {
      ASSERT_DOUBLE_EQ(a.dataset.values(s, i), b.dataset.values(s, i));
    }
  }
}

TEST(Determinism, EncoderOutputIsBitReproducible) {
  const auto setup = datagen::Fig6StockSetup();
  const auto run1 = EncodeToBytes(setup, 2, 10);
  const auto run2 = EncodeToBytes(setup, 2, 10);
  EXPECT_EQ(run1, run2);
}

TEST(Determinism, RngStreamsArePlatformPinned) {
  // The first few xoshiro256++ outputs for a fixed seed; these values are
  // part of the reproducibility contract (they never depend on libc).
  Rng rng(42);
  EXPECT_EQ(rng.NextU64(), 15021278609987233951ull);
  Rng rng2(0);
  (void)rng2.NextU64();  // seed 0 must be usable (SplitMix64 mixing)
  EXPECT_NE(rng2.NextU64(), 0ull);
}

TEST(Determinism, PaperSetupStructuralGoldens) {
  // Structural facts the experiments rely on; a change here means every
  // number in EXPERIMENTS.md must be regenerated.
  {
    const auto s = datagen::PaperWeatherSetup();
    const size_t n = s.dataset.num_signals() * s.chunk_len;
    EXPECT_EQ(n, 24576u);
    EXPECT_EQ(static_cast<size_t>(std::sqrt(static_cast<double>(n))), 156u);
  }
  {
    const auto s = datagen::Fig6PhoneSetup();
    const size_t n = s.dataset.num_signals() * s.chunk_len;
    EXPECT_EQ(n, 30720u);
    EXPECT_EQ(static_cast<size_t>(std::sqrt(static_cast<double>(n))), 175u);
  }
}

void ExpectNodeReportsEqual(const net::NodeReport& a, const net::NodeReport& b,
                            size_t threads) {
  EXPECT_EQ(a.id, b.id) << "threads=" << threads;
  EXPECT_EQ(a.transmissions, b.transmissions) << "threads=" << threads;
  EXPECT_EQ(a.values_sent, b.values_sent) << "threads=" << threads;
  EXPECT_EQ(a.values_raw, b.values_raw) << "threads=" << threads;
  EXPECT_EQ(a.retransmissions, b.retransmissions) << "threads=" << threads;
  EXPECT_EQ(a.backoff_slots, b.backoff_slots) << "threads=" << threads;
  EXPECT_EQ(a.corrupt_frames_detected, b.corrupt_frames_detected)
      << "threads=" << threads;
  EXPECT_EQ(a.duplicates_suppressed, b.duplicates_suppressed)
      << "threads=" << threads;
  EXPECT_EQ(a.resyncs_triggered, b.resyncs_triggered) << "threads=" << threads;
  EXPECT_EQ(a.degraded_batches, b.degraded_batches) << "threads=" << threads;
  EXPECT_EQ(a.chunks_lost, b.chunks_lost) << "threads=" << threads;
  EXPECT_EQ(a.frames_abandoned, b.frames_abandoned) << "threads=" << threads;
  EXPECT_EQ(a.retries_shed, b.retries_shed) << "threads=" << threads;
  EXPECT_EQ(a.forwarded_copies, b.forwarded_copies) << "threads=" << threads;
  EXPECT_EQ(a.charged_values, b.charged_values) << "threads=" << threads;
  EXPECT_EQ(a.energy.total_nj(), b.energy.total_nj()) << "threads=" << threads;
  EXPECT_EQ(a.raw_energy_nj, b.raw_energy_nj) << "threads=" << threads;
  EXPECT_EQ(a.sse, b.sse) << "threads=" << threads;
}

TEST(Determinism, NetworkReportIdenticalAcrossThreadCounts) {
  // Concurrent node simulation over adversarial links (drops, duplicates,
  // reordering, bit flips — exercising the serialized base station and the
  // per-node corrupt-frame attribution) must still yield a bitwise
  // identical report at any thread count.
  datagen::WeatherOptions wopts;
  wopts.length = 512;
  std::vector<datagen::Dataset> feeds;
  std::vector<net::NodePlacement> placements;
  for (uint32_t id = 0; id < 4; ++id) {
    wopts.seed = 300 + id;
    feeds.push_back(datagen::GenerateWeather(wopts));
    placements.push_back({id, id % 2 + 1});
  }
  net::LinkOptions link;
  link.loss_probability = 0.1;
  link.duplicate_probability = 0.05;
  link.reorder_probability = 0.05;
  link.bit_flip_probability = 0.02;

  auto run = [&](size_t threads) {
    core::EncoderOptions opts;
    opts.total_band = 300;
    opts.m_base = 256;
    opts.threads = threads;
    net::NetworkSim sim(placements, opts, /*chunk_len=*/256,
                        net::EnergyParams(), link);
    auto report = sim.Run(feeds);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(report).value();
  };

  const auto serial = run(1);
  ASSERT_EQ(serial.nodes.size(), 4u);
  for (size_t threads : {2u, 4u, 8u}) {
    const auto r = run(threads);
    ASSERT_EQ(r.nodes.size(), serial.nodes.size());
    for (size_t i = 0; i < r.nodes.size(); ++i) {
      ExpectNodeReportsEqual(r.nodes[i], serial.nodes[i], threads);
    }
    EXPECT_EQ(r.total_values_sent, serial.total_values_sent);
    EXPECT_EQ(r.total_values_raw, serial.total_values_raw);
    EXPECT_EQ(r.total_energy_nj, serial.total_energy_nj);
    EXPECT_EQ(r.total_raw_energy_nj, serial.total_raw_energy_nj);
    EXPECT_EQ(r.total_sse, serial.total_sse);
    EXPECT_EQ(r.total_chunks_lost, serial.total_chunks_lost);
    EXPECT_EQ(r.total_corrupt_frames, serial.total_corrupt_frames);
    EXPECT_EQ(r.total_duplicates_suppressed, serial.total_duplicates_suppressed);
    EXPECT_EQ(r.total_resyncs, serial.total_resyncs);
    EXPECT_EQ(r.total_degraded_batches, serial.total_degraded_batches);
  }
}

TEST(Determinism, TreeTopologyReportIdenticalAcrossThreadCounts) {
  // Tree routing shares relays between concurrently simulated nodes, so
  // relay energy lands in per-origin accumulators merged in a fixed order
  // after the parallel phase. The merged report must still be bitwise
  // identical at any thread count.
  datagen::WeatherOptions wopts;
  wopts.length = 512;
  std::vector<datagen::Dataset> feeds;
  std::vector<net::NodePlacement> placements;
  for (uint32_t id = 0; id < 4; ++id) {
    wopts.seed = 400 + id;
    feeds.push_back(datagen::GenerateWeather(wopts));
    placements.push_back({id, 1});
  }
  net::TopologyOptions topts;
  topts.shape = net::TopologyShape::kChain;
  topts.num_nodes = 4;
  net::LinkOptions link;
  link.loss_probability = 0.1;
  link.duplicate_probability = 0.05;
  link.bit_flip_probability = 0.02;

  auto run = [&](size_t threads) {
    core::EncoderOptions opts;
    opts.total_band = 300;
    opts.m_base = 256;
    opts.threads = threads;
    net::NetworkSim sim(net::Topology::Build(topts), placements,
                        opts, /*chunk_len=*/256, net::EnergyParams(), link);
    auto report = sim.Run(feeds);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(report).value();
  };

  const auto serial = run(1);
  ASSERT_EQ(serial.nodes.size(), 4u);
  size_t forwarded = 0;
  for (const auto& n : serial.nodes) forwarded += n.forwarded_copies;
  EXPECT_GT(forwarded, 0u) << "chain must route through relays";
  for (size_t threads : {2u, 4u, 8u}) {
    const auto r = run(threads);
    ASSERT_EQ(r.nodes.size(), serial.nodes.size());
    for (size_t i = 0; i < r.nodes.size(); ++i) {
      ExpectNodeReportsEqual(r.nodes[i], serial.nodes[i], threads);
    }
    EXPECT_EQ(r.total_energy_nj, serial.total_energy_nj);
    EXPECT_EQ(r.total_sse, serial.total_sse);
  }
}

TEST(Determinism, DecoderIsPureFunctionOfTransmissionSequence) {
  const auto setup = datagen::Fig6WeatherSetup();
  const size_t n = setup.dataset.num_signals() * setup.chunk_len;
  core::EncoderOptions opts;
  opts.total_band = n / 10;
  opts.m_base = setup.m_base;
  core::SbrEncoder enc(opts);

  std::vector<core::Transmission> stream;
  for (size_t c = 0; c < 3; ++c) {
    const auto y = datagen::ConcatRows(setup.dataset.Chunk(c, setup.chunk_len));
    auto t = enc.EncodeChunk(y, setup.dataset.num_signals());
    ASSERT_TRUE(t.ok());
    stream.push_back(std::move(t).value());
  }
  core::SbrDecoder d1(core::DecoderOptions{opts.m_base});
  core::SbrDecoder d2(core::DecoderOptions{opts.m_base});
  for (const auto& t : stream) {
    auto a = d1.DecodeChunk(t);
    auto b = d2.DecodeChunk(t);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(*a, *b);
  }
}

}  // namespace
}  // namespace sbr
