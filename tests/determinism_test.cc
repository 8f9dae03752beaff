// Determinism and reproducibility guarantees: identical inputs and seeds
// must yield bit-identical datasets, transmissions and reconstructions
// across runs — the property every bench table and EXPERIMENTS.md number
// relies on. Also pins a few structural "golden" facts about the fixed
// paper setups, and digests of whole NetworkSim reports over lossy links,
// so accidental algorithm, generator or simulator changes surface here
// instead of silently shifting the experiment outputs.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

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

// Folds one 64-bit word into an FNV-1a digest, byte by byte.
void Mix(uint64_t* h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (word >> (8 * i)) & 0xffu;
    *h *= 0x100000001b3ull;
  }
}

void MixDouble(uint64_t* h, double v) { Mix(h, std::bit_cast<uint64_t>(v)); }

// Digest of the full report: every NodeReport field (doubles by bit
// pattern, the energy account component by component) and every run
// total, in placement order.
uint64_t ReportDigest(const net::SimulationReport& r) {
  uint64_t h = 0xcbf29ce484222325ull;
  Mix(&h, r.nodes.size());
  for (const net::NodeReport& n : r.nodes) {
    for (uint64_t v :
         {uint64_t{n.id}, uint64_t{n.transmissions}, uint64_t{n.values_sent},
          uint64_t{n.values_raw}, uint64_t{n.retransmissions},
          uint64_t{n.backoff_slots}, uint64_t{n.corrupt_frames_detected},
          uint64_t{n.duplicates_suppressed}, uint64_t{n.resyncs_triggered},
          uint64_t{n.degraded_batches}, uint64_t{n.chunks_lost},
          uint64_t{n.frames_abandoned}, uint64_t{n.retries_shed},
          uint64_t{n.forwarded_copies}, uint64_t{n.malformed_relayed},
          uint64_t{n.charged_values}}) {
      Mix(&h, v);
    }
    for (double v : {n.energy.tx_nj, n.energy.rx_nj, n.energy.overhear_nj,
                     n.energy.cpu_nj, n.energy.backoff_nj, n.raw_energy_nj,
                     n.sse}) {
      MixDouble(&h, v);
    }
  }
  for (uint64_t v :
       {uint64_t{r.total_values_sent}, uint64_t{r.total_values_raw},
        uint64_t{r.total_chunks_lost}, uint64_t{r.total_corrupt_frames},
        uint64_t{r.total_duplicates_suppressed}, uint64_t{r.total_resyncs},
        uint64_t{r.total_degraded_batches}}) {
    Mix(&h, v);
  }
  for (double v : {r.total_energy_nj, r.total_raw_energy_nj, r.total_sse}) {
    MixDouble(&h, v);
  }
  return h;
}

constexpr size_t kPinNodes = 5;

// A lossy link harsh enough, with a low attempt budget, to fire every
// delivery path: retries, duplicates, reorder buffering, CRC rejects,
// resync snapshots, degraded re-encodes and DataLoss write-offs.
net::LinkOptions PinLink() {
  net::LinkOptions link;
  link.loss_probability = 0.5;
  link.duplicate_probability = 0.15;
  link.reorder_probability = 0.2;
  link.bit_flip_probability = 0.1;
  link.max_attempts = 3;
  link.max_resync_rounds = 1;
  return link;
}

std::vector<datagen::Dataset> PinFeeds() {
  datagen::WeatherOptions wopts;
  wopts.length = 1536;
  std::vector<datagen::Dataset> feeds;
  for (uint32_t id = 0; id < kPinNodes; ++id) {
    wopts.seed = 500 + id;
    feeds.push_back(datagen::GenerateWeather(wopts));
  }
  return feeds;
}

std::vector<net::NodePlacement> PinPlacements() {
  std::vector<net::NodePlacement> placements;
  for (uint32_t id = 0; id < kPinNodes; ++id) {
    placements.push_back({id, id % 2 + 1});
  }
  return placements;
}

core::EncoderOptions PinEncoder() {
  core::EncoderOptions opts;
  opts.total_band = 150;
  opts.m_base = 128;
  return opts;
}

net::SimulationReport RunPinned(net::TopologyShape shape) {
  net::TopologyOptions topts;
  topts.shape = shape;
  topts.num_nodes = kPinNodes;
  topts.seed = 7;
  net::NetworkSim sim(net::Topology::Build(topts), PinPlacements(),
                      PinEncoder(), /*chunk_len=*/128, net::EnergyParams(),
                      PinLink());
  auto report = sim.Run(PinFeeds());
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

// The lossy runs must actually reach the paths the pins guard.
void ExpectRecoveryPathsFired(const net::SimulationReport& r) {
  EXPECT_GT(r.total_corrupt_frames, 0u);
  EXPECT_GT(r.total_duplicates_suppressed, 0u);
  EXPECT_GT(r.total_resyncs, 0u);
  EXPECT_GT(r.total_degraded_batches, 0u);
  EXPECT_GT(r.total_chunks_lost, 0u);
}

// Report digests of NetworkSim runs over a lossy link, one per routing
// shape. Nodes run in placement order; the constants were recorded when
// nodes could still be fanned out over a thread pool (at threads = 1), so
// they pin that the serial loop and the origin-major relay-charge merge
// reproduce every counter and every energy/SSE bit.
TEST(Determinism, SimulationReportPinnedPerTopology) {
  const struct {
    net::TopologyShape shape;
    uint64_t digest;
  } kPins[] = {
      {net::TopologyShape::kStar, 0xc4a03e4d8a647954ull},
      {net::TopologyShape::kChain, 0xe47864df3263c12dull},
      {net::TopologyShape::kBinary, 0xae20da6a1887d827ull},
      {net::TopologyShape::kRandom, 0xc6781378bb4467f6ull},
  };
  for (const auto& pin : kPins) {
    const net::SimulationReport r = RunPinned(pin.shape);
    ASSERT_EQ(r.nodes.size(), kPinNodes);
    ExpectRecoveryPathsFired(r);
    size_t forwarded = 0;
    for (const auto& n : r.nodes) forwarded += n.forwarded_copies;
    EXPECT_EQ(forwarded > 0, pin.shape != net::TopologyShape::kStar)
        << net::ToString(pin.shape);
    EXPECT_EQ(ReportDigest(r), pin.digest)
        << net::ToString(pin.shape) << " digest 0x" << std::hex
        << ReportDigest(r);
  }
}

TEST(Determinism, SimulationReportPinnedLegacyPlacement) {
  // The placement-only constructor: private chains of 1 or 2 hops.
  net::NetworkSim sim(PinPlacements(), PinEncoder(), /*chunk_len=*/128,
                      net::EnergyParams(), PinLink());
  auto r = sim.Run(PinFeeds());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectRecoveryPathsFired(*r);
  EXPECT_EQ(ReportDigest(*r), 0x09b1839b71bee851ull)
      << "digest 0x" << std::hex << ReportDigest(*r);
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
