// Unit tests for the sensor-network substrate: the energy model, the
// batching sensor node, the base station, the routing topology and the
// end-to-end simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>

#include "datagen/weather.h"
#include "net/base_station.h"
#include "net/energy.h"
#include "net/network.h"
#include "net/node.h"
#include "net/topology.h"
#include "storage/query_service.h"
#include "util/rng.h"

namespace sbr::net {
namespace {

// ---------------------------------------------------------------- Energy

TEST(Energy, TransmissionCostScalesWithValuesAndHops) {
  EnergyModel model;
  EnergyAccount one, two;
  model.ChargeTransmission(100, 1, &one);
  model.ChargeTransmission(100, 2, &two);
  EXPECT_NEAR(two.total_nj(), 2.0 * one.total_nj(), 1e-6);

  EnergyAccount big;
  model.ChargeTransmission(200, 1, &big);
  EXPECT_NEAR(big.total_nj(), 2.0 * one.total_nj(), 1e-6);
}

TEST(Energy, ComponentsBrokenOut) {
  EnergyParams params;
  params.bits_per_value = 10;
  params.tx_nj_per_bit = 7;
  params.rx_nj_per_bit = 3;
  params.overhear_neighbors = 2;
  EnergyModel model(params);
  EnergyAccount acc;
  model.ChargeTransmission(5, 1, &acc);  // 50 bits
  EXPECT_DOUBLE_EQ(acc.tx_nj, 350.0);
  EXPECT_DOUBLE_EQ(acc.rx_nj, 150.0);
  EXPECT_DOUBLE_EQ(acc.overhear_nj, 300.0);
  EXPECT_DOUBLE_EQ(acc.total_nj(), 800.0);
  EXPECT_DOUBLE_EQ(model.RawTransmissionNj(5, 1), 800.0);
}

TEST(Energy, CpuChargeUsesInstructionCost) {
  EnergyModel model;
  EnergyAccount acc;
  model.ChargeCpu(1000.0, &acc);
  EXPECT_NEAR(acc.cpu_nj, 1000.0 * model.params().cpu_nj_per_instruction,
              1e-9);
}

TEST(Energy, TransmitBitCostsRoughlyThousandInstructions) {
  // The MICA figure the paper cites; keep the default parameters honest.
  EnergyParams params;
  EXPECT_NEAR(params.tx_nj_per_bit / params.cpu_nj_per_instruction, 1000.0,
              1.0);
}

// ------------------------------------------------------------ SensorNode

core::EncoderOptions NodeOptions() {
  core::EncoderOptions opts;
  opts.total_band = 100;
  opts.m_base = 64;
  return opts;
}

TEST(SensorNode, EmitsOnExactlyFullBuffer) {
  SensorNode node(7, 2, 64, NodeOptions());
  Rng rng(1);
  std::vector<double> sample(2);
  for (size_t i = 0; i < 63; ++i) {
    sample[0] = rng.Uniform(0, 1);
    sample[1] = rng.Uniform(0, 1);
    auto r = node.AddSamples(sample);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->has_value()) << "premature flush at " << i;
  }
  EXPECT_EQ(node.buffered(), 63u);
  auto r = node.AddSamples(sample);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->has_value());
  EXPECT_EQ(node.buffered(), 0u);
  EXPECT_EQ(node.transmissions(), 1u);
  EXPECT_EQ((*r)->num_signals, 2u);
  EXPECT_EQ((*r)->chunk_len, 64u);
}

TEST(SensorNode, RejectsWrongSampleWidth) {
  SensorNode node(1, 3, 16, NodeOptions());
  std::vector<double> sample(2);
  EXPECT_FALSE(node.AddSamples(sample).ok());
}

TEST(SensorNode, MultipleBatchesReuseBuffer) {
  SensorNode node(1, 1, 32, NodeOptions());
  Rng rng(2);
  size_t emitted = 0;
  for (size_t i = 0; i < 100; ++i) {
    std::vector<double> sample{rng.Uniform(0, 1)};
    auto r = node.AddSamples(sample);
    ASSERT_TRUE(r.ok());
    if (r->has_value()) ++emitted;
  }
  EXPECT_EQ(emitted, 3u);  // 100 / 32
  EXPECT_EQ(node.buffered(), 4u);
}

// -------------------------------------------------------------- Topology

TEST(Topology, ShapesAreWellFormed) {
  {
    Topology t = Topology::Build({TopologyShape::kChain, 5, 1});
    EXPECT_EQ(t.parent(0), Topology::kBase);
    for (size_t i = 1; i < 5; ++i) EXPECT_EQ(t.parent(i), i - 1);
    EXPECT_EQ(t.depth(0), 1u);
    EXPECT_EQ(t.depth(4), 5u);
    EXPECT_EQ(t.max_depth(), 5u);
    EXPECT_TRUE(t.is_relay(0));
    EXPECT_FALSE(t.is_relay(4));
  }
  {
    Topology t = Topology::Build({TopologyShape::kBinary, 7, 1});
    for (size_t i = 1; i < 7; ++i) EXPECT_EQ(t.parent(i), (i - 1) / 2);
    EXPECT_EQ(t.max_depth(), 3u);
    EXPECT_EQ(t.children(0).size(), 2u);
  }
  {
    Topology t = Topology::Build({TopologyShape::kStar, 4, 1});
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(t.parent(i), Topology::kBase);
      EXPECT_EQ(t.depth(i), 1u);
      EXPECT_FALSE(t.is_relay(i));
    }
    EXPECT_TRUE(t.Relays().empty());
    EXPECT_EQ(t.max_depth(), 1u);
  }
}

TEST(Topology, RandomTreesAreSeedDeterministic) {
  TopologyOptions o;
  o.shape = TopologyShape::kRandom;
  o.num_nodes = 32;
  o.seed = 9;
  const Topology a = Topology::Build(o);
  const Topology b = Topology::Build(o);
  for (size_t i = 0; i < o.num_nodes; ++i) {
    EXPECT_EQ(a.parent(i), b.parent(i)) << "node " << i;
    // Every parent precedes its child (or is the base): the forward-pass
    // construction and the uplink paths rely on it.
    EXPECT_TRUE(a.parent(i) == Topology::kBase || a.parent(i) < i)
        << "node " << i;
  }
  o.seed = 10;
  const Topology c = Topology::Build(o);
  bool differs = false;
  for (size_t i = 0; i < o.num_nodes && !differs; ++i) {
    differs = a.parent(i) != c.parent(i);
  }
  EXPECT_TRUE(differs) << "seed change did not move any edge";
}

TEST(Topology, PathsRelaysAndDescendantsAgree) {
  const Topology t = Topology::Build({TopologyShape::kBinary, 7, 1});
  const std::vector<size_t>& path = t.path(6);  // 6 -> 2 -> 0 -> base
  ASSERT_EQ(path.size(), t.depth(6));
  EXPECT_EQ(path[0], 6u);
  EXPECT_EQ(path[1], 2u);
  EXPECT_EQ(path[2], 0u);
  EXPECT_TRUE(t.IsAncestor(0, 6));
  EXPECT_TRUE(t.IsAncestor(2, 6));
  EXPECT_FALSE(t.IsAncestor(1, 6));
  EXPECT_FALSE(t.IsAncestor(6, 6));
  EXPECT_EQ(t.Relays(), (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(t.Descendants(2), (std::vector<size_t>{5, 6}));
  EXPECT_EQ(t.Descendants(0).size(), 6u);
  EXPECT_TRUE(t.Descendants(3).empty());
}

TEST(Topology, SingleNodeForestIsWellFormed) {
  // Every shape degenerates to the same one-node forest: the node is
  // base-adjacent, relays nothing and has a one-element uplink path.
  for (TopologyShape shape :
       {TopologyShape::kStar, TopologyShape::kChain, TopologyShape::kBinary,
        TopologyShape::kRandom}) {
    const Topology t = Topology::Build({shape, 1, 3});
    ASSERT_EQ(t.num_nodes(), 1u) << ToString(shape);
    EXPECT_EQ(t.parent(0), Topology::kBase) << ToString(shape);
    EXPECT_EQ(t.depth(0), 1u) << ToString(shape);
    EXPECT_EQ(t.max_depth(), 1u) << ToString(shape);
    EXPECT_FALSE(t.is_relay(0)) << ToString(shape);
    EXPECT_TRUE(t.Relays().empty()) << ToString(shape);
    EXPECT_TRUE(t.Descendants(0).empty()) << ToString(shape);
    EXPECT_FALSE(t.IsAncestor(0, 0)) << ToString(shape);
    ASSERT_EQ(t.path(0).size(), 1u) << ToString(shape);
    EXPECT_EQ(t.path(0)[0], 0u) << ToString(shape);
  }
}

TEST(Topology, AncestryAndDescendantsAtLeavesAndRoot) {
  // Chain of 4: 3 -> 2 -> 1 -> 0 -> base. The root (node 0) is an ancestor
  // of everything below it and a descendant of nothing; the deepest leaf
  // (node 3) is the reverse. IsAncestor is strict: no node is its own
  // ancestor, and it is direction-sensitive.
  const Topology t = Topology::Build({TopologyShape::kChain, 4, 1});
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_TRUE(t.IsAncestor(0, i)) << "node " << i;
    EXPECT_FALSE(t.IsAncestor(i, 0)) << "node " << i;
  }
  for (size_t i = 0; i < 4; ++i) EXPECT_FALSE(t.IsAncestor(i, i));
  EXPECT_TRUE(t.Descendants(3).empty());
  EXPECT_EQ(t.Descendants(0), (std::vector<size_t>{1, 2, 3}));
  EXPECT_FALSE(t.is_relay(3));
  EXPECT_TRUE(t.is_relay(0));

  // Binary tree leaves: no descendants, every path node above them is a
  // strict ancestor.
  const Topology b = Topology::Build({TopologyShape::kBinary, 7, 1});
  for (size_t leaf : {3u, 4u, 5u, 6u}) {
    EXPECT_TRUE(b.Descendants(leaf).empty()) << "leaf " << leaf;
    const std::vector<size_t>& path = b.path(leaf);
    for (size_t h = 1; h < path.size(); ++h) {
      EXPECT_TRUE(b.IsAncestor(path[h], leaf))
          << "leaf " << leaf << " hop " << h;
    }
  }
}

TEST(Topology, RandomTreeStableAcrossRepeatedConstruction) {
  // Build the same random tree many times: every derived structure (paths,
  // children, descendants, relay set), not just the parent array, must come
  // out identical — reproducing a chaos seed depends on it.
  TopologyOptions o;
  o.shape = TopologyShape::kRandom;
  o.num_nodes = 24;
  o.seed = 77;
  const Topology first = Topology::Build(o);
  for (int rebuild = 0; rebuild < 3; ++rebuild) {
    const Topology again = Topology::Build(o);
    ASSERT_EQ(again.num_nodes(), first.num_nodes());
    EXPECT_EQ(again.max_depth(), first.max_depth());
    EXPECT_EQ(again.Relays(), first.Relays());
    for (size_t i = 0; i < o.num_nodes; ++i) {
      EXPECT_EQ(again.parent(i), first.parent(i)) << "node " << i;
      EXPECT_EQ(again.depth(i), first.depth(i)) << "node " << i;
      EXPECT_EQ(again.path(i), first.path(i)) << "node " << i;
      EXPECT_EQ(again.children(i), first.children(i)) << "node " << i;
      EXPECT_EQ(again.Descendants(i), first.Descendants(i)) << "node " << i;
    }
  }
}

TEST(Topology, ShapeNamesRoundTrip) {
  for (TopologyShape shape :
       {TopologyShape::kStar, TopologyShape::kChain, TopologyShape::kBinary,
        TopologyShape::kRandom}) {
    auto parsed = ParseTopologyShape(ToString(shape));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, shape);
  }
  EXPECT_FALSE(ParseTopologyShape("ring").ok());
}

// ----------------------------------------------------------- BaseStation

TEST(BaseStation, TracksSensorsSeparately) {
  BaseStation station(64);
  SensorNode a(1, 1, 32, NodeOptions());
  SensorNode b(2, 1, 32, NodeOptions());
  Rng rng(3);
  for (size_t i = 0; i < 64; ++i) {
    std::vector<double> sa{std::sin(i * 0.3)};
    std::vector<double> sb{rng.Uniform(0, 10)};
    auto ra = a.AddSamples(sa);
    auto rb = b.AddSamples(sb);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    if (ra->has_value()) {
      ASSERT_TRUE(station.Receive(1, **ra).ok());
    }
    if (rb->has_value()) {
      ASSERT_TRUE(station.Receive(2, **rb).ok());
    }
  }
  EXPECT_EQ(station.num_sensors(), 2u);
  EXPECT_TRUE(station.HasSensor(1));
  EXPECT_FALSE(station.HasSensor(3));
  auto h1 = station.History(1);
  ASSERT_TRUE(h1.ok());
  EXPECT_EQ((*h1)->num_chunks(), 2u);
  EXPECT_FALSE(station.History(99).ok());
  auto log = station.Log(2);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->size(), 2u);
}

TEST(BaseStation, ReceiveBytesDecodesWire) {
  BaseStation station(64);
  SensorNode node(5, 1, 32, NodeOptions());
  Rng rng(4);
  for (size_t i = 0; i < 32; ++i) {
    std::vector<double> s{rng.Uniform(0, 1)};
    auto r = node.AddSamples(s);
    ASSERT_TRUE(r.ok());
    if (r->has_value()) {
      core::Frame frame = node.MakeDataFrame(**r);
      BinaryWriter w;
      frame.Serialize(&w);
      auto ack = station.ReceiveBytes(w.buffer());
      ASSERT_TRUE(ack.ok());
      EXPECT_EQ(ack->type, AckType::kAccept);
      EXPECT_EQ(ack->sensor_id, 5u);
    }
  }
  EXPECT_TRUE(station.HasSensor(5));
  EXPECT_EQ(station.stats(5).frames_accepted, 1u);

  // Garbage on the wire is a protocol event, not an internal error: the
  // station answers with a clean corrupt NACK and creates no sensor state.
  std::vector<uint8_t> junk{1, 2, 3};
  auto nack = station.ReceiveBytes(junk);
  ASSERT_TRUE(nack.ok());
  EXPECT_EQ(nack->type, AckType::kCorrupt);
  EXPECT_EQ(station.total_stats().corrupt_frames, 1u);
  EXPECT_FALSE(station.HasSensor(6));
}

TEST(BaseStation, RefusesQueryServiceWithMismatchedMBase) {
  // A service decoding with another m_base would turn every chunk into a
  // gap while ReceiveBytes still answered OK. The attach refuses it with
  // a message naming both values and leaves it detached.
  BaseStation station(64);
  storage::QueryService wrong(storage::QueryServiceOptions{});  // m_base 0
  const Status refused = station.AttachQueryService(&wrong);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find("m_base 0"), std::string::npos)
      << refused.message();
  EXPECT_NE(refused.message().find("m_base 64"), std::string::npos)
      << refused.message();
  EXPECT_EQ(station.query_service(), nullptr);

  storage::QueryServiceOptions opts;
  opts.m_base = 64;
  storage::QueryService service(opts);
  ASSERT_TRUE(station.AttachQueryService(&service).ok());
  EXPECT_EQ(station.query_service(), &service);
  // A refused attach keeps the service already attached.
  EXPECT_FALSE(station.AttachQueryService(&wrong).ok());
  EXPECT_EQ(station.query_service(), &service);

  SensorNode node(5, 1, 32, NodeOptions());
  Rng rng(4);
  for (size_t i = 0; i < 64; ++i) {
    std::vector<double> s{rng.Uniform(0, 1)};
    auto r = node.AddSamples(s);
    ASSERT_TRUE(r.ok());
    if (r->has_value()) {
      BinaryWriter w;
      node.MakeDataFrame(**r).Serialize(&w);
      auto ack = station.ReceiveBytes(w.buffer());
      ASSERT_TRUE(ack.ok());
      EXPECT_EQ(ack->type, AckType::kAccept);
    }
  }
  EXPECT_EQ(wrong.num_sensors(), 0u);
  EXPECT_EQ(service.epoch(5), 2u);
  auto agg = service.Aggregate(5, 0, 0, 64);
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  EXPECT_EQ(agg->count, 64u);

  // Once the station has heard from a sensor the service holds its
  // timeline, so a detach (or any attach) is refused and changes nothing.
  const Status detach = station.AttachQueryService(nullptr);
  EXPECT_EQ(detach.code(), StatusCode::kFailedPrecondition)
      << detach.ToString();
  EXPECT_EQ(station.query_service(), &service);
  EXPECT_EQ(station.AttachQueryService(&service).code(),
            StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------------ NetworkSim

// One sensor's wire frames with a loss reported by a resync snapshot and
// degraded chunks: chunk c is lost for good when c % 7 == 3 (the next
// resync snapshot reports it) and goes out self-contained when
// c % 5 == 2. Every frame is meant to be accepted in order.
std::vector<std::vector<uint8_t>> EventfulStream(uint32_t id, size_t chunks,
                                                 size_t chunk_len) {
  datagen::WeatherOptions wopts;
  wopts.length = chunks * chunk_len;
  wopts.seed = 90 + id;
  const datagen::Dataset feed = datagen::GenerateWeather(wopts);
  SensorNode node(id, feed.num_signals(), chunk_len, NodeOptions());
  std::vector<std::vector<uint8_t>> frames;
  auto push = [&](const core::Frame& frame) {
    BinaryWriter w;
    frame.Serialize(&w);
    frames.push_back(w.TakeBuffer());
  };
  std::vector<double> sample(feed.num_signals());
  for (size_t t = 0; t < feed.length(); ++t) {
    for (size_t s = 0; s < sample.size(); ++s) sample[s] = feed.values(s, t);
    auto r = node.AddSamples(sample);
    EXPECT_TRUE(r.ok());
    if (!r.ok() || !r->has_value()) continue;
    const size_t c = t / chunk_len;
    if (c % 7 == 3) {
      node.RecordLostChunk();
      push(node.BuildSnapshotFrame());
      node.MarkSnapshotDelivered();
      continue;
    }
    if (c % 5 == 2) {
      auto degraded = node.EncodeSelfContained();
      EXPECT_TRUE(degraded.ok());
      push(node.MakeDataFrame(*degraded));
    } else {
      push(node.MakeDataFrame(**r));
    }
    node.MarkChunkDelivered();
  }
  return frames;
}

TEST(BaseStation, LogsDataFramePayloadAsReceived) {
  // The durable log record of an accepted data frame is the frame's
  // payload byte for byte, behind the log's own framing.
  const std::string dir = testing::TempDir() + "/sbr_net_payload_log";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<std::vector<uint8_t>> frames = EventfulStream(3, 12, 32);
  // Sensor 7 sends one compact-wire chunk whose last coefficient is a
  // signaling NaN. It parses and is accepted, but parsing widens it to a
  // double, so re-serializing the parsed chunk would write other bytes.
  {
    SensorNode node(7, 1, 32, NodeOptions());
    Rng rng(7);
    std::optional<core::Transmission> t;
    while (!t.has_value()) {
      std::vector<double> sample{rng.Uniform(0, 1)};
      auto r = node.AddSamples(sample);
      ASSERT_TRUE(r.ok());
      if (r->has_value()) t = std::move(**r);
    }
    ASSERT_FALSE(t->quadratic);
    t->precision = core::WirePrecision::kFloat32;
    BinaryWriter payload;
    t->Serialize(&payload);
    core::Frame frame;
    frame.sensor_id = 7;
    frame.payload = payload.TakeBuffer();
    const uint8_t snan[] = {0x01, 0x00, 0x80, 0x7f};  // f32 0x7f800001
    std::copy(std::begin(snan), std::end(snan), frame.payload.end() - 4);
    BinaryWriter w;
    frame.Serialize(&w);
    frames.push_back(w.TakeBuffer());
  }
  {
    BaseStation station(64, dir);
    std::map<uint32_t, std::vector<std::vector<uint8_t>>> data_payloads;
    for (const auto& bytes : frames) {
      auto ack = station.ReceiveBytes(bytes);
      ASSERT_TRUE(ack.ok());
      ASSERT_EQ(ack->type, AckType::kAccept);
      auto frame = core::Frame::ParseView(bytes);
      ASSERT_TRUE(frame.ok());
      if (frame->type == core::FrameType::kData) {
        data_payloads[frame->sensor_id].emplace_back(frame->payload.begin(),
                                                     frame->payload.end());
      }
    }
    for (const auto& [id, payloads] : data_payloads) {
      SCOPED_TRACE("sensor " + std::to_string(id));
      auto log = station.Log(id);
      ASSERT_TRUE(log.ok());
      std::ifstream in((*log)->path(), std::ios::binary);
      const std::vector<uint8_t> file((std::istreambuf_iterator<char>(in)),
                                      std::istreambuf_iterator<char>());
      ASSERT_EQ(file.size(), (*log)->DiskEnd());
      size_t next = 0;
      for (size_t i = 0; i < (*log)->size(); ++i) {
        if ((*log)->record_type(i) != storage::RecordType::kTransmission) {
          continue;
        }
        ASSERT_LT(next, payloads.size());
        const std::vector<uint8_t>& payload = payloads[next++];
        const auto span = (*log)->RecordDiskSpan(i);
        ASSERT_EQ(span.length,
                  storage::ChunkLog::kFramingBytes + payload.size());
        const auto first =
            file.begin() + static_cast<std::ptrdiff_t>(
                               span.offset + storage::ChunkLog::kFramingBytes);
        EXPECT_TRUE(std::equal(payload.begin(), payload.end(), first))
            << "record " << i;
      }
      EXPECT_EQ(next, payloads.size());
    }
    EXPECT_GT(data_payloads[3].size(), 5u);
    EXPECT_EQ(data_payloads[7].size(), 1u);
  }
  std::filesystem::remove_all(dir);
}

TEST(BaseStation, SensorWhoseLogFileIsEmptyIsAccepted) {
  // A crash between creating a sensor's log file and writing its 8-byte
  // preamble leaves an empty (or preamble-prefix) file. The station must
  // open it as a fresh log, not refuse every later frame of the sensor.
  const std::string dir = testing::TempDir() + "/sbr_net_empty_log";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  { std::ofstream touch(dir + "/sensor_3.log", std::ios::binary); }
  const auto frames = EventfulStream(3, 6, 32);
  size_t records = 0;
  {
    BaseStation station(64, dir);
    for (const auto& bytes : frames) {
      auto ack = station.ReceiveBytes(bytes);
      ASSERT_TRUE(ack.ok()) << ack.status().ToString();
      EXPECT_EQ(ack->type, AckType::kAccept);
    }
    EXPECT_EQ(station.stats(3).frames_accepted, frames.size());
    auto log = station.Log(3);
    ASSERT_TRUE(log.ok());
    records = (*log)->size();
  }
  // The repaired file reopens whole: a preamble, then every record.
  auto reopened = storage::ChunkLog::Open(dir + "/sensor_3.log");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->size(), records);
  EXPECT_GE(records, frames.size());
  EXPECT_EQ(reopened->dropped_records(), 0u);
  EXPECT_EQ(reopened->quarantined_records(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(BaseStation, HistoryIsTheServiceTimeline) {
  // With a service attached the station keeps no timeline of its own:
  // History() is the service's, and it reads exactly like the timeline a
  // station without a service builds from the same frames — gap, resync
  // snapshot and degraded chunks included.
  const auto frames = EventfulStream(4, 16, 32);
  storage::QueryServiceOptions opts;
  opts.m_base = 64;
  storage::QueryService service(opts);
  BaseStation attached(64);
  ASSERT_TRUE(attached.AttachQueryService(&service).ok());
  BaseStation alone(64);
  for (const auto& bytes : frames) {
    for (BaseStation* station : {&attached, &alone}) {
      auto ack = station->ReceiveBytes(bytes);
      ASSERT_TRUE(ack.ok());
      ASSERT_EQ(ack->type, AckType::kAccept);
    }
  }
  EXPECT_GT(attached.stats(4).gap_chunks, 0u);
  EXPECT_GT(attached.stats(4).snapshots_applied, 0u);
  EXPECT_GT(attached.stats(4).degraded_batches, 0u);

  auto a = attached.History(4);
  auto b = alone.History(4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, service.Timeline(4));
  EXPECT_EQ(alone.query_service(), nullptr);
  const storage::CompressedHistory& ha = **a;
  const storage::CompressedHistory& hb = **b;
  ASSERT_EQ(ha.num_chunks(), hb.num_chunks());
  EXPECT_EQ(ha.num_chunks(), 16u);
  ASSERT_EQ(ha.num_gaps(), hb.num_gaps());
  EXPECT_GT(ha.num_gaps(), 0u);
  for (size_t c = 0; c < ha.num_chunks(); ++c) {
    ASSERT_EQ(ha.IsGap(c), hb.IsGap(c)) << c;
    auto ca = ha.Chunk(c);
    auto cb = hb.Chunk(c);
    ASSERT_EQ(ca.ok(), cb.ok()) << c;
    if (!ca.ok()) {
      EXPECT_EQ(ca.status().ToString(), cb.status().ToString());
      continue;
    }
    ASSERT_EQ(ca->data().size(), cb->data().size());
    for (size_t i = 0; i < ca->data().size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(ca->data()[i]),
                std::bit_cast<uint64_t>(cb->data()[i]))
          << c << " " << i;
    }
  }
  const size_t len = ha.history_len();
  for (size_t signal = 0; signal < ha.num_signals(); ++signal) {
    for (size_t t0 = 0; t0 < len; t0 += 29) {
      const size_t t1 = std::min(len, t0 + 45);
      auto ra = ha.QueryRange(signal, t0, t1);
      auto rb = hb.QueryRange(signal, t0, t1);
      ASSERT_EQ(ra.ok(), rb.ok()) << t0;
      if (!ra.ok()) {
        EXPECT_EQ(ra.status().ToString(), rb.status().ToString());
        continue;
      }
      for (size_t i = 0; i < ra->size(); ++i) {
        ASSERT_EQ(std::bit_cast<uint64_t>((*ra)[i]),
                  std::bit_cast<uint64_t>((*rb)[i]))
            << t0 << " " << i;
      }
      auto pa = ha.Value(signal, t0);
      auto pb = hb.Value(signal, t0);
      ASSERT_EQ(pa.ok(), pb.ok());
      if (pa.ok()) {
        EXPECT_EQ(std::bit_cast<uint64_t>(*pa), std::bit_cast<uint64_t>(*pb));
      }
    }
  }
}

TEST(NetworkSim, EndToEndRunProducesConsistentReport) {
  datagen::WeatherOptions wopts;
  wopts.length = 512;
  std::vector<datagen::Dataset> feeds;
  std::vector<NodePlacement> placements;
  for (uint32_t id = 0; id < 3; ++id) {
    wopts.seed = 100 + id;
    feeds.push_back(datagen::GenerateWeather(wopts));
    placements.push_back({id, id + 1});  // 1, 2, 3 hops
  }
  core::EncoderOptions opts;
  opts.total_band = 300;
  opts.m_base = 256;
  NetworkSim sim(placements, opts, /*chunk_len=*/256);
  auto report = sim.Run(feeds);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->nodes.size(), 3u);
  size_t sum_sent = 0;
  double sum_energy = 0;
  for (const auto& nr : report->nodes) {
    EXPECT_EQ(nr.transmissions, 2u);  // 512 / 256
    EXPECT_LE(nr.values_sent, 2 * opts.total_band);
    EXPECT_GT(nr.values_sent, 0u);
    EXPECT_EQ(nr.values_raw, 2u * 6 * 256);
    EXPECT_GT(nr.energy.total_nj(), 0.0);
    EXPECT_GT(nr.raw_energy_nj, nr.energy.total_nj());
    sum_sent += nr.values_sent;
    sum_energy += nr.energy.total_nj();
  }
  EXPECT_EQ(report->total_values_sent, sum_sent);
  EXPECT_NEAR(report->total_energy_nj, sum_energy, 1e-6);
  EXPECT_GT(report->CompressionFactor(), 1.0);
  EXPECT_GT(report->EnergySavingFactor(), 1.0);

  // Deeper nodes spend proportionally more energy for the same data.
  EXPECT_GT(report->nodes[2].energy.total_nj(),
            1.5 * report->nodes[0].energy.total_nj());

  // The station holds a queryable history for each node.
  for (uint32_t id = 0; id < 3; ++id) {
    auto h = sim.base_station().History(id);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ((*h)->history_len(), 512u);
  }
}

TEST(NetworkSim, FeedCountMustMatchPlacements) {
  core::EncoderOptions opts;
  opts.total_band = 100;
  opts.m_base = 64;
  NetworkSim sim({{0, 1}}, opts, 64);
  EXPECT_FALSE(sim.Run({}).ok());
}

TEST(NetworkSim, ReconstructionErrorIsBounded) {
  datagen::WeatherOptions wopts;
  wopts.length = 1024;
  wopts.seed = 42;
  std::vector<datagen::Dataset> feeds{datagen::GenerateWeather(wopts)};
  core::EncoderOptions opts;
  opts.total_band = 1228;  // ~20% of 6 * 1024
  opts.m_base = 512;
  NetworkSim sim({{0, 1}}, opts, 1024);
  auto report = sim.Run(feeds);
  ASSERT_TRUE(report.ok());
  // Error must be small relative to raw signal energy.
  double energy = 0;
  for (size_t s = 0; s < 6; ++s) {
    for (double v : feeds[0].Signal(s)) energy += v * v;
  }
  EXPECT_LT(report->total_sse, 0.05 * energy);
}

TEST(NetworkSim, LossyLinksCostRetransmissionEnergy) {
  datagen::WeatherOptions wopts;
  wopts.length = 512;
  wopts.seed = 3;
  std::vector<datagen::Dataset> feeds{datagen::GenerateWeather(wopts)};
  core::EncoderOptions opts;
  opts.total_band = 300;
  opts.m_base = 256;

  NetworkSim clean({{0, 2}}, opts, 256);
  auto clean_report = clean.Run(feeds);
  ASSERT_TRUE(clean_report.ok());
  EXPECT_EQ(clean_report->nodes[0].retransmissions, 0u);

  LinkOptions lossy;
  lossy.loss_probability = 0.4;
  NetworkSim noisy({{0, 2}}, opts, 256, EnergyParams(), lossy);
  auto noisy_report = noisy.Run(feeds);
  ASSERT_TRUE(noisy_report.ok());
  EXPECT_GT(noisy_report->nodes[0].retransmissions, 0u);
  EXPECT_GT(noisy_report->nodes[0].backoff_slots, 0u);
  EXPECT_GT(noisy_report->nodes[0].energy.backoff_nj, 0.0);
  EXPECT_GT(noisy_report->nodes[0].energy.total_nj(),
            clean_report->nodes[0].energy.total_nj());
  // Data still arrives intact: identical reconstruction error.
  EXPECT_EQ(noisy_report->nodes[0].chunks_lost, 0u);
  EXPECT_DOUBLE_EQ(noisy_report->nodes[0].sse, clean_report->nodes[0].sse);
}

TEST(NetworkSim, UndeliverableLinkDegradesToExplicitLoss) {
  // A fully dead link no longer aborts the run: every chunk is abandoned
  // after bounded retries and recorded as an explicit loss.
  datagen::WeatherOptions wopts;
  wopts.length = 256;
  std::vector<datagen::Dataset> feeds{datagen::GenerateWeather(wopts)};
  core::EncoderOptions opts;
  opts.total_band = 300;
  opts.m_base = 256;
  LinkOptions dead;
  dead.loss_probability = 1.0;
  dead.max_attempts = 4;
  NetworkSim sim({{0, 1}}, opts, 256, EnergyParams(), dead);
  auto report = sim.Run(feeds);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->nodes[0].transmissions, 1u);
  EXPECT_EQ(report->nodes[0].chunks_lost, 1u);
  EXPECT_EQ(report->total_chunks_lost, 1u);
  EXPECT_GT(report->nodes[0].frames_abandoned, 0u);
  EXPECT_GT(report->nodes[0].retransmissions, 0u);
  // Nothing ever reached the station.
  EXPECT_FALSE(sim.base_station().HasSensor(0));
  EXPECT_DOUBLE_EQ(report->total_sse, 0.0);
}

// ------------------------------------------------- NetworkSim + Topology

std::vector<datagen::Dataset> TreeFeeds(size_t n, uint64_t seed_base,
                                        size_t length = 512) {
  datagen::WeatherOptions wopts;
  wopts.length = length;
  std::vector<datagen::Dataset> feeds;
  for (size_t i = 0; i < n; ++i) {
    wopts.seed = seed_base + i;
    feeds.push_back(datagen::GenerateWeather(wopts));
  }
  return feeds;
}

// The golden-compat pin of the refactor: a depth-1 star topology must
// reproduce the legacy flat constructor's report bit for bit — same fault
// draws, same energy, same reconstruction.
TEST(NetworkSim, StarTopologyMatchesLegacyReportBitwise) {
  const auto feeds = TreeFeeds(3, 500);
  std::vector<NodePlacement> placements;
  for (uint32_t id = 0; id < 3; ++id) placements.push_back({id, 1});
  core::EncoderOptions opts;
  opts.total_band = 300;
  opts.m_base = 256;
  LinkOptions link;
  link.loss_probability = 0.1;
  link.duplicate_probability = 0.05;
  link.reorder_probability = 0.05;
  link.bit_flip_probability = 0.02;

  NetworkSim legacy(placements, opts, 256, EnergyParams(), link);
  auto a = legacy.Run(feeds);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  Topology star = Topology::Build({TopologyShape::kStar, 3, 1});
  NetworkSim tree(std::move(star), placements, opts, 256, EnergyParams(),
                  link);
  auto b = tree.Run(feeds);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  ASSERT_EQ(a->nodes.size(), b->nodes.size());
  for (size_t i = 0; i < a->nodes.size(); ++i) {
    const NodeReport& x = a->nodes[i];
    const NodeReport& y = b->nodes[i];
    EXPECT_EQ(x.values_sent, y.values_sent) << "node " << i;
    EXPECT_EQ(x.retransmissions, y.retransmissions) << "node " << i;
    EXPECT_EQ(x.backoff_slots, y.backoff_slots) << "node " << i;
    EXPECT_EQ(x.chunks_lost, y.chunks_lost) << "node " << i;
    EXPECT_EQ(x.charged_values, y.charged_values) << "node " << i;
    EXPECT_EQ(y.forwarded_copies, 0u) << "a star has no relays";
    EXPECT_EQ(x.energy.total_nj(), y.energy.total_nj()) << "node " << i;
    EXPECT_EQ(x.raw_energy_nj, y.raw_energy_nj) << "node " << i;
    EXPECT_EQ(x.sse, y.sse) << "node " << i;
  }
  EXPECT_EQ(a->total_energy_nj, b->total_energy_nj);
  EXPECT_EQ(a->total_sse, b->total_sse);
  EXPECT_EQ(a->total_chunks_lost, b->total_chunks_lost);
}

// The query-service determinism guarantee (DESIGN.md §5j): mid-round
// probe queries are read-only and draw no RNG, so enabling the service
// must leave the SimulationReport bitwise identical — same fields the
// legacy-star pin compares — and the service must actually have served
// the probed sensors.
TEST(NetworkSim, QueryServiceProbesDoNotPerturbReport) {
  const auto feeds = TreeFeeds(3, 500);
  std::vector<NodePlacement> placements;
  for (uint32_t id = 0; id < 3; ++id) placements.push_back({id, 1});
  core::EncoderOptions opts;
  opts.total_band = 300;
  opts.m_base = 256;
  LinkOptions link;
  link.loss_probability = 0.1;
  link.bit_flip_probability = 0.02;

  NetworkSim plain(placements, opts, 256, EnergyParams(), link);
  auto a = plain.Run(feeds);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  NetworkSim probed(placements, opts, 256, EnergyParams(), link);
  ASSERT_TRUE(probed.EnableQueryService(/*probe_every_chunks=*/2).ok());
  auto b = probed.Run(feeds);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  ASSERT_EQ(a->nodes.size(), b->nodes.size());
  for (size_t i = 0; i < a->nodes.size(); ++i) {
    const NodeReport& x = a->nodes[i];
    const NodeReport& y = b->nodes[i];
    EXPECT_EQ(x.values_sent, y.values_sent) << "node " << i;
    EXPECT_EQ(x.retransmissions, y.retransmissions) << "node " << i;
    EXPECT_EQ(x.backoff_slots, y.backoff_slots) << "node " << i;
    EXPECT_EQ(x.chunks_lost, y.chunks_lost) << "node " << i;
    EXPECT_EQ(x.charged_values, y.charged_values) << "node " << i;
    EXPECT_EQ(x.energy.total_nj(), y.energy.total_nj()) << "node " << i;
    EXPECT_EQ(x.sse, y.sse) << "node " << i;
  }
  EXPECT_EQ(a->total_energy_nj, b->total_energy_nj);
  EXPECT_EQ(a->total_sse, b->total_sse);
  EXPECT_EQ(a->total_chunks_lost, b->total_chunks_lost);

  const storage::QueryService* service = probed.query_service();
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->num_sensors(), placements.size());
  const storage::QueryServiceCounters c = service->counters();
  EXPECT_GT(c.publishes, 0u);
  EXPECT_GT(c.queries, 0u);
}

// The tentpole behavior: on a chain, every copy a relay forwards is
// charged to the relay's account, and each node's account reconciles
// *exactly* against the closed form (the default EnergyParams are
// integer-valued, so no tolerance is needed) — the paired-report pin
// shared with ChaosSim's I9.
TEST(NetworkSim, RelaysPayForForwardedTrafficExactly) {
  // Identical feeds so the per-node traffic is comparable by construction.
  const auto one = TreeFeeds(1, 700);
  const std::vector<datagen::Dataset> same{one[0], one[0], one[0]};
  std::vector<NodePlacement> placements;
  for (uint32_t id = 0; id < 3; ++id) placements.push_back({id, 1});
  core::EncoderOptions opts;
  opts.total_band = 300;
  opts.m_base = 256;
  LinkOptions link;
  link.loss_probability = 0.15;
  link.bit_flip_probability = 0.03;

  Topology chain = Topology::Build({TopologyShape::kChain, 3, 1});
  NetworkSim sim(std::move(chain), placements, opts, 256, EnergyParams(),
                 link);
  auto report = sim.Run(same);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EnergyModel model;
  for (const NodeReport& nr : report->nodes) {
    EnergyAccount expect;
    model.ChargeTransmission(nr.charged_values, 1, &expect);
    model.ChargeBackoff(nr.backoff_slots, &expect);
    EXPECT_EQ(nr.energy.total_nj(), expect.total_nj())
        << "node " << nr.id << ": account diverges from the closed form";
  }
  // Nodes 0 and 1 relay for their subtrees; the leaf forwards nothing.
  EXPECT_GT(report->nodes[0].forwarded_copies, 0u);
  EXPECT_GT(report->nodes[1].forwarded_copies, 0u);
  EXPECT_EQ(report->nodes[2].forwarded_copies, 0u);
  // With identical feeds, the base-adjacent relay carries everyone's
  // traffic and must outspend the leaf.
  EXPECT_GT(report->nodes[0].energy.total_nj(),
            report->nodes[2].energy.total_nj());
  // The raw-feed counterfactual scales with tree depth: the leaf is three
  // hops out, the root one.
  EXPECT_DOUBLE_EQ(report->nodes[2].raw_energy_nj,
                   3.0 * report->nodes[0].raw_energy_nj);
}

// Regression: EnergySavingFactor() returned 0.0 ("no saving") for a run
// that spent nothing; the documented sentinel is NaN, and PublishMetrics
// must survive rounding it.
TEST(SimulationReport, EnergySavingFactorIsNaNWhenNothingSpent) {
  SimulationReport empty;
  EXPECT_TRUE(std::isnan(empty.EnergySavingFactor()));
  SimulationReport spent;
  spent.total_energy_nj = 2.0;
  spent.total_raw_energy_nj = 5.0;
  EXPECT_DOUBLE_EQ(spent.EnergySavingFactor(), 2.5);
  // A zero-length feed produces a real zero-spend report end to end.
  datagen::WeatherOptions wopts;
  wopts.length = 0;
  core::EncoderOptions opts;
  opts.total_band = 100;
  opts.m_base = 64;
  NetworkSim sim({{0, 1}}, opts, 64);
  auto report = sim.Run({datagen::GenerateWeather(wopts)});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_DOUBLE_EQ(report->total_energy_nj, 0.0);
  EXPECT_TRUE(std::isnan(report->EnergySavingFactor()));
}

// The energy-aware retry budget sheds retransmissions before sensing: a
// draining node keeps encoding and attempting first deliveries but stops
// paying for retries.
TEST(NetworkSim, EnergyBudgetShedsRetriesBeforeSensing) {
  const auto feeds = TreeFeeds(1, 3);
  core::EncoderOptions opts;
  opts.total_band = 300;
  opts.m_base = 256;
  LinkOptions lossy;
  lossy.loss_probability = 0.4;

  NetworkSim unbounded({{0, 2}}, opts, 256, EnergyParams(), lossy);
  auto base = unbounded.Run(feeds);
  ASSERT_TRUE(base.ok());
  ASSERT_GT(base->nodes[0].retransmissions, 0u);
  EXPECT_EQ(base->nodes[0].retries_shed, 0u);

  LinkOptions budgeted = lossy;
  budgeted.node_energy_budget_nj = 6.0e7;
  budgeted.retry_energy_fraction = 0.5;
  NetworkSim draining({{0, 2}}, opts, 256, EnergyParams(), budgeted);
  auto shed = draining.Run(feeds);
  ASSERT_TRUE(shed.ok());
  EXPECT_GT(shed->nodes[0].retries_shed, 0u);
  // Sensing and encoding continue: same chunks encoded either way.
  EXPECT_EQ(shed->nodes[0].transmissions, base->nodes[0].transmissions);
  EXPECT_LE(shed->nodes[0].retransmissions,
            base->nodes[0].retransmissions);
  EXPECT_LT(shed->nodes[0].energy.total_nj(),
            base->nodes[0].energy.total_nj());
}

}  // namespace
}  // namespace sbr::net
