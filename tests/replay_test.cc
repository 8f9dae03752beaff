// Log-replay recovery: a live base station with durable logs and an
// attached QueryService ingests a fleet's frames — clean chunks, chunks
// lost for good and reported by resync snapshots, and degraded
// self-contained re-encodes. The station is then torn down, every log is
// reopened and replayed with storage::ReplayLog into a fresh service, and
// the replayed service must answer exactly like the live one: equal
// epochs, and Aggregate, Point and Reconstruct answers equal bit for bit
// (failures included, with their status text). The materialized answers
// are also held to a decode-at-ingest reference rebuilt from the same
// log.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/encoder.h"
#include "core/transmission.h"
#include "datagen/weather.h"
#include "net/base_station.h"
#include "net/node.h"
#include "storage/chunk_log.h"
#include "storage/decoded_history.h"
#include "storage/query_service.h"
#include "util/serialize.h"

namespace sbr {
namespace {

constexpr size_t kSignals = 3;
constexpr size_t kChunkLen = 64;
constexpr size_t kChunks = 24;
constexpr size_t kMBase = 128;
constexpr uint32_t kSensors = 3;

std::string Bits(double v) {
  return std::to_string(std::bit_cast<uint64_t>(v));
}

std::string Render(const StatusOr<storage::AggregateResult>& r) {
  if (!r.ok()) return r.status().ToString();
  return Bits(r->sum) + " " + Bits(r->avg) + " " + Bits(r->min) + " " +
         Bits(r->max) + " " + Bits(r->variance) + " " +
         std::to_string(r->count);
}

/// Every answer the service gives for one sensor over a fixed probe set:
/// the epoch, aggregates over whole, per-chunk and unaligned ranges
/// (gap chunks included), points, and short reconstructs.
std::vector<std::string> Fingerprint(const storage::QueryService& service,
                                     uint32_t sensor) {
  std::vector<std::string> out;
  out.push_back("epoch " + std::to_string(service.epoch(sensor)));
  auto snap = service.Snapshot(sensor);
  if (snap == nullptr) return out;
  const size_t len = snap->history.history_len();
  out.push_back("chunks " + std::to_string(snap->history.num_chunks()) +
                " gaps " + std::to_string(snap->history.num_gaps()));
  for (size_t signal = 0; signal < kSignals; ++signal) {
    out.push_back(Render(service.Aggregate(sensor, signal, 0, len)));
    for (size_t c = 0; c * kChunkLen < len; ++c) {
      const size_t t0 = c * kChunkLen;
      out.push_back(Render(service.Aggregate(sensor, signal, t0,
                                             t0 + kChunkLen)));
      out.push_back(Render(service.Aggregate(
          sensor, signal, t0 + 5, std::min(len, t0 + 3 * kChunkLen - 7))));
      auto point = service.Point(sensor, signal, t0 + (c * 11) % kChunkLen);
      out.push_back(point.ok() ? Bits(*point) : point.status().ToString());
      auto range = service.Reconstruct(sensor, signal, t0 + 3,
                                       std::min(len, t0 + kChunkLen + 9));
      std::string r = range.ok() ? "" : range.status().ToString();
      if (range.ok()) {
        for (double v : *range) r += Bits(v) + ",";
      }
      out.push_back(std::move(r));
    }
  }
  return out;
}

StatusOr<net::FrameAck> Deliver(net::BaseStation* station,
                                const core::Frame& frame) {
  BinaryWriter w;
  frame.Serialize(&w);
  return station->ReceiveBytes(w.buffer());
}

class ReplayTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/sbr_replay_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Feeds every sensor's chunks round-robin into a station with durable
  /// logs in dir_ and `service` attached. Chunk c of sensor s is lost for
  /// good when (c + s) % 7 == 3 (its loss travels in the next resync
  /// snapshot) and goes out as a degraded re-encode when (c + s) % 5 == 2.
  void RunLiveStation(storage::QueryService* service) {
    net::BaseStation station(kMBase, dir_);
    ASSERT_TRUE(station.AttachQueryService(service).ok());
    core::EncoderOptions opts;
    opts.total_band = 60;
    opts.m_base = kMBase;
    std::vector<std::unique_ptr<net::SensorNode>> nodes;
    std::vector<datagen::Dataset> feeds;
    for (uint32_t id = 0; id < kSensors; ++id) {
      nodes.push_back(
          std::make_unique<net::SensorNode>(id, kSignals, kChunkLen, opts));
      datagen::WeatherOptions wopts;
      wopts.length = kChunks * kChunkLen;
      wopts.seed = 40 + id;
      feeds.push_back(datagen::GenerateWeather(wopts));
    }
    std::vector<double> sample(kSignals);
    for (size_t c = 0; c < kChunks; ++c) {
      for (uint32_t id = 0; id < kSensors; ++id) {
        net::SensorNode& node = *nodes[id];
        std::optional<core::Transmission> t;
        for (size_t k = 0; k < kChunkLen; ++k) {
          for (size_t s = 0; s < kSignals; ++s) {
            sample[s] = feeds[id].values(s, c * kChunkLen + k);
          }
          auto r = node.AddSamples(sample);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          if (r->has_value()) t = std::move(**r);
        }
        ASSERT_TRUE(t.has_value());
        if ((c + id) % 7 == 3) {
          node.RecordLostChunk();
          auto ack = Deliver(&station, node.BuildSnapshotFrame());
          ASSERT_TRUE(ack.ok());
          ASSERT_EQ(ack->type, net::AckType::kAccept);
          node.MarkSnapshotDelivered();
          continue;
        }
        if ((c + id) % 5 == 2) {
          auto degraded = node.EncodeSelfContained();
          ASSERT_TRUE(degraded.ok());
          t = std::move(*degraded);
        }
        auto ack = Deliver(&station, node.MakeDataFrame(*t));
        ASSERT_TRUE(ack.ok());
        ASSERT_EQ(ack->type, net::AckType::kAccept) << c << " " << id;
        node.MarkChunkDelivered();
      }
    }
    for (uint32_t id = 0; id < kSensors; ++id) {
      const net::ProtocolStats stats = station.stats(id);
      EXPECT_GT(stats.gap_chunks, 0u);
      EXPECT_GT(stats.snapshots_applied, 0u);
      EXPECT_GT(stats.degraded_batches, 0u);
    }
  }

  std::string LogPath(uint32_t id) const {
    return dir_ + "/sensor_" + std::to_string(id) + ".log";
  }

  std::string dir_;
};

TEST_F(ReplayTest, ReplayedServiceAnswersLikeTheLiveOneBitwise) {
  storage::QueryServiceOptions opts;
  opts.m_base = kMBase;
  storage::QueryService live(opts);
  RunLiveStation(&live);
  if (HasFatalFailure()) return;

  storage::QueryService replayed(opts);
  for (uint32_t id = 0; id < kSensors; ++id) {
    auto log = storage::ChunkLog::Open(LogPath(id));
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ(log->dropped_records(), 0u);
    EXPECT_EQ(log->quarantined_records(), 0u);
    ASSERT_TRUE(storage::ReplayLog(*log, id, &replayed).ok());
  }
  ASSERT_EQ(replayed.num_sensors(), live.num_sensors());
  for (uint32_t id = 0; id < kSensors; ++id) {
    SCOPED_TRACE("sensor " + std::to_string(id));
    EXPECT_EQ(replayed.epoch(id), live.epoch(id));
    EXPECT_GT(live.epoch(id), kChunks);  // gaps + snapshots publish too
    const auto want = Fingerprint(live, id);
    const auto got = Fingerprint(replayed, id);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "probe " << i;
    }
  }
}

TEST_F(ReplayTest, ReplayedReconstructionMatchesDecodeAtIngestReference) {
  storage::QueryServiceOptions opts;
  opts.m_base = kMBase;
  storage::QueryService live(opts);
  RunLiveStation(&live);
  if (HasFatalFailure()) return;

  storage::QueryService replayed(opts);
  for (uint32_t id = 0; id < kSensors; ++id) {
    auto log = storage::ChunkLog::Open(LogPath(id));
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(storage::ReplayLog(*log, id, &replayed).ok());
    auto reference = storage::DecodedHistory::FromLog(*log, kMBase);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    auto snap = replayed.Snapshot(id);
    ASSERT_NE(snap, nullptr);
    ASSERT_EQ(snap->history.num_chunks(), reference->num_chunks());
    ASSERT_EQ(snap->history.num_gaps(), reference->num_gaps());
    for (size_t c = 0; c < reference->num_chunks(); ++c) {
      ASSERT_EQ(snap->history.IsGap(c), reference->IsGap(c)) << c;
      if (reference->IsGap(c)) continue;
      auto a = snap->history.Chunk(c);
      auto b = reference->Chunk(c);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      for (size_t i = 0; i < b->data().size(); ++i) {
        ASSERT_EQ(Bits(a->data()[i]), Bits(b->data()[i])) << c << " " << i;
      }
    }
  }
}

}  // namespace
}  // namespace sbr
