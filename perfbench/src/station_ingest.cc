// station_ingest: a fleet of many short-chunk sensors whose frames were
// encoded during set-up and are now fed round-robin into
// BaseStation::ReceiveBytes, with durable per-sensor logs and a
// QueryService attached. The timed phase does no encoding: it is all
// station work (receive state machine, log append, the station's and the
// service's decodes, compressed ingest, epoch publish), and histories are
// long enough that per-publish costs growing with history length show.
// The run ends with the station restart that recovery_s measures.
#include "fleet.h"

namespace perfbench {
namespace {

using sbr::Status;
namespace net = sbr::net;

constexpr size_t kSensors = 64;
constexpr size_t kChunks = 150;
constexpr Geometry kGeometry{6, 128, 256, 6 * 128 / 10};
constexpr size_t kRecoveryRepeats = 9;

// Three chunks per sensor are lost for good at fixed, sensor-staggered
// rounds (never the first or the last), so chunk_loss_share is a
// property of the workload rather than of the seed.
bool Lost(uint32_t sensor, size_t chunk) {
  return chunk % 50 == 10 + sensor % 32;
}

class StationIngest : public Workload {
 public:
  explicit StationIngest(std::string dir) : dir_(std::move(dir)) {
    for (uint32_t i = 0; i < kSensors; ++i) sensors_.push_back(i);
  }

  size_t setup_repeats() const override { return 5; }

  Status Setup(uint64_t seed) override {
    feeds_.clear();
    encode_ = EncodeTotals();
    std::vector<std::vector<WireFrame>> per_sensor(kSensors);
    for (uint32_t id : sensors_) {
      feeds_.push_back(SensorFeed(seed, id, kGeometry, kChunks));
      SBR_RETURN_IF_ERROR(PreEncode(
          id, feeds_.back(), kGeometry,
          [id](size_t c) { return Lost(id, c); }, &encode_, &per_sensor[id]));
    }
    // Round-robin: every sensor's frames of round c before any of c + 1.
    frames_.clear();
    std::vector<size_t> next(kSensors, 0);
    for (size_t c = 0; c < kChunks; ++c) {
      for (uint32_t id : sensors_) {
        while (next[id] < per_sensor[id].size() &&
               per_sensor[id][next[id]].chunk == c) {
          frames_.push_back(std::move(per_sensor[id][next[id]++]));
        }
      }
    }
    return Status::Ok();
  }

  Status RunPass(const PassOptions& options, PassResult* out,
                 Checks* checks) override;
  Status Verify(Checks*) override { return Status::Ok(); }
  Status MeasureRecovery(HostSpeed* speed, RecoveryResult* out,
                         Checks* checks) override {
    std::unique_ptr<sbr::storage::QueryService> replayed;
    SBR_RETURN_IF_ERROR(TimeRecovery(dir_, sensors_, kGeometry.m_base,
                                     kRecoveryRepeats, speed, out, &replayed));
    checks->Expect(AnswerSample(*replayed, sensors_) == live_answers_,
                   "replayed logs answer the query sample like the live "
                   "service, at equal epochs");
    return Status::Ok();
  }

 private:
  std::string dir_;
  std::vector<uint32_t> sensors_;
  std::vector<sbr::datagen::Dataset> feeds_;
  std::vector<WireFrame> frames_;
  EncodeTotals encode_;
  std::vector<uint64_t> live_answers_;
};

Status StationIngest::RunPass(const PassOptions& options, PassResult* out,
                              Checks* checks) {
  auto rig = StationRig::Open(dir_, kGeometry.m_base);
  const double n = static_cast<double>(kGeometry.values_per_chunk());
  double excluded_s = 0.0;
  // Resync snapshots carry no chunk, so they are no freshness sample.
  LatencyRecorder snapshot_latency;
  const auto pass_start = Clock::now();
  for (size_t i = 0; i < frames_.size(); ++i) {
    const WireFrame& f = frames_[i];
    LatencyRecorder* latency = f.data ? &out->visible : &snapshot_latency;
    auto ack = TimedCall(span::kStationRx, latency, [&] {
      return rig->station().ReceiveBytes(f.bytes);
    });
    checks->Expect(ack.ok() && ack->type == net::AckType::kAccept,
                   "station accepts every frame of the feed");
    if (f.data) out->visible_values += n;
    const bool round_ends =
        i + 1 == frames_.size() || frames_[i + 1].chunk != f.chunk;
    if (round_ends) {
      ProbeNewestChunk(rig->service(), sensors_[f.chunk % kSensors],
                       &out->query, checks);
      excluded_s += options.between();
    }
  }
  out->seconds += SecondsSince(pass_start) - excluded_s;
  const net::ProtocolStats& rx = rig->station().total_stats();
  out->ingested_frames += rx.frames_accepted - rx.snapshots_applied;
  if (!options.exact) return Status::Ok();

  std::vector<const WireFrame*> fed;
  for (const WireFrame& f : frames_) fed.push_back(&f);
  return ScoreFedPass(fed, sensors_, feeds_, kChunks, kGeometry, encode_,
                      &rig, &live_answers_, &out->exact);
}

}  // namespace

std::unique_ptr<Workload> MakeStationIngest(const std::string& work_dir) {
  return std::make_unique<StationIngest>(work_dir);
}

}  // namespace perfbench
