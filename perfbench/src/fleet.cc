#include "fleet.h"

#include <bit>
#include <filesystem>
#include <functional>

#include "datagen/weather.h"
#include "net/node.h"
#include "obs/obs.h"
#include "storage/chunk_log.h"
#include "util/serialize.h"
#include "util/stats.h"

namespace perfbench {
namespace {

using sbr::Status;
using sbr::storage::QueryService;

sbr::storage::QueryServiceOptions ServiceOptions(size_t m_base) {
  sbr::storage::QueryServiceOptions options;
  options.m_base = m_base;
  return options;
}

std::string LogPath(const std::string& dir, uint32_t sensor) {
  // BaseStation's durable layout: one "sensor_<id>.log" per sensor.
  return dir + "/sensor_" + std::to_string(sensor) + ".log";
}

void PushStatus(const Status& status, std::vector<uint64_t>* out) {
  out->push_back(static_cast<uint64_t>(status.code()));
  if (!status.ok()) out->push_back(std::hash<std::string>{}(status.ToString()));
}

void PushAggregate(const sbr::StatusOr<sbr::storage::AggregateResult>& r,
                   std::vector<uint64_t>* out) {
  PushStatus(r.status(), out);
  if (!r.ok()) return;
  for (double v : {r->sum, r->avg, r->min, r->max, r->variance}) {
    out->push_back(std::bit_cast<uint64_t>(v));
  }
  out->push_back(r->count);
}

}  // namespace

sbr::core::EncoderOptions Geometry::Encoder() const {
  sbr::core::EncoderOptions options;
  options.total_band = total_band;
  options.m_base = m_base;
  options.threads = 1;
  return options;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed ^ (0x9e3779b97f4a7c15ull * (stream + 1));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

sbr::datagen::Dataset SensorFeed(uint64_t seed, uint32_t sensor,
                                 const Geometry& g, size_t chunks) {
  sbr::datagen::WeatherOptions options;
  options.length = chunks * g.chunk_len;
  options.seed = DeriveSeed(seed, sensor);
  return sbr::datagen::GenerateWeather(options);
}

void EncodeTotals::Add(const sbr::core::EncodeStats& stats) {
  ++chunks;
  search_probes += stats.search_probes;
  moment_hits += stats.workspace.moment_hits;
  moment_misses += stats.workspace.moment_misses;
  intervals += stats.num_intervals;
}

void EncodeTotals::Put(ExactMetrics* out) const {
  const double n = static_cast<double>(chunks);
  const double lookups = static_cast<double>(moment_hits + moment_misses);
  (*out)["core.search_probes_per_chunk"] =
      n > 0 ? static_cast<double>(search_probes) / n : 0.0;
  (*out)["core.moment_hit_ratio"] =
      lookups > 0 ? static_cast<double>(moment_hits) / lookups : 0.0;
  (*out)["core.intervals_per_chunk"] =
      n > 0 ? static_cast<double>(intervals) / n : 0.0;
}

Status PreEncode(uint32_t sensor, const sbr::datagen::Dataset& feed,
                 const Geometry& g, const std::function<bool(size_t)>& lost,
                 EncodeTotals* totals, std::vector<WireFrame>* frames) {
  sbr::net::SensorNode node(sensor, g.num_signals, g.chunk_len, g.Encoder());
  const sbr::net::EnergyParams params;
  size_t chunk = 0;
  auto push = [&](const sbr::core::Frame& frame, bool data,
                  size_t payload_values) {
    WireFrame w;
    w.sensor = sensor;
    w.chunk = chunk;
    w.data = data;
    w.on_air_values = sbr::net::OnAirValues(params, payload_values);
    sbr::BinaryWriter writer;
    frame.Serialize(&writer);
    w.bytes = writer.TakeBuffer();
    frames->push_back(std::move(w));
  };
  std::vector<double> sample(g.num_signals);
  for (size_t t = 0; t < feed.length(); ++t) {
    for (size_t s = 0; s < g.num_signals; ++s) sample[s] = feed.values(s, t);
    auto emitted = node.AddSamples(sample);
    if (!emitted.ok()) return emitted.status();
    if (!emitted->has_value()) continue;
    totals->Add(node.last_stats());
    if (lost(chunk)) {
      node.RecordLostChunk();
      ++chunk;
      continue;
    }
    if (node.needs_resync()) {
      const sbr::core::Frame snapshot = node.BuildSnapshotFrame();
      push(snapshot, false, sbr::net::BytesToValues(snapshot.payload.size()));
      node.MarkSnapshotDelivered();
      node.set_needs_resync(false);
    }
    const sbr::core::Transmission& tx = **emitted;
    push(node.MakeDataFrame(tx), true, tx.ValueCount());
    node.MarkChunkDelivered();
    ++chunk;
  }
  return Status::Ok();
}

std::unique_ptr<StationRig> StationRig::Open(const std::string& dir,
                                             size_t m_base) {
  if (!dir.empty()) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  return std::make_unique<StationRig>(dir, m_base);
}

StationRig::StationRig(const std::string& dir, size_t m_base)
    : service_(ServiceOptions(m_base)), station_(m_base, dir) {
  station_.AttachQueryService(&service_);
}

int64_t DestroyAndMeasureHeap(std::unique_ptr<StationRig>* rig) {
  // Teardown with instrumentation off, so a traced pass frees exactly
  // what an untraced one does.
  sbr::obs::EnabledScope untraced(false);
  const int64_t before = LiveHeapBytes();
  rig->reset();
  return before - LiveHeapBytes();
}

void ProbeNewestChunk(const QueryService& service, uint32_t sensor,
                      LatencyRecorder* latency, Checks* checks) {
  auto snap = service.Snapshot(sensor);
  if (snap == nullptr || snap->history.num_chunks() == 0) return;
  const size_t last = snap->history.num_chunks() - 1;
  if (snap->history.IsGap(last)) return;
  const size_t t0 = last * snap->history.chunk_len();
  const size_t t1 = t0 + snap->history.chunk_len();
  for (size_t s = 0; s < snap->history.num_signals(); ++s) {
    auto agg = TimedCall(span::kAggregate, latency,
                         [&] { return service.Aggregate(sensor, s, t0, t1); });
    checks->ExpectOk(agg.status(), "newest-chunk aggregate probe");
  }
  auto point = TimedCall(span::kPoint, latency,
                         [&] { return service.Point(sensor, 0, t1 - 1); });
  checks->ExpectOk(point.status(), "newest-sample point probe");
}

Status ScoreSse(const QueryService& service, uint32_t sensor,
                const sbr::datagen::Dataset& feed, double* sse,
                uint64_t* scored_values) {
  auto snap = service.Snapshot(sensor);
  if (snap == nullptr) return Status::Ok();
  const sbr::storage::HistoryStore& h = snap->history;
  std::vector<double> truth(h.chunk_len());
  for (size_t c = 0; c < h.num_chunks(); ++c) {
    if (h.IsGap(c)) continue;
    const size_t t0 = c * h.chunk_len();
    if (t0 + h.chunk_len() > feed.length()) break;
    for (size_t s = 0; s < feed.num_signals(); ++s) {
      auto approx = service.Reconstruct(sensor, s, t0, t0 + h.chunk_len());
      if (!approx.ok()) return approx.status();
      for (size_t k = 0; k < h.chunk_len(); ++k) {
        truth[k] = feed.values(s, t0 + k);
      }
      *sse += sbr::SumSquaredError(truth, *approx);
      *scored_values += h.chunk_len();
    }
  }
  return Status::Ok();
}

void EndToEndCounts::Put(ExactMetrics* out) const {
  const double bytes_per_value =
      sbr::net::EnergyParams().bits_per_value / 8.0;
  (*out)["air_bytes_per_value"] = on_air_values * bytes_per_value / raw_values;
  (*out)["energy_nj_per_value"] = energy_nj / raw_values;
  (*out)["sse_per_value"] = sse / scored_values;
  (*out)["chunk_loss_share"] = gap_chunks / chunks_sensed;
  (*out)["heap_bytes_per_sample"] = heap_bytes / scored_values;
}

uint64_t GapChunks(const QueryService& service,
                   const std::vector<uint32_t>& sensors) {
  uint64_t gaps = 0;
  for (uint32_t id : sensors) {
    auto snap = service.Snapshot(id);
    if (snap != nullptr) gaps += snap->history.num_gaps();
  }
  return gaps;
}

uint64_t TimelineExcess(const QueryService& service,
                        const std::vector<uint32_t>& sensors, size_t sensed) {
  uint64_t excess = 0;
  for (uint32_t id : sensors) {
    auto snap = service.Snapshot(id);
    const size_t chunks = snap == nullptr ? 0 : snap->history.num_chunks();
    if (chunks > sensed) excess += chunks - sensed;
  }
  return excess;
}

uint64_t LogBytes(sbr::net::BaseStation& station,
                  const std::vector<uint32_t>& sensors) {
  uint64_t bytes = 0;
  for (uint32_t id : sensors) {
    auto log = station.Log(id);
    if (log.ok()) bytes += (*log)->DiskEnd();
  }
  return bytes;
}

void PutStationExact(StationRig& rig, const std::vector<uint32_t>& sensors,
                     size_t chunks_per_sensor, double raw_values,
                     ExactMetrics* x) {
  const auto counters = rig.service().counters();
  const uint64_t lookups = counters.cache_hits + counters.cache_misses;
  (*x)["net.timeline_excess_chunks"] = static_cast<double>(
      TimelineExcess(rig.service(), sensors, chunks_per_sensor));
  (*x)["storage.log_bytes_per_value"] =
      static_cast<double>(LogBytes(rig.station(), sensors)) / raw_values;
  (*x)["storage.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(counters.cache_hits) / lookups : 0.0;
  (*x)["storage.cache_evictions"] =
      static_cast<double>(counters.cache_evictions);
}

Status ScoreFedPass(const std::vector<const WireFrame*>& frames,
                    const std::vector<uint32_t>& sensors,
                    const std::vector<sbr::datagen::Dataset>& feeds,
                    size_t chunks_per_sensor, const Geometry& g,
                    const EncodeTotals& encode,
                    std::unique_ptr<StationRig>* rig,
                    std::vector<uint64_t>* live_answers, ExactMetrics* x) {
  EndToEndCounts e2e;
  const sbr::net::EnergyModel energy;
  sbr::net::EnergyAccount account;
  uint64_t snapshots = 0;
  for (const WireFrame* f : frames) {
    energy.ChargeTransmission(f->on_air_values, 1, &account);
    e2e.on_air_values += static_cast<double>(f->on_air_values);
    if (!f->data) ++snapshots;
  }
  uint64_t scored = 0;
  for (uint32_t id : sensors) {
    SBR_RETURN_IF_ERROR(
        ScoreSse((*rig)->service(), id, feeds[id], &e2e.sse, &scored));
  }
  const double chunks = static_cast<double>(sensors.size() * chunks_per_sensor);
  const double fed = static_cast<double>(frames.size());
  const sbr::net::ProtocolStats& rx = (*rig)->station().total_stats();
  encode.Put(x);
  (*x)["net.copies_per_chunk"] = fed / chunks;
  (*x)["net.retransmissions_per_chunk"] = 0.0;
  (*x)["net.resyncs_per_chunk"] = static_cast<double>(snapshots) / chunks;
  (*x)["net.degraded_share"] =
      static_cast<double>(rx.degraded_batches) / chunks;
  (*x)["net.accept_ratio"] = static_cast<double>(rx.frames_accepted) / fed;
  e2e.raw_values = chunks * static_cast<double>(g.values_per_chunk());
  PutStationExact(**rig, sensors, chunks_per_sensor, e2e.raw_values, x);
  *live_answers = AnswerSample((*rig)->service(), sensors);

  e2e.energy_nj = account.total_nj();
  e2e.scored_values = static_cast<double>(scored);
  e2e.chunks_sensed = chunks;
  e2e.gap_chunks = static_cast<double>(GapChunks((*rig)->service(), sensors));
  e2e.heap_bytes = static_cast<double>(DestroyAndMeasureHeap(rig));
  e2e.Put(x);
  return Status::Ok();
}

Status TimeRecovery(const std::string& dir,
                    const std::vector<uint32_t>& sensors, size_t m_base,
                    size_t repeats, HostSpeed* speed, RecoveryResult* out,
                    std::unique_ptr<QueryService>* replayed) {
  std::vector<double> open_s, replay_s, total_s;
  for (size_t r = 0; r < repeats; ++r) {
    replayed->reset();
    speed->Sample();
    auto service = std::make_unique<QueryService>(ServiceOptions(m_base));
    std::vector<sbr::storage::ChunkLog> logs;
    logs.reserve(sensors.size());
    const auto start = Clock::now();
    for (uint32_t id : sensors) {
      auto log = sbr::storage::ChunkLog::Open(LogPath(dir, id));
      if (!log.ok()) return log.status();
      logs.push_back(std::move(log).value());
    }
    const auto opened = Clock::now();
    for (size_t i = 0; i < sensors.size(); ++i) {
      SBR_RETURN_IF_ERROR(
          sbr::storage::ReplayLog(logs[i], sensors[i], service.get()));
    }
    const auto done = Clock::now();
    open_s.push_back(NsBetween(start, opened) * 1e-9);
    replay_s.push_back(NsBetween(opened, done) * 1e-9);
    total_s.push_back(NsBetween(start, done) * 1e-9);
    *replayed = std::move(service);
  }
  speed->Sample();
  out->recovery_s = Quantile(total_s, 0.5);
  out->log_open_s = Quantile(open_s, 0.5);
  out->replay_s = Quantile(replay_s, 0.5);
  return Status::Ok();
}

std::vector<uint64_t> AnswerSample(const QueryService& service,
                                   const std::vector<uint32_t>& sensors) {
  std::vector<uint64_t> out;
  for (uint32_t id : sensors) {
    out.push_back(service.epoch(id));
    auto snap = service.Snapshot(id);
    if (snap == nullptr) continue;
    const sbr::storage::CompressedHistory& c = snap->compressed;
    const size_t m = c.chunk_len();
    out.push_back(c.num_chunks());
    if (m == 0 || c.num_signals() == 0) continue;  // nothing but gaps yet
    for (size_t s = 0; s < c.num_signals(); ++s) {
      PushAggregate(c.Aggregate(s, 0, c.history_len()), &out);
    }
    for (size_t k = 0; k < c.num_chunks(); ++k) {
      const size_t s = k % c.num_signals();
      PushAggregate(c.Aggregate(s, k * m, (k + 1) * m), &out);
      auto point = c.Value(s, k * m + (k * 7) % m);
      PushStatus(point.status(), &out);
      if (point.ok()) out.push_back(std::bit_cast<uint64_t>(*point));
      auto range = snap->history.QueryRange(s, k * m, k * m + m / 8 + 1);
      PushStatus(range.status(), &out);
      if (range.ok()) {
        for (double v : *range) out.push_back(std::bit_cast<uint64_t>(v));
      }
    }
  }
  return out;
}

}  // namespace perfbench
