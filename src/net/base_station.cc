#include "net/base_station.h"

#include <algorithm>

#include "obs/metrics.h"

namespace sbr::net {
namespace {

// Station protocol-checkpoint blob format version.
constexpr uint8_t kStationCheckpointVersion = 1;

// The service a station keeps the timelines in while none is attached. It
// serves only materialized reads (History()), so it skips the moment
// index and the per-version min/max tables.
std::unique_ptr<storage::QueryService> OwnedService(size_t m_base) {
  return std::make_unique<storage::QueryService>(storage::QueryServiceOptions{
      .m_base = m_base, .index = storage::IndexOptions{.enabled = false}});
}

void AddStats(const ProtocolStats& from, ProtocolStats* to) {
  to->frames_accepted += from.frames_accepted;
  to->corrupt_frames += from.corrupt_frames;
  to->duplicates_suppressed += from.duplicates_suppressed;
  to->buffered_out_of_order += from.buffered_out_of_order;
  to->gap_chunks += from.gap_chunks;
  to->resync_requests += from.resync_requests;
  to->snapshots_applied += from.snapshots_applied;
  to->degraded_batches += from.degraded_batches;
  to->stale_frames_rejected += from.stale_frames_rejected;
}

}  // namespace

BaseStation::BaseStation(size_t m_base, std::string log_dir,
                         size_t reorder_window, bool persist_protocol_state)
    : m_base_(m_base),
      log_dir_(std::move(log_dir)),
      reorder_window_(reorder_window == 0 ? 1 : reorder_window),
      persist_protocol_state_(persist_protocol_state),
      owned_(OwnedService(m_base)),
      timelines_(owned_.get()) {}

StatusOr<BaseStation::PerSensor*> BaseStation::GetOrCreate(
    uint32_t sensor_id) {
  auto it = sensors_.find(sensor_id);
  if (it != sensors_.end()) return &it->second;

  storage::ChunkLog log;
  if (!log_dir_.empty()) {
    auto opened = storage::ChunkLog::Open(
        log_dir_ + "/sensor_" + std::to_string(sensor_id) + ".log");
    if (!opened.ok()) return opened.status();
    log = std::move(opened).value();
  }
  // Replay any recovered records so the timeline matches the log.
  if (!log.empty()) {
    SBR_RETURN_IF_ERROR(storage::ReplayLog(log, sensor_id, timelines_));
  }
  auto [pos, inserted] = sensors_.emplace(sensor_id, PerSensor{std::move(log)});
  (void)inserted;
  PerSensor* s = &pos->second;
  s->id = sensor_id;
  if (persist_protocol_state_ && !s->log.empty()) {
    SBR_RETURN_IF_ERROR(RestoreProtocolState(s));
  }
  return s;
}

Status BaseStation::AttachQueryService(storage::QueryService* service) {
  if (!sensors_.empty()) {
    return Status::FailedPrecondition(
        "query service attach/detach after the station heard from " +
        std::to_string(sensors_.size()) +
        " sensor(s): the service would hold timelines that start "
        "mid-stream");
  }
  if (service != nullptr && service->m_base() != m_base_) {
    return Status::InvalidArgument(
        "query service m_base " + std::to_string(service->m_base()) +
        " does not match the station's m_base " + std::to_string(m_base_));
  }
  owned_ = service == nullptr ? OwnedService(m_base_) : nullptr;
  timelines_ = service == nullptr ? owned_.get() : service;
  return Status::Ok();
}

const storage::CompressedHistory& BaseStation::Timeline(
    uint32_t sensor_id) const {
  // A sensor heard from only through frames that never reached the
  // timeline (buffered, refused, duplicate) has none in the service yet.
  static const storage::CompressedHistory kEmpty(
      0, storage::IndexOptions{.enabled = false});
  const storage::CompressedHistory* timeline = timelines_->Timeline(sensor_id);
  return timeline != nullptr ? *timeline : kEmpty;
}

Status BaseStation::AppendProtocolCheckpoint(PerSensor* s) {
  if (!persist_protocol_state_) return Status::Ok();
  BinaryWriter writer;
  writer.PutU8(kStationCheckpointVersion);
  writer.PutU64(s->expected_seq);
  writer.PutU32(s->epoch);
  writer.PutU8(s->awaiting_resync ? 1 : 0);
  writer.PutU64(s->stats.frames_accepted);
  writer.PutU64(s->stats.duplicates_suppressed);
  writer.PutU64(s->stats.buffered_out_of_order);
  writer.PutU64(s->stats.gap_chunks);
  writer.PutU64(s->stats.resync_requests);
  writer.PutU64(s->stats.snapshots_applied);
  writer.PutU64(s->stats.degraded_batches);
  writer.PutU64(s->stats.stale_frames_rejected);
  SBR_OBS_COUNT("net.station.checkpoints", 1);
  return s->log.AppendCheckpoint(writer.TakeBuffer());
}

Status BaseStation::RestoreProtocolState(PerSensor* s) {
  const size_t checkpoint = s->log.LastCheckpointIndex();
  size_t replay_from = 0;
  if (checkpoint != storage::ChunkLog::kNoCheckpoint) {
    auto blob = s->log.ReadCheckpoint(checkpoint);
    if (!blob.ok()) return blob.status();
    BinaryReader reader(*blob);
    uint8_t version = 0, awaiting = 0;
    SBR_RETURN_IF_ERROR(reader.GetU8(&version));
    if (version != kStationCheckpointVersion) {
      return Status::DataLoss("unsupported station checkpoint version " +
                              std::to_string(version));
    }
    SBR_RETURN_IF_ERROR(reader.GetU64(&s->expected_seq));
    SBR_RETURN_IF_ERROR(reader.GetU32(&s->epoch));
    SBR_RETURN_IF_ERROR(reader.GetU8(&awaiting));
    s->awaiting_resync = awaiting != 0;
    ProtocolStats& st = s->stats;
    uint64_t v = 0;
    SBR_RETURN_IF_ERROR(reader.GetU64(&v)); st.frames_accepted = v;
    SBR_RETURN_IF_ERROR(reader.GetU64(&v)); st.duplicates_suppressed = v;
    SBR_RETURN_IF_ERROR(reader.GetU64(&v)); st.buffered_out_of_order = v;
    SBR_RETURN_IF_ERROR(reader.GetU64(&v)); st.gap_chunks = v;
    SBR_RETURN_IF_ERROR(reader.GetU64(&v)); st.resync_requests = v;
    SBR_RETURN_IF_ERROR(reader.GetU64(&v)); st.snapshots_applied = v;
    SBR_RETURN_IF_ERROR(reader.GetU64(&v)); st.degraded_batches = v;
    SBR_RETURN_IF_ERROR(reader.GetU64(&v)); st.stale_frames_rejected = v;
    replay_from = checkpoint + 1;
  }
  // Roll the state machine forward over whatever landed in the log after
  // the checkpoint (crash between an append and its checkpoint, or log
  // recovery rewriting the tail). Sequence numbers advance with each
  // surviving transmission; anything that signals lost or re-anchored
  // state forces a resync handshake before new data is trusted.
  core::Transmission t;
  SBR_RETURN_IF_ERROR(s->log.ForEach(
      replay_from,
      [&](size_t, storage::RecordType type,
          std::span<const uint8_t> payload) -> Status {
        switch (type) {
          case storage::RecordType::kTransmission:
            SBR_RETURN_IF_ERROR(core::Transmission::ParsePayload(payload, &t));
            ++s->expected_seq;
            ++s->stats.frames_accepted;
            if (t.base_kind == core::BaseKind::kNone) {
              ++s->stats.degraded_batches;
            }
            break;
          case storage::RecordType::kGap: {
            BinaryReader reader(payload);
            uint32_t chunks = 0;
            SBR_RETURN_IF_ERROR(reader.GetU32(&chunks));
            s->stats.gap_chunks += chunks;
            s->awaiting_resync = true;
            break;
          }
          case storage::RecordType::kSnapshot:
            // The snapshot's frame header (seq, epoch) was not persisted
            // with it, so the post-restart epoch cannot be trusted: demand
            // a fresh resync instead of guessing.
            ++s->stats.snapshots_applied;
            s->awaiting_resync = true;
            break;
          case storage::RecordType::kCheckpoint:
            break;  // older checkpoint, superseded
        }
        return Status::Ok();
      }));
  // Recovery that dropped, rewrote or de-anchored anything means the
  // decoder replay no longer mirrors the sensor's base signal and the
  // frontier may be stale: no data is trusted until a snapshot handshake.
  if (s->log.dropped_records() > 0 || s->log.quarantined_records() > 0 ||
      s->log.recovered_lineage_broken()) {
    s->awaiting_resync = true;
  }
  // The per-sensor counters re-enter the station-wide aggregate so the
  // totals keep reconciling after a restart.
  AddStats(s->stats, &total_);
  SBR_OBS_COUNT("net.station.recoveries", 1);
  return Status::Ok();
}

Status BaseStation::Receive(uint32_t sensor_id, const core::Transmission& t) {
  auto sensor = GetOrCreate(sensor_id);
  if (!sensor.ok()) return sensor.status();
  SBR_RETURN_IF_ERROR(timelines_->Ingest(sensor_id, t));
  return (*sensor)->log.Append(t);
}

Status BaseStation::IngestData(PerSensor* s, const core::Transmission& t,
                               std::span<const uint8_t> payload) {
  // The timeline decides first: a frame it rejects never reaches the log,
  // so a restart replays exactly the chunks the live timeline holds.
  SBR_RETURN_IF_ERROR(timelines_->Ingest(s->id, t));
  SBR_RETURN_IF_ERROR(s->log.AppendSerialized(payload));
  ++s->stats.frames_accepted;
  ++total_.frames_accepted;
  if (t.base_kind == core::BaseKind::kNone) {
    ++s->stats.degraded_batches;
    ++total_.degraded_batches;
  }
  return Status::Ok();
}

bool BaseStation::ParseData(std::span<const uint8_t> payload) {
  return core::Transmission::ParsePayload(payload, &rx_).ok();
}

Status BaseStation::DeclareGap(PerSensor* s, size_t chunks) {
  if (chunks == 0) return Status::Ok();
  SBR_RETURN_IF_ERROR(s->log.AppendGap(static_cast<uint32_t>(chunks)));
  SBR_RETURN_IF_ERROR(timelines_->MarkGap(s->id, chunks));
  s->stats.gap_chunks += chunks;
  total_.gap_chunks += chunks;
  return Status::Ok();
}

StatusOr<FrameAck> BaseStation::ReceiveBytes(
    std::span<const uint8_t> bytes) {
  SBR_OBS_COUNT("net.rx.frames", 1);
  SBR_OBS_COUNT("net.rx.bytes", bytes.size());
  // The envelope check (magic, header bounds, CRC32) — the same
  // core::Frame::ParseView a relay applies on the forwarding path, so a
  // malformed frame gets the identical verdict at every hop.
  auto frame = core::Frame::ParseView(bytes);
  if (!frame.ok()) {
    // Corruption is detected, counted and NACKed — never decoded. The
    // sensor id cannot be trusted on a frame that failed its CRC, so the
    // count lives on the aggregate only.
    ++total_.corrupt_frames;
    SBR_OBS_COUNT("net.rx.corrupt", 1);
    FrameAck ack;
    ack.type = AckType::kCorrupt;
    return ack;
  }
  auto ack = HandleFrame(*frame);
  // One attribution point for the ack outcome, rather than a counter per
  // return path inside the state machine.
  if (ack.ok()) {
    switch (ack->type) {
      case AckType::kAccept:
        SBR_OBS_COUNT("net.rx.accepted", 1);
        break;
      case AckType::kDuplicate:
        SBR_OBS_COUNT("net.rx.duplicates", 1);
        break;
      case AckType::kBuffered:
        SBR_OBS_COUNT("net.rx.buffered", 1);
        break;
      case AckType::kDesync:
        SBR_OBS_COUNT("net.rx.desync", 1);
        break;
      case AckType::kCorrupt:
        SBR_OBS_COUNT("net.rx.corrupt_payload", 1);
        break;
    }
  }
  return ack;
}

StatusOr<FrameAck> BaseStation::HandleFrame(const core::FrameView& frame) {
  auto sensor = GetOrCreate(frame.sensor_id);
  if (!sensor.ok()) return sensor.status();
  PerSensor* s = *sensor;

  FrameAck ack;
  ack.sensor_id = frame.sensor_id;
  ack.seq = frame.seq;
  ack.epoch = s->epoch;

  // Duplicate suppression: anything at or behind the frontier, or already
  // sitting in the reorder window, was seen before.
  if (frame.seq < s->expected_seq || s->pending.count(frame.seq) > 0) {
    ++s->stats.duplicates_suppressed;
    ++total_.duplicates_suppressed;
    ack.type = AckType::kDuplicate;
    return ack;
  }

  if (frame.type == core::FrameType::kSnapshot) {
    auto snap = core::BaseSnapshot::ParsePayload(frame.payload);
    if (!snap.ok()) {
      ++total_.corrupt_frames;
      ack.type = AckType::kCorrupt;
      return ack;
    }
    if (frame.epoch <= s->epoch && !(s->epoch == 0 && !s->awaiting_resync &&
                                     s->stats.snapshots_applied == 0)) {
      // A replayed snapshot from an epoch we already left behind.
      ++s->stats.duplicates_suppressed;
      ++total_.duplicates_suppressed;
      ack.type = AckType::kDuplicate;
      return ack;
    }
    // The snapshot re-establishes a common base signal and reconciles the
    // timeline. A sensor that tracks deliveries reports its authoritative
    // resolved-chunk count (timeline_chunks), which also covers records
    // this station lost to power failure or log corruption; the shortfall
    // becomes explicit gaps. Sensors without delivery tracking report the
    // incremental lost-for-good count instead — the two schemes are not
    // summed, because the incremental count may include chunks a stale
    // (crash-recovered) sensor checkpoint already reported once.
    // Anything buffered under the old epoch is undecodable and discarded.
    const uint64_t len = Timeline(s->id).num_chunks();
    const uint64_t target =
        snap->timeline_chunks > 0
            ? std::max<uint64_t>(snap->timeline_chunks, len)
            : len + snap->missing_chunks;
    SBR_RETURN_IF_ERROR(
        DeclareGap(s, target > len ? static_cast<size_t>(target - len) : 0));
    SBR_RETURN_IF_ERROR(timelines_->ApplySnapshot(s->id, *snap));
    SBR_RETURN_IF_ERROR(s->log.AppendSnapshot(*snap));
    s->stats.stale_frames_rejected += s->pending.size();
    total_.stale_frames_rejected += s->pending.size();
    s->pending.clear();
    s->epoch = frame.epoch;
    s->expected_seq = frame.seq + 1;
    s->awaiting_resync = false;
    ++s->stats.snapshots_applied;
    ++total_.snapshots_applied;
    ++s->stats.frames_accepted;
    ++total_.frames_accepted;
    SBR_RETURN_IF_ERROR(AppendProtocolCheckpoint(s));
    ack.type = AckType::kAccept;
    ack.epoch = s->epoch;
    return ack;
  }

  // Data frame.
  if (s->awaiting_resync || frame.epoch != s->epoch) {
    // The frame's base-signal lineage is broken: decoding it would produce
    // silent garbage, so it is rejected with an explicit resync request.
    ++s->stats.stale_frames_rejected;
    total_.stale_frames_rejected += 1;
    ++s->stats.resync_requests;
    ++total_.resync_requests;
    ack.type = AckType::kDesync;
    ack.resync_requested = true;
    return ack;
  }

  if (frame.seq == s->expected_seq) {
    if (!ParseData(frame.payload)) {
      ++total_.corrupt_frames;
      ack.type = AckType::kCorrupt;
      return ack;
    }
    if (Status ingest = IngestData(s, rx_, frame.payload); !ingest.ok()) {
      // CRC-clean but undecodable (e.g. geometry drift): the stream state
      // is no longer trustworthy — request a resync rather than guessing.
      // The demand is checkpointed so that it survives a restart.
      s->awaiting_resync = true;
      ++s->stats.resync_requests;
      ++total_.resync_requests;
      SBR_RETURN_IF_ERROR(AppendProtocolCheckpoint(s));
      ack.type = AckType::kDesync;
      ack.resync_requested = true;
      return ack;
    }
    s->expected_seq = frame.seq + 1;
    // Drain the reorder window while it continues the sequence.
    while (!s->pending.empty()) {
      auto next = s->pending.begin();
      if (next->first != s->expected_seq) break;
      const uint64_t held_seq = next->first;
      const std::vector<uint8_t> held = std::move(next->second);
      s->pending.erase(next);
      if (!ParseData(held)) {
        ++total_.corrupt_frames;
        break;
      }
      if (!IngestData(s, rx_, held).ok()) {
        s->awaiting_resync = true;
        break;
      }
      s->expected_seq = held_seq + 1;
    }
    SBR_RETURN_IF_ERROR(AppendProtocolCheckpoint(s));
    ack.type = AckType::kAccept;
    return ack;
  }

  // frame.seq > expected: a hole precedes this frame.
  if (frame.seq - s->expected_seq <= reorder_window_ &&
      s->pending.size() < reorder_window_) {
    // The one copy of a payload on the receive path: the frame outlives
    // the bytes it arrived in.
    s->pending.emplace(frame.seq, std::vector<uint8_t>(frame.payload.begin(),
                                                       frame.payload.end()));
    ++s->stats.buffered_out_of_order;
    ++total_.buffered_out_of_order;
    ack.type = AckType::kBuffered;
    return ack;
  }

  // The hole is too old to ever fill: the missing frames carried
  // base-signal updates this one may depend on, so it cannot be decoded.
  // How many chunks the hole really cost is NOT derivable from sequence
  // numbers alone (retries, snapshots and control frames consume seqs
  // too); the gap is deferred to the resync handshake, whose snapshot
  // carries the sensor's own loss accounting and re-aligns the frontier.
  // The demand is checkpointed so that it survives a restart.
  s->stats.stale_frames_rejected += s->pending.size() + 1;
  total_.stale_frames_rejected += s->pending.size() + 1;
  s->pending.clear();
  s->awaiting_resync = true;
  ++s->stats.resync_requests;
  ++total_.resync_requests;
  SBR_RETURN_IF_ERROR(AppendProtocolCheckpoint(s));
  ack.type = AckType::kDesync;
  ack.resync_requested = true;
  return ack;
}

ProtocolStats BaseStation::stats(uint32_t sensor_id) const {
  auto it = sensors_.find(sensor_id);
  return it == sensors_.end() ? ProtocolStats() : it->second.stats;
}

StatusOr<const storage::CompressedHistory*> BaseStation::History(
    uint32_t sensor_id) const {
  if (!HasSensor(sensor_id)) {
    return Status::NotFound("sensor " + std::to_string(sensor_id));
  }
  return &Timeline(sensor_id);
}

StatusOr<const storage::ChunkLog*> BaseStation::Log(
    uint32_t sensor_id) const {
  auto it = sensors_.find(sensor_id);
  if (it == sensors_.end()) {
    return Status::NotFound("sensor " + std::to_string(sensor_id));
  }
  return &it->second.log;
}

}  // namespace sbr::net
