#include "net/sim_engine.h"

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "util/serialize.h"

namespace sbr::net {
namespace {

/// Gauge rounding that tolerates the NaN sentinel (and any other
/// non-finite figure): llround on a NaN is undefined behaviour, and the
/// registry view is a dashboard, so non-finite rounds to 0.
int64_t RoundGauge(double v) {
  return std::isfinite(v) ? static_cast<int64_t>(std::llround(v)) : 0;
}

/// The null lifecycle policy NetworkSim runs under.
LifecycleHooks* NullHooks() {
  static LifecycleHooks hooks;
  return &hooks;
}

}  // namespace

double SimulationReport::CompressionFactor() const {
  return total_values_sent == 0
             ? 0.0
             : static_cast<double>(total_values_raw) /
                   static_cast<double>(total_values_sent);
}

double SimulationReport::EnergySavingFactor() const {
  // A run that spent nothing has no meaningful saving factor; 0.0 would
  // claim "no saving" for the cheapest run possible. NaN is the documented
  // sentinel (see sim_engine.h).
  return total_energy_nj == 0.0 ? std::numeric_limits<double>::quiet_NaN()
                                : total_raw_energy_nj / total_energy_nj;
}

void SimulationReport::PublishMetrics(obs::MetricsRegistry* registry) const {
  if (!obs::Enabled() || registry == nullptr) return;
  // Dynamic names, so the cached-reference macros do not apply; this runs
  // once per report, far from any hot path. Doubles (energy, sse) are
  // rounded through the non-finite-safe RoundGauge — the registry view is
  // a gauge dashboard, the report struct remains the exact figure.
  auto set = [registry](const std::string& name, int64_t v) {
    registry->GetGauge(name).Set(v);
  };
  set("sim.values_sent", static_cast<int64_t>(total_values_sent));
  set("sim.values_raw", static_cast<int64_t>(total_values_raw));
  set("sim.energy_nj", RoundGauge(total_energy_nj));
  set("sim.raw_energy_nj", RoundGauge(total_raw_energy_nj));
  set("sim.sse", RoundGauge(total_sse));
  // x1000 fixed-point so the dashboard keeps sub-integer saving factors;
  // the NaN sentinel (nothing spent) rounds to 0 rather than tripping UB.
  set("sim.energy_saving_x1000", RoundGauge(EnergySavingFactor() * 1000.0));
  set("sim.chunks_lost", static_cast<int64_t>(total_chunks_lost));
  set("sim.corrupt_frames", static_cast<int64_t>(total_corrupt_frames));
  set("sim.duplicates_suppressed",
      static_cast<int64_t>(total_duplicates_suppressed));
  set("sim.resyncs", static_cast<int64_t>(total_resyncs));
  set("sim.degraded_batches", static_cast<int64_t>(total_degraded_batches));
  set("sim.nodes", static_cast<int64_t>(nodes.size()));
  for (const NodeReport& nr : nodes) {
    const std::string p = "node." + std::to_string(nr.id) + ".";
    set(p + "tx_values", static_cast<int64_t>(nr.values_sent));
    set(p + "raw_values", static_cast<int64_t>(nr.values_raw));
    set(p + "retries", static_cast<int64_t>(nr.retransmissions));
    set(p + "energy_nj", RoundGauge(nr.energy.total_nj()));
    set(p + "chunks_lost", static_cast<int64_t>(nr.chunks_lost));
    set(p + "corrupt_frames",
        static_cast<int64_t>(nr.corrupt_frames_detected));
    set(p + "resyncs", static_cast<int64_t>(nr.resyncs_triggered));
    set(p + "forwarded_copies", static_cast<int64_t>(nr.forwarded_copies));
    set(p + "sse", RoundGauge(nr.sse));
  }
}

void RelayCharges::Reset(size_t n) {
  energy.assign(n, std::vector<EnergyAccount>(n));
  copies.assign(n, std::vector<size_t>(n, 0));
  values.assign(n, std::vector<size_t>(n, 0));
}

SimEngine::SimEngine(BaseStation* station, EnergyModel energy,
                     EngineOptions options, LifecycleHooks* hooks)
    : station_(station),
      energy_(energy),
      options_(options),
      hooks_(hooks != nullptr ? hooks : NullHooks()) {}

StatusOr<SimEngine::DeliveryOutcome> SimEngine::DeliverFrame(
    const core::Frame& frame, size_t value_count, EngineRoute* route,
    const DeliverySink& sink) {
  BinaryWriter writer;
  frame.Serialize(&writer);
  const std::vector<uint8_t>& wire = writer.buffer();
  if (options_.emit_obs) {
    SBR_OBS_COUNT("net.tx.frames", 1);
    SBR_OBS_COUNT("net.tx.bytes", wire.size());
    SBR_OBS_HIST("net.tx.frame_bytes", wire.size());
  }

  // Stop-and-wait with end-to-end acknowledgement: each attempt pushes one
  // fresh copy through every hop's fault process; retries back off
  // exponentially and are charged to the origin's energy account.
  for (size_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      if (!sink.node->RetryAllowed(sink.energy->total_nj())) {
        // Past the energy-aware retry budget: shed the retry rather than
        // the next sensing round. The frame falls through to abandonment
        // and the loss surfaces through the usual resync/gap machinery.
        ++*sink.retries_shed;
        if (options_.emit_obs) SBR_OBS_COUNT("net.tx.retries_shed", 1);
        break;
      }
      ++*sink.retransmissions;
      if (options_.emit_obs) SBR_OBS_COUNT("net.tx.retries", 1);
      const size_t slots = sink.node->NextBackoffSlots(attempt);
      *sink.backoff_slots += slots;
      energy_.ChargeBackoff(slots, sink.energy);
    }
    std::vector<std::vector<uint8_t>> copies;
    copies.push_back(wire);
    for (size_t h = 0; h < route->hops.size() && !copies.empty(); ++h) {
      EngineHop& hop = route->hops[h];
      if (h > 0 && hooks_->HopDown(hop.node)) {
        // Partition: the relay is dark, so copies reaching it vanish and
        // its dead radio transmits (and is charged) nothing. The origin
        // already paid for the hops the copies did cross.
        copies.clear();
        break;
      }
      std::vector<std::vector<uint8_t>> next;
      for (auto& copy : copies) {
        // Forwarding hops classify each arriving copy with the same
        // envelope check the station applies — a malformed frame gets the
        // identical verdict at every hop — but never drop: enforcement
        // stays at the station, so relayed delivery and energy are
        // untouched by the classification.
        if (h > 0 && sink.malformed_relayed != nullptr &&
            !core::Frame::Parse(copy).ok()) {
          ++*sink.malformed_relayed;
          if (options_.emit_obs) SBR_OBS_COUNT("net.relay.malformed", 1);
        }
        // Every copy entering a hop pays one hop of radio energy, whether
        // or not the hop delivers it — charged to whichever node transmits
        // the hop: the origin for hop 0 (and every hop of a legacy private
        // chain), the forwarding relay otherwise.
        energy_.ChargeTransmission(value_count, 1, hop.account);
        *hop.charged_values += value_count;
        if (hop.forwarded_copies != nullptr) ++*hop.forwarded_copies;
        auto out = hop.channel->Transmit(std::move(copy));
        for (auto& o : out) next.push_back(std::move(o));
      }
      copies = std::move(next);
    }

    bool accepted = false;
    bool desync = false;
    for (auto& copy : copies) {
      auto ack = StationReceive(copy, sink.corrupt_frames);
      if (!ack.ok()) return ack.status();
      // Only a CRC-clean ack for this frame's identity settles its fate;
      // acks for held frames released from earlier transmits, and corrupt
      // NACKs (which carry no trustworthy identity), do not.
      if (ack->type == AckType::kCorrupt) continue;
      if (ack->sensor_id != frame.sensor_id || ack->seq != frame.seq) {
        continue;
      }
      switch (ack->type) {
        case AckType::kAccept:
          accepted = true;
          break;
        case AckType::kDuplicate:  // an earlier copy already made it
        case AckType::kBuffered:   // held in the reorder window: delivered
          // Under strict acceptance (ChaosSim) neither settles the frame:
          // the shadow history must record exactly what the station
          // ingested, and these acks carry no ingested payload.
          if (!options_.strict_accept) accepted = true;
          break;
        case AckType::kDesync:
          desync = true;
          break;
        default:
          break;
      }
    }
    if (accepted) {
      SBR_RETURN_IF_ERROR(hooks_->OnFrameAccepted(frame, *route));
      return DeliveryOutcome::kAccepted;
    }
    // Retrying the same frame cannot cure a desync; the caller must resync.
    if (desync) {
      if (options_.emit_obs) SBR_OBS_COUNT("net.tx.desyncs", 1);
      return DeliveryOutcome::kDesync;
    }
  }
  if (sink.frames_abandoned != nullptr) ++*sink.frames_abandoned;
  if (options_.emit_obs) SBR_OBS_COUNT("net.tx.abandoned", 1);
  return DeliveryOutcome::kAbandoned;
}

StatusOr<bool> SimEngine::TryResync(bool recover_batch, EngineRoute* route,
                                    const DeliverySink& sink) {
  SensorNode* node = sink.node;
  // The snapshot opens a new epoch and carries the node's report of chunks
  // lost for good, which the station turns into explicit DataLoss gaps.
  core::Frame snap = node->BuildSnapshotFrame();
  const size_t snap_values = BytesToValues(snap.payload.size());
  if (sink.values_sent != nullptr) *sink.values_sent += snap_values;
  auto delivered = DeliverFrame(
      snap, OnAirValues(energy_.params(), snap_values), route, sink);
  if (!delivered.ok()) return delivered.status();
  if (*delivered != DeliveryOutcome::kAccepted) return false;
  node->MarkSnapshotDelivered();
  node->set_needs_resync(false);
  if (!recover_batch) return true;

  // Ship the affected batch re-encoded self-contained: plain linear
  // models, no base-signal references, decodable regardless of how much
  // base state the station missed.
  auto degraded = node->EncodeSelfContained();
  if (!degraded.ok()) return degraded.status();
  const size_t values = degraded->ValueCount();
  core::Frame frame = node->MakeDataFrame(*degraded);
  if (sink.values_sent != nullptr) *sink.values_sent += values;
  auto outcome = DeliverFrame(frame, OnAirValues(energy_.params(), values),
                              route, sink);
  if (!outcome.ok()) return outcome.status();
  if (*outcome == DeliveryOutcome::kAccepted) {
    node->MarkChunkDelivered();
    if (sink.chunks_delivered != nullptr) ++*sink.chunks_delivered;
    return true;
  }
  if (*outcome == DeliveryOutcome::kDesync) node->set_needs_resync(true);
  return false;
}

Status SimEngine::ResolveChunk(const core::Transmission& tx,
                               EngineRoute* route,
                               const DeliverySink& sink) {
  SensorNode* node = sink.node;
  // A pending resync (desynchronized station, lost chunks not yet
  // reported, crash recovery) must be resolved first — the gap report
  // travels in the snapshot and keeps the station's timeline aligned.
  if (options_.resync_enabled && node->needs_resync()) {
    for (size_t round = 0;
         round < options_.max_resync_rounds && node->needs_resync();
         ++round) {
      auto ok = TryResync(/*recover_batch=*/false, route, sink);
      if (!ok.ok()) return ok.status();
    }
    if (node->needs_resync()) {
      // Still desynchronized: this chunk cannot reach the station in a
      // decodable form. It joins the next successful snapshot's report.
      node->RecordLostChunk();
      if (sink.chunks_lost != nullptr) ++*sink.chunks_lost;
      return Status::Ok();
    }
  }

  const size_t values = tx.ValueCount();
  core::Frame frame = node->MakeDataFrame(tx);
  if (sink.values_sent != nullptr) *sink.values_sent += values;
  auto outcome = DeliverFrame(frame, OnAirValues(energy_.params(), values),
                              route, sink);
  if (!outcome.ok()) return outcome.status();
  if (*outcome == DeliveryOutcome::kAccepted) {
    node->MarkChunkDelivered();
    if (sink.chunks_delivered != nullptr) ++*sink.chunks_delivered;
    return Status::Ok();
  }

  if (options_.resync_enabled) {
    for (size_t round = 0; round < options_.max_resync_rounds; ++round) {
      auto recovered = TryResync(/*recover_batch=*/true, route, sink);
      if (!recovered.ok()) return recovered.status();
      if (*recovered) return Status::Ok();
    }
  }
  // The chunk is gone for good. Record it loudly; with resync enabled the
  // loss surfaces as a DataLoss gap via the next snapshot, and with resync
  // disabled the station's own gap declaration covers it.
  node->RecordLostChunk();
  if (sink.chunks_lost != nullptr) ++*sink.chunks_lost;
  return Status::Ok();
}

Status SimEngine::DrainResyncs(EngineRoute* route,
                               const DeliverySink& sink) {
  if (!options_.resync_enabled) return Status::Ok();
  for (size_t round = 0;
       round < options_.max_resync_rounds && sink.node->needs_resync();
       ++round) {
    auto ok = TryResync(/*recover_batch=*/false, route, sink);
    if (!ok.ok()) return ok.status();
  }
  return Status::Ok();
}

Status SimEngine::FlushRoute(EngineRoute* route, const DeliverySink& sink) {
  const size_t num_hops = route->hops.size();
  for (size_t h = 0; h < num_hops; ++h) {
    std::vector<std::vector<uint8_t>> copies = route->hops[h].channel->Flush();
    for (size_t g = h + 1; g < num_hops && !copies.empty(); ++g) {
      EngineHop& hop = route->hops[g];
      std::vector<std::vector<uint8_t>> next;
      for (auto& copy : copies) {
        const size_t flush_values = BytesToValues(copy.size());
        energy_.ChargeTransmission(flush_values, 1, hop.account);
        *hop.charged_values += flush_values;
        if (hop.forwarded_copies != nullptr) ++*hop.forwarded_copies;
        auto out = hop.channel->Transmit(std::move(copy));
        for (auto& o : out) next.push_back(std::move(o));
      }
      copies = std::move(next);
    }
    for (auto& copy : copies) {
      auto ack = StationReceive(copy, sink.corrupt_frames);
      if (!ack.ok()) return ack.status();
    }
  }
  return Status::Ok();
}

StatusOr<FrameAck> SimEngine::StationReceive(std::span<const uint8_t> bytes,
                                             size_t* corrupt_out) {
  const size_t corrupt_before = station_->total_stats().corrupt_frames;
  auto ack = station_->ReceiveBytes(bytes);
  if (corrupt_out != nullptr) {
    *corrupt_out += station_->total_stats().corrupt_frames - corrupt_before;
  }
  return ack;
}

void SimEngine::MergeRelayCharges(const RelayCharges& charges,
                                  std::vector<NodeReport>* reports) {
  if (charges.empty()) return;  // legacy star runs accumulate no relay rows
  const size_t n = reports->size();
  for (size_t origin = 0; origin < n; ++origin) {
    for (size_t relay = 0; relay < n; ++relay) {
      const EnergyAccount& a = charges.energy[origin][relay];
      NodeReport& rr = (*reports)[relay];
      rr.energy.tx_nj += a.tx_nj;
      rr.energy.rx_nj += a.rx_nj;
      rr.energy.overhear_nj += a.overhear_nj;
      rr.energy.cpu_nj += a.cpu_nj;
      rr.energy.backoff_nj += a.backoff_nj;
      rr.forwarded_copies += charges.copies[origin][relay];
      rr.charged_values += charges.values[origin][relay];
    }
  }
}

SimulationReport SimEngine::BuildReport(std::vector<NodeReport> reports) {
  SimulationReport report;
  for (NodeReport& nr : reports) {
    report.total_values_sent += nr.values_sent;
    report.total_values_raw += nr.values_raw;
    report.total_energy_nj += nr.energy.total_nj();
    report.total_raw_energy_nj += nr.raw_energy_nj;
    report.total_sse += nr.sse;
    report.total_chunks_lost += nr.chunks_lost;
    report.total_corrupt_frames += nr.corrupt_frames_detected;
    report.total_duplicates_suppressed += nr.duplicates_suppressed;
    report.total_resyncs += nr.resyncs_triggered;
    report.total_degraded_batches += nr.degraded_batches;
    report.nodes.push_back(std::move(nr));
  }
  return report;
}

}  // namespace sbr::net
