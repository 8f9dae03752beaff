#include "net/chaos_sim.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/rng.h"
#include "util/serialize.h"

namespace sbr::net {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t FnvMixDouble(uint64_t h, double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return FnvMix(h, bits);
}

/// Deterministic synthetic chunk for (seed, node, round): a smooth
/// per-signal waveform plus seeded noise. Stateless per round, so a
/// crash-restarted harness position regenerates nothing — each round's
/// chunk exists exactly once.
void GenerateChunk(uint64_t data_seed, uint32_t node_id, size_t round,
                   size_t num_signals, size_t chunk_len, size_t t,
                   Rng* rng, std::span<double> sample) {
  const double phase = static_cast<double>(round * chunk_len + t);
  for (size_t s = 0; s < num_signals; ++s) {
    sample[s] = 10.0 * std::sin(0.05 * phase + static_cast<double>(s)) +
                0.5 * static_cast<double>(s) + 0.1 * rng->Gaussian();
  }
  (void)data_seed;
  (void)node_id;
}

Rng ChunkRng(uint64_t data_seed, uint32_t node_id, size_t round) {
  return Rng(data_seed ^ (uint64_t{node_id} * 0x9e3779b97f4a7c15ull) ^
             (uint64_t{round} * 0xbf58476d1ce4e5b9ull));
}

/// Applies an accepted snapshot to a history with the same timeline
/// reconciliation the station performs, so shadow and station agree on
/// where every post-snapshot chunk lands.
Status ReconcileSnapshot(storage::DecodedHistory* history,
                         const core::BaseSnapshot& snap) {
  const uint64_t len = history->num_chunks();
  const uint64_t target =
      snap.timeline_chunks > 0 ? std::max<uint64_t>(snap.timeline_chunks, len)
                               : len + snap.missing_chunks;
  if (target > len) history->MarkGap(static_cast<size_t>(target - len));
  return history->ApplySnapshot(snap);
}

}  // namespace

uint64_t ChaosReport::Digest() const {
  uint64_t h = kFnvOffset;
  h = FnvMix(h, rounds);
  h = FnvMix(h, events_scheduled);
  h = FnvMix(h, events_applied);
  h = FnvMix(h, events_skipped);
  h = FnvMix(h, station_restarts);
  h = FnvMix(h, log_tears);
  for (const ChaosNodeReport& n : nodes) {
    h = FnvMix(h, n.id);
    h = FnvMix(h, n.fed);
    h = FnvMix(h, n.delivered);
    h = FnvMix(h, n.lost);
    h = FnvMix(h, n.crashes);
    h = FnvMix(h, n.clean_restarts);
    h = FnvMix(h, n.watchdog_restarts);
    h = FnvMix(h, n.pressure_toggles);
    h = FnvMix(h, n.backoff_slots);
    h = FnvMix(h, n.depth);
    h = FnvMix(h, n.relay_crashes);
    h = FnvMix(h, n.partitioned_rounds);
    h = FnvMix(h, n.retransmissions);
    h = FnvMix(h, n.retries_shed);
    h = FnvMix(h, n.forwarded_copies);
    h = FnvMix(h, n.charged_values);
    h = FnvMixDouble(h, n.energy.total_nj());
    h = FnvMix(h, n.station_chunks);
    h = FnvMix(h, n.station_gaps);
    h = FnvMix(h, n.history_digest);
  }
  h = FnvMix(h, violations.size());
  return h;
}

ChaosSim::ChaosSim(ChaosOptions options) : options_(std::move(options)) {}

Status ChaosSim::SetUp() {
  if (options_.log_dir.empty()) {
    return Status::InvalidArgument("chaos sim requires a log_dir");
  }
  std::error_code ec;
  fs::create_directories(options_.log_dir, ec);
  // The reorder window is protocol-test territory; the chaos layer owns
  // timeline alignment and runs the link strictly in-order.
  options_.link.reorder_probability = 0.0;
  options_.faults.rounds = options_.rounds;
  options_.faults.node_ids.clear();

  // Routing tree: node index i carries sensor id i + 1. Relays become
  // eligible for kRelayCrash; a star has none, so its fault schedule (and
  // the whole run) stays byte-identical to the pre-topology harness.
  TopologyOptions topo;
  topo.shape = options_.topology;
  topo.num_nodes = options_.num_nodes;
  topo.seed = options_.topology_seed;
  topology_ = Topology::Build(topo);
  options_.faults.relay_ids.clear();
  for (size_t relay : topology_.Relays()) {
    options_.faults.relay_ids.push_back(static_cast<uint32_t>(relay + 1));
  }

  nodes_.reserve(options_.num_nodes);
  for (size_t i = 0; i < options_.num_nodes; ++i) {
    const uint32_t id = static_cast<uint32_t>(i + 1);
    options_.faults.node_ids.push_back(id);
    // Every run starts cold: only the sim's own files are wiped.
    fs::remove(options_.log_dir + "/sensor_" + std::to_string(id) + ".log",
               ec);
    const std::string ckpt_path =
        options_.log_dir + "/node_" + std::to_string(id) + ".ckpt";
    fs::remove(ckpt_path, ec);

    NodeCtx ctx(options_.encoder.m_base);
    ctx.id = id;
    ctx.report.id = id;
    ctx.report.depth = topology_.depth(i);
    ctx.ckpt_path = ckpt_path;
    ctx.node = std::make_unique<SensorNode>(
        id, options_.num_signals, options_.chunk_len, options_.encoder);
    ctx.node->SetEnergyBudget(options_.node_energy_budget_nj,
                              options_.retry_energy_fraction);
    auto opened = storage::ChunkLog::Open(ckpt_path);
    if (!opened.ok()) return opened.status();
    ctx.ckpt = std::move(opened).value();
    // Double-commit the boot checkpoint (A/B slots): a torn tail can
    // destroy at most the last record, so one boot image always survives
    // and crash recovery never faces an empty log.
    const std::vector<uint8_t> boot = ctx.node->SaveCheckpoint();
    SBR_RETURN_IF_ERROR(ctx.ckpt.AppendCheckpoint(boot));
    SBR_RETURN_IF_ERROR(ctx.ckpt.AppendCheckpoint(boot));
    ctx.channel = FaultChannel(options_.link,
                               uint64_t{id} * 0x100000001b3ull + 0x5A);
    nodes_.push_back(std::move(ctx));
  }

  // Routes are built only after every NodeCtx exists: hop h of node i's
  // uplink points straight at the h-th path node's edge channel and report
  // row. Those addresses survive restarts (only ctx.node is replaced), so
  // each route is resolved exactly once.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    NodeCtx& ctx = nodes_[i];
    const std::vector<size_t>& path = topology_.path(i);
    ctx.route.hops.reserve(path.size());
    for (size_t h = 0; h < path.size(); ++h) {
      NodeCtx& hop = nodes_[path[h]];
      EngineHop eh;
      eh.channel = &hop.channel;
      eh.account = &hop.report.energy;
      eh.charged_values = &hop.report.charged_values;
      eh.forwarded_copies = h == 0 ? nullptr : &hop.report.forwarded_copies;
      eh.node = path[h];
      ctx.route.hops.push_back(eh);
    }
  }

  station_ = std::make_unique<BaseStation>(
      options_.encoder.m_base, options_.log_dir, options_.reorder_window,
      /*persist_protocol_state=*/true);

  // The engine under the chaos configuration: strict acceptance (the
  // shadow history must record exactly what the station ingested),
  // obs-silent (the harness is an oracle, not a workload), lifecycle
  // policy plugged in for partitions and shadow feeding.
  hooks_.sim = this;
  EngineOptions eopts;
  eopts.max_attempts = options_.max_attempts;
  eopts.max_resync_rounds = options_.max_resync_rounds;
  eopts.resync_enabled = true;
  eopts.strict_accept = true;
  eopts.emit_obs = false;
  engine_ = std::make_unique<SimEngine>(
      station_.get(), EnergyModel(options_.energy), eopts, &hooks_);
  return Status::Ok();
}

bool ChaosSim::Lifecycle::HopDown(size_t node) {
  // The relay-partition rule: a forwarding hop inside its outage window
  // (crash, stall, relay crash) is dark — copies reaching it vanish.
  return sim->round_ < sim->nodes_[node].stall_until;
}

Status ChaosSim::Lifecycle::OnFrameAccepted(const core::Frame& frame,
                                            const EngineRoute& route) {
  NodeCtx* ctx = &sim->nodes_[frame.sensor_id - 1];
  // I8: nothing may cross a downed ancestor. An accept here means the
  // partition leaked a frame through a dead relay.
  for (size_t h = 1; h < route.hops.size(); ++h) {
    const NodeCtx& hop = sim->nodes_[route.hops[h].node];
    if (sim->IsDown(hop)) {
      sim->report_.violations.push_back(
          "node " + std::to_string(ctx->id) +
          ": frame accepted while ancestor node " + std::to_string(hop.id) +
          " was down (I8)");
    }
  }
  return sim->ShadowAccept(ctx, frame);
}

DeliverySink ChaosSim::SinkFor(NodeCtx* ctx) {
  DeliverySink sink;
  sink.node = ctx->node.get();
  // The budget check reads the full account — including relay charges from
  // other nodes' traffic — matching what a real mote's battery sees.
  sink.energy = &ctx->report.energy;
  sink.retransmissions = &ctx->report.retransmissions;
  sink.backoff_slots = &ctx->report.backoff_slots;
  sink.retries_shed = &ctx->report.retries_shed;
  sink.chunks_delivered = &ctx->report.delivered;
  sink.chunks_lost = &ctx->report.lost;
  sink.malformed_relayed = &ctx->report.malformed_relayed;
  return sink;
}

Status ChaosSim::ShadowAccept(NodeCtx* ctx, const core::Frame& frame) {
  BinaryReader reader(frame.payload);
  if (frame.type == core::FrameType::kSnapshot) {
    auto snap = core::BaseSnapshot::Deserialize(&reader);
    if (!snap.ok()) return snap.status();
    return ReconcileSnapshot(&ctx->shadow, *snap);
  }
  auto t = core::Transmission::Deserialize(&reader);
  if (!t.ok()) return t.status();
  return ctx->shadow.Ingest(*t);
}

Status ChaosSim::ResolveChunk(NodeCtx* ctx, size_t round) {
  // Sample one chunk's worth of the node's synthetic feed.
  Rng rng = ChunkRng(options_.data_seed, ctx->id, round);
  std::vector<double> sample(options_.num_signals);
  std::optional<core::Transmission> tx;
  for (size_t t = 0; t < options_.chunk_len; ++t) {
    GenerateChunk(options_.data_seed, ctx->id, round, options_.num_signals,
                  options_.chunk_len, t, &rng, sample);
    auto emitted = ctx->node->AddSamples(sample);
    if (!emitted.ok()) return emitted.status();
    if (emitted->has_value()) tx = std::move(**emitted);
  }
  if (!tx.has_value()) {
    return Status::FailedPrecondition(
        "chunk_len samples did not fill the node buffer");
  }
  ++ctx->report.fed;

  // The engine drives the chunk to a terminal outcome — pending-resync
  // drain, primary delivery, snapshot + self-contained recovery, or the
  // DataLoss write-off — counting delivered/lost through the sink.
  SBR_RETURN_IF_ERROR(engine_->ResolveChunk(*tx, &ctx->route, SinkFor(ctx)));

  // Chunk-boundary checkpoint: the durable state a crash will restore.
  return ctx->ckpt.AppendCheckpoint(ctx->node->SaveCheckpoint());
}

Status ChaosSim::CrashRestartNode(NodeCtx* ctx) {
  // RAM is gone; the checkpoint log on disk is the only surviving state
  // (and recovery may truncate or quarantine parts of it).
  auto reopened = storage::ChunkLog::Open(ctx->ckpt_path);
  if (!reopened.ok()) return reopened.status();
  ctx->ckpt = std::move(reopened).value();

  std::vector<uint8_t> blob;
  const size_t idx = ctx->ckpt.LastCheckpointIndex();
  if (idx == storage::ChunkLog::kNoCheckpoint) {
    // Every checkpoint destroyed (bounded to pathological tear chains by
    // the A/B boot commit): boot factory-fresh, but still through the
    // crash path so seq/epoch take their reserves and a resync precedes
    // any data.
    SensorNode pristine(ctx->id, options_.num_signals, options_.chunk_len,
                        options_.encoder);
    blob = pristine.SaveCheckpoint();
  } else {
    auto read = ctx->ckpt.ReadCheckpoint(idx);
    if (!read.ok()) return read.status();
    blob = std::move(read).value();
  }
  ctx->node = std::make_unique<SensorNode>(
      ctx->id, options_.num_signals, options_.chunk_len, options_.encoder);
  ctx->node->SetEnergyBudget(options_.node_energy_budget_nj,
                             options_.retry_energy_fraction);
  SBR_RETURN_IF_ERROR(ctx->node->RestoreCheckpoint(
      blob, SensorNode::RestartMode::kCrash));
  // The checkpoint may predate the latest resolutions: conservatively
  // write off every chunk it cannot account for. If the station actually
  // holds some of them, the snapshot reconciliation takes max(timeline,
  // station length), so the write-off never shrinks real data into gaps.
  const size_t accounted =
      ctx->node->delivered_chunks() + ctx->node->lost_chunks();
  if (ctx->report.fed > accounted) {
    ctx->node->RecordLostChunks(ctx->report.fed - accounted);
  }
  // Re-commit immediately: the next tear must never face a log whose only
  // checkpoint is the record it is about to destroy.
  return ctx->ckpt.AppendCheckpoint(ctx->node->SaveCheckpoint());
}

Status ChaosSim::CleanRestartNode(NodeCtx* ctx) {
  const std::vector<uint8_t> blob = ctx->node->SaveCheckpoint();
  SBR_RETURN_IF_ERROR(ctx->ckpt.AppendCheckpoint(blob));
  ctx->node = std::make_unique<SensorNode>(
      ctx->id, options_.num_signals, options_.chunk_len, options_.encoder);
  ctx->node->SetEnergyBudget(options_.node_energy_budget_nj,
                             options_.retry_energy_fraction);
  return ctx->node->RestoreCheckpoint(
      blob, SensorNode::RestartMode::kCleanShutdown);
}

Status ChaosSim::RestartStation() {
  station_ = std::make_unique<BaseStation>(
      options_.encoder.m_base, options_.log_dir, options_.reorder_window,
      /*persist_protocol_state=*/true);
  engine_->set_station(station_.get());
  ++report_.station_restarts;
  return Status::Ok();
}

StatusOr<bool> ChaosSim::TearLog(const std::string& path,
                                 const storage::ChunkLog& view,
                                 TearMode mode,
                                 storage::RecordType flip_target) {
  if (view.empty()) return false;
  std::error_code ec;
  if (!fs::exists(path, ec)) return false;

  if (mode == TearMode::kHalfWrite) {
    // A record whose framing landed but whose payload did not: the length
    // prefix claims more bytes than follow.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    if (!out) return Status::DataLoss("cannot append tear to " + path);
    const uint8_t garbage[] = {0x40, 0x00, 0x00, 0x00, 0x00, 0xAA, 0xBB};
    out.write(reinterpret_cast<const char*>(garbage), sizeof(garbage));
    return true;
  }

  if (mode == TearMode::kFlipByte) {
    // Corrupt a settled record's payload mid-log; CRC catches it on the
    // next Open and recovery quarantines it.
    size_t target = view.size();
    for (size_t i = view.size(); i-- > 0;) {
      if (view.record_type(i) == flip_target) {
        target = i;
        break;
      }
    }
    if (target < view.size()) {
      const storage::ChunkLog::DiskSpan span = view.RecordDiskSpan(target);
      if (span.length > 9) {
        const size_t pos = span.offset + 9;  // first payload byte
        std::fstream io(path,
                        std::ios::binary | std::ios::in | std::ios::out);
        if (!io) return Status::DataLoss("cannot open " + path);
        io.seekg(static_cast<std::streamoff>(pos));
        char byte = 0;
        io.get(byte);
        io.seekp(static_cast<std::streamoff>(pos));
        io.put(static_cast<char>(byte ^ 0x55));
        return true;
      }
    }
    // No record of the requested type: fall through to a tail truncation.
  }

  const storage::ChunkLog::DiskSpan span =
      view.RecordDiskSpan(view.size() - 1);
  const size_t cut = span.offset + span.length / 2;
  fs::resize_file(path, cut, ec);
  if (ec) return Status::DataLoss("cannot truncate " + path);
  return true;
}

Status ChaosSim::ApplyEvent(const LifecycleEvent& e, size_t round) {
  NodeCtx* ctx = nullptr;
  if (e.fault != LifecycleFault::kStationRestart) {
    for (NodeCtx& n : nodes_) {
      if (n.id == e.node_id) ctx = &n;
    }
    if (ctx == nullptr) {
      ++report_.events_skipped;
      return Status::Ok();
    }
    // A node that is down (stalled) cannot take further faults.
    if (round < ctx->stall_until) {
      ++report_.events_skipped;
      return Status::Ok();
    }
  }

  switch (e.fault) {
    case LifecycleFault::kNodeCrash:
      SBR_RETURN_IF_ERROR(CrashRestartNode(ctx));
      ++ctx->report.crashes;
      // The crash costs the node its round: a dead sensor samples nothing.
      ctx->stall_until = std::max(ctx->stall_until, round + 1);
      break;
    case LifecycleFault::kNodeCleanRestart:
      // An orderly reboot checkpoints first and resumes within the round.
      SBR_RETURN_IF_ERROR(CleanRestartNode(ctx));
      ++ctx->report.clean_restarts;
      break;
    case LifecycleFault::kStationRestart:
      SBR_RETURN_IF_ERROR(RestartStation());
      break;
    case LifecycleFault::kPowerLoss: {
      if (e.tear_target == TearTarget::kStationLog) {
        // Power loss at the base: the active per-sensor log record is
        // damaged and the station reboots into log recovery.
        if (station_->HasSensor(ctx->id)) {
          auto log = station_->Log(ctx->id);
          if (!log.ok()) return log.status();
          auto torn = TearLog(
              options_.log_dir + "/sensor_" + std::to_string(ctx->id) +
                  ".log",
              **log, e.tear_mode, storage::RecordType::kTransmission);
          if (!torn.ok()) return torn.status();
          if (*torn) {
            ++report_.log_tears;
            any_station_tear_ = true;
          }
        }
        SBR_RETURN_IF_ERROR(RestartStation());
      } else {
        // Power loss at the node: the checkpoint being written is damaged
        // and the node crash-restarts from whatever survives.
        auto torn = TearLog(ctx->ckpt_path, ctx->ckpt, e.tear_mode,
                            storage::RecordType::kCheckpoint);
        if (!torn.ok()) return torn.status();
        if (*torn) ++report_.log_tears;
        SBR_RETURN_IF_ERROR(CrashRestartNode(ctx));
        ++ctx->report.crashes;
        ctx->stall_until = std::max(ctx->stall_until, round + 1);
      }
      break;
    }
    case LifecycleFault::kNodeStall:
      ctx->stall_until = std::max(ctx->stall_until, round + e.duration);
      ctx->watchdog_pending = true;
      break;
    case LifecycleFault::kMemoryPressure:
      ctx->node->SetMemoryPressure(!ctx->node->memory_pressure());
      ++ctx->report.pressure_toggles;
      break;
    case LifecycleFault::kRelayCrash:
      // The relay's process dies like a node crash, but the outage spans
      // `duration` rounds: while dark it neither samples nor forwards, so
      // its whole subtree is partitioned (Deliver drops descendant copies
      // at the dead hop). Once the route heals, queued descendants come
      // back through the usual snapshot resync.
      SBR_RETURN_IF_ERROR(CrashRestartNode(ctx));
      ++ctx->report.relay_crashes;
      ctx->stall_until = std::max(
          ctx->stall_until, round + std::max<size_t>(e.duration, 1));
      break;
  }
  ++report_.events_applied;
  return Status::Ok();
}

Status ChaosSim::RunRound(size_t round) {
  for (NodeCtx& ctx : nodes_) {
    if (round >= ctx.stall_until && ctx.watchdog_pending) {
      // The stall window elapsed without the node reporting in: the
      // watchdog power-cycles it. The reboot consumes this round too.
      ctx.watchdog_pending = false;
      SBR_RETURN_IF_ERROR(CrashRestartNode(&ctx));
      ++ctx.report.watchdog_restarts;
      ctx.stall_until = std::max(ctx.stall_until, round + 1);
    }
    if (round < ctx.stall_until) {
      ++ctx.report.stall_rounds;
      continue;
    }
    // A live node behind a downed ancestor is partitioned: it still
    // samples and transmits (paying hop-0 energy), but nothing crosses
    // the dead relay, so this round's chunk resolves through the
    // abandonment path and resyncs once the route heals.
    const std::vector<size_t>& path = topology_.path(ctx.id - 1);
    for (size_t h = 1; h < path.size(); ++h) {
      if (IsDown(nodes_[path[h]])) {
        ++ctx.report.partitioned_rounds;
        break;
      }
    }
    SBR_RETURN_IF_ERROR(ResolveChunk(&ctx, round));
  }
  return Status::Ok();
}

Status ChaosSim::Finalize() {
  for (NodeCtx& ctx : nodes_) {
    if (ctx.report.fed == 0) continue;
    // Drain pending loss reports over the (still faulty) channel first.
    SBR_RETURN_IF_ERROR(engine_->DrainResyncs(&ctx.route, SinkFor(&ctx)));
    // Guaranteed convergence: a direct, channel-bypassing handshake, as
    // if the operator walked the last hop. Each attempt opens a fresh
    // epoch, so acceptance is reached within a bounded number of tries.
    bool accepted = false;
    for (size_t tries = 0; tries < 8 && !accepted; ++tries) {
      core::Frame frame = ctx.node->BuildSnapshotFrame();
      BinaryWriter writer;
      frame.Serialize(&writer);
      auto ack = station_->ReceiveBytes(writer.buffer());
      if (!ack.ok()) return ack.status();
      if (ack->type == AckType::kAccept && ack->sensor_id == ctx.id &&
          ack->seq == frame.seq) {
        SBR_RETURN_IF_ERROR(ShadowAccept(&ctx, frame));
        ctx.node->MarkSnapshotDelivered();
        ctx.node->set_needs_resync(false);
        accepted = true;
      }
    }
    if (!accepted) {
      report_.violations.push_back(
          "finalize: node " + std::to_string(ctx.id) +
          " could not re-establish sync over a clean channel");
    }
  }
  return Status::Ok();
}

void ChaosSim::CheckInvariants() {
  for (NodeCtx& ctx : nodes_) {
    ChaosNodeReport& nr = ctx.report;
    const std::string who = "node " + std::to_string(ctx.id) + ": ";
    auto violate = [&](const std::string& what) {
      report_.violations.push_back(who + what);
    };

    // I3: every fed chunk reached a terminal state.
    if (nr.delivered + nr.lost != nr.fed) {
      violate("accounting: delivered " + std::to_string(nr.delivered) +
              " + lost " + std::to_string(nr.lost) + " != fed " +
              std::to_string(nr.fed));
    }

    // I9: the energy account reconciles against the closed-form cost of
    // exactly the values charged plus the backoff idle-listening. The
    // tolerance only absorbs summation-order ulps under fractional
    // EnergyParams; the defaults are integer-valued and match exactly.
    EnergyAccount expect;
    engine_->energy().ChargeTransmission(nr.charged_values, 1, &expect);
    engine_->energy().ChargeBackoff(nr.backoff_slots, &expect);
    const double scale = std::max(1.0, expect.total_nj());
    if (std::abs(expect.total_nj() - nr.energy.total_nj()) >
        1e-6 * scale) {
      violate("energy: account " + std::to_string(nr.energy.total_nj()) +
              " nJ diverges from the closed form " +
              std::to_string(expect.total_nj()) + " nJ (I9)");
    }
    if (nr.fed == 0) continue;

    if (!station_->HasSensor(ctx.id)) {
      violate("station never heard from a node that fed chunks");
      continue;
    }
    auto history = station_->History(ctx.id);
    if (!history.ok()) {
      violate("history lookup failed: " + history.status().ToString());
      continue;
    }
    const storage::CompressedHistory& h = **history;
    nr.station_chunks = h.num_chunks();
    nr.station_gaps = h.num_gaps();

    // I2: the timeline converged to exactly the chunks fed.
    if (h.num_chunks() != nr.fed) {
      violate("timeline: station holds " + std::to_string(h.num_chunks()) +
              " chunks, fed " + std::to_string(nr.fed));
    }
    if (ctx.shadow.num_chunks() != nr.fed) {
      violate("shadow timeline: " + std::to_string(ctx.shadow.num_chunks()) +
              " chunks, fed " + std::to_string(nr.fed));
    }

    // I4: data survives unless a fault explicitly destroyed it.
    const size_t station_data = h.num_chunks() - h.num_gaps();
    if (!any_station_tear_ && station_data != nr.delivered) {
      violate("retention: station holds " + std::to_string(station_data) +
              " data chunks, delivered " + std::to_string(nr.delivered) +
              " (no station-log tears occurred)");
    }
    if (station_data > nr.delivered) {
      violate("phantom data: station holds " + std::to_string(station_data) +
              " data chunks but only " + std::to_string(nr.delivered) +
              " were delivered");
    }

    // I1: no silent corruption, chunk by chunk, bit by bit.
    uint64_t digest = kFnvOffset;
    const size_t n = std::min(h.num_chunks(), ctx.shadow.num_chunks());
    for (size_t c = 0; c < n; ++c) {
      const bool station_gap = h.IsGap(c);
      const bool shadow_gap = ctx.shadow.IsGap(c);
      digest = FnvMix(digest, station_gap ? 1 : 0);
      if (shadow_gap && !station_gap) {
        violate("chunk " + std::to_string(c) +
                ": station serves data for a chunk written off as lost");
        continue;
      }
      if (station_gap) continue;
      auto got = h.Chunk(c);
      auto want = ctx.shadow.Chunk(c);
      if (!got.ok() || !want.ok()) {
        violate("chunk " + std::to_string(c) + ": unreadable");
        continue;
      }
      if (got->rows() != want->rows() || got->cols() != want->cols()) {
        violate("chunk " + std::to_string(c) + ": geometry mismatch");
        continue;
      }
      const size_t count = got->rows() * got->cols();
      const double* a = got->data().data();
      const double* b = want->data().data();
      bool equal = true;
      for (size_t k = 0; k < count; ++k) {
        if (!std::isfinite(a[k])) {
          violate("chunk " + std::to_string(c) + ": non-finite value");
          equal = false;
          break;
        }
        if (std::memcmp(&a[k], &b[k], sizeof(double)) != 0) {
          equal = false;
          break;
        }
        digest = FnvMixDouble(digest, a[k]);
      }
      if (!equal) {
        violate("chunk " + std::to_string(c) +
                ": station bytes diverge from the accepted transmission");
      }
    }
    nr.history_digest = digest;
  }

  // I7: the whole schedule was consumed, every event applied or
  // explicitly skipped.
  if (report_.events_applied + report_.events_skipped !=
      report_.events_scheduled) {
    report_.violations.push_back(
        "schedule: applied " + std::to_string(report_.events_applied) +
        " + skipped " + std::to_string(report_.events_skipped) +
        " != scheduled " + std::to_string(report_.events_scheduled));
  }
}

StatusOr<ChaosReport> ChaosSim::Run() {
  SBR_RETURN_IF_ERROR(SetUp());
  FaultScheduler scheduler(options_.faults);
  report_.rounds = options_.rounds;
  report_.events_scheduled = scheduler.total_events();

  const std::vector<LifecycleEvent>& events = scheduler.events();
  size_t next_event = 0;
  for (size_t round = 0; round < options_.rounds; ++round) {
    round_ = round;
    while (next_event < events.size() && events[next_event].round == round) {
      SBR_RETURN_IF_ERROR(ApplyEvent(events[next_event], round));
      ++next_event;
    }
    SBR_RETURN_IF_ERROR(RunRound(round));
  }
  // Every outage expires inside the fault window, so Finalize's resyncs
  // run over fully healed routes.
  round_ = options_.rounds;
  SBR_RETURN_IF_ERROR(Finalize());
  CheckInvariants();

  for (NodeCtx& ctx : nodes_) {
    report_.total_fed += ctx.report.fed;
    report_.total_delivered += ctx.report.delivered;
    report_.total_lost += ctx.report.lost;
    report_.nodes.push_back(ctx.report);
  }
  return std::move(report_);
}

}  // namespace sbr::net
