#include "net/network.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace sbr::net {
namespace {

FaultOptions ToFaultOptions(const LinkOptions& link) {
  FaultOptions f;
  f.drop_probability = link.loss_probability;
  f.duplicate_probability = link.duplicate_probability;
  f.reorder_probability = link.reorder_probability;
  f.bit_flip_probability = link.bit_flip_probability;
  f.seed = link.seed;
  return f;
}

EngineOptions ToEngineOptions(const LinkOptions& link) {
  EngineOptions e;
  e.max_attempts = link.max_attempts;
  e.max_resync_rounds = link.max_resync_rounds;
  e.resync_enabled = link.resync_enabled;
  e.strict_accept = false;
  e.emit_obs = true;
  return e;
}

}  // namespace

NetworkSim::NetworkSim(std::vector<NodePlacement> placements,
                       core::EncoderOptions encoder_options,
                       size_t chunk_len, EnergyParams energy,
                       LinkOptions link)
    : placements_(std::move(placements)),
      encoder_options_(std::move(encoder_options)),
      chunk_len_(chunk_len),
      link_(link),
      station_(encoder_options_.m_base, "", link.reorder_window),
      engine_(&station_, EnergyModel(energy), ToEngineOptions(link)) {}

NetworkSim::NetworkSim(Topology topology,
                       std::vector<NodePlacement> placements,
                       core::EncoderOptions encoder_options,
                       size_t chunk_len, EnergyParams energy,
                       LinkOptions link)
    : placements_(std::move(placements)),
      topology_(std::move(topology)),
      has_topology_(true),
      encoder_options_(std::move(encoder_options)),
      chunk_len_(chunk_len),
      link_(link),
      station_(encoder_options_.m_base, "", link.reorder_window),
      engine_(&station_, EnergyModel(energy), ToEngineOptions(link)) {}

Status NetworkSim::EnableQueryService(size_t probe_every_chunks) {
  storage::QueryServiceOptions opts;
  opts.m_base = encoder_options_.m_base;
  auto service = std::make_unique<storage::QueryService>(opts);
  SBR_RETURN_IF_ERROR(station_.AttachQueryService(service.get()));
  query_service_ = std::move(service);
  probe_every_chunks_ = probe_every_chunks == 0 ? 1 : probe_every_chunks;
  return Status::Ok();
}

Status NetworkSim::RunNode(size_t index, const datagen::Dataset& feed,
                           NodeReport* nr_out, RelayCharges* charges) {
  SBR_OBS_SPAN(node_span, "net.node");
  const NodePlacement& place = placements_[index];
  SensorNode node(place.id, feed.num_signals(), chunk_len_,
                  encoder_options_);
  node.SetEnergyBudget(link_.node_energy_budget_nj,
                       link_.retry_energy_fraction);
  NodeReport& nr = *nr_out;
  nr.id = place.id;

  // Build the uplink route. With a topology it is the tree's real path —
  // hop h is transmitted by the h-th node on the way up (the origin at
  // h = 0, then its ancestors); otherwise it is the legacy private chain
  // with the origin paying every hop. Either way the fault processes stay
  // salted per (origin id, hop index), so a depth-1 star draws exactly the
  // legacy constructor's deterministic streams. Charge targets resolve
  // here, once: hops the origin transmits point into its own report, hops
  // a relay transmits point into this origin's private relay-charge row
  // (merged origin-major after the parallel section).
  std::vector<size_t> tx;
  if (has_topology_) {
    tx = topology_.path(index);
  } else {
    const size_t legacy_hops =
        place.hops_to_base == 0 ? 1 : place.hops_to_base;
    tx.assign(legacy_hops, index);
  }
  const size_t num_hops = tx.size();
  std::vector<FaultChannel> channels;
  channels.reserve(num_hops);
  EngineRoute route;
  route.hops.reserve(num_hops);
  for (size_t h = 0; h < num_hops; ++h) {
    channels.emplace_back(ToFaultOptions(link_),
                          (static_cast<uint64_t>(place.id) << 16) | h);
    EngineHop hop;
    hop.channel = &channels[h];
    hop.node = tx[h];
    if (tx[h] == index) {
      hop.account = &nr.energy;
      hop.charged_values = &nr.charged_values;
      hop.forwarded_copies = nullptr;
    } else {
      hop.account = &charges->energy[index][tx[h]];
      hop.charged_values = &charges->values[index][tx[h]];
      hop.forwarded_copies = &charges->copies[index][tx[h]];
    }
    route.hops.push_back(hop);
  }

  DeliverySink sink;
  sink.node = &node;
  sink.energy = &nr.energy;
  sink.retransmissions = &nr.retransmissions;
  sink.backoff_slots = &nr.backoff_slots;
  sink.retries_shed = &nr.retries_shed;
  sink.frames_abandoned = &nr.frames_abandoned;
  sink.corrupt_frames = &nr.corrupt_frames_detected;
  sink.values_sent = &nr.values_sent;
  sink.malformed_relayed = &nr.malformed_relayed;

  std::vector<double> sample(feed.num_signals());
  size_t chunks_resolved = 0;
  for (size_t t = 0; t < feed.length(); ++t) {
    for (size_t s = 0; s < feed.num_signals(); ++s) {
      sample[s] = feed.values(s, t);
    }
    auto emitted = node.AddSamples(sample);
    if (!emitted.ok()) return emitted.status();
    if (!emitted->has_value()) continue;

    nr.values_raw += feed.num_signals() * chunk_len_;
    nr.raw_energy_nj += engine_.energy().RawTransmissionNj(
        feed.num_signals() * chunk_len_, num_hops);
    SBR_RETURN_IF_ERROR(engine_.ResolveChunk(**emitted, &route, sink));

    // Mid-round read-only probe: a concurrent reader hitting this node's
    // published snapshot while other nodes are still ingesting. Answers
    // feed only obs metrics and the service's own counters — never the
    // report — so the digest is identical with the service detached.
    if (query_service_ != nullptr &&
        ++chunks_resolved % probe_every_chunks_ == 0) {
      SBR_OBS_COUNT("net.sim.query_probes", 1);
      auto snap = query_service_->Snapshot(place.id);
      if (snap != nullptr && snap->compressed.history_len() > 0) {
        const size_t len = snap->compressed.history_len();
        (void)query_service_->Aggregate(place.id, 0, 0, len);
        (void)query_service_->Point(place.id, 0, len - 1);
      }
    }
  }

  // Trailing losses still deserve a gap report: resync once more if the
  // node knows of chunks the station has not accounted for.
  SBR_RETURN_IF_ERROR(engine_.DrainResyncs(&route, sink));

  // Drain frames still held inside reordering hops (residual copies pay
  // for the hops they have left to travel).
  SBR_RETURN_IF_ERROR(engine_.FlushRoute(&route, sink));

  nr.transmissions = node.transmissions();
  nr.resyncs_triggered = node.resyncs();
  nr.degraded_batches = node.degraded_batches();
  nr.chunks_lost = node.lost_chunks();

  // Score the reconstructed history against the truth, chunk by chunk;
  // chunks recorded as DataLoss gaps are excluded (their loss is already
  // reported explicitly, not smeared into the error figure). Only the map
  // lookups need the station lock: after this node's last frame, no other
  // node touches this sensor's per-sensor state, so the history reads run
  // unlocked.
  const storage::HistoryStore* history = nullptr;
  {
    std::lock_guard<std::mutex> lock(engine_.station_mutex());
    nr.duplicates_suppressed =
        station_.stats(place.id).duplicates_suppressed;
    if (station_.HasSensor(place.id)) {
      auto h = station_.History(place.id);
      if (!h.ok()) return h.status();
      history = *h;
    }
  }
  if (history != nullptr) {
    const storage::HistoryStore& h = *history;
    std::vector<double> truth(h.chunk_len());
    for (size_t c = 0; c < h.num_chunks(); ++c) {
      if (h.IsGap(c)) continue;
      const size_t t0 = c * h.chunk_len();
      if (t0 + h.chunk_len() > feed.length()) break;
      for (size_t s = 0; s < feed.num_signals(); ++s) {
        auto approx = h.QueryRange(s, t0, t0 + h.chunk_len());
        if (!approx.ok()) return approx.status();
        for (size_t k = 0; k < h.chunk_len(); ++k) {
          truth[k] = feed.values(s, t0 + k);
        }
        nr.sse += SumSquaredError(truth, *approx);
      }
    }
  }
  return Status::Ok();
}

StatusOr<SimulationReport> NetworkSim::Run(
    const std::vector<datagen::Dataset>& feeds) {
  if (feeds.size() != placements_.size()) {
    return Status::InvalidArgument(
        "got " + std::to_string(feeds.size()) + " feeds for " +
        std::to_string(placements_.size()) + " nodes");
  }
  if (has_topology_ && topology_.num_nodes() != placements_.size()) {
    return Status::InvalidArgument(
        "topology has " + std::to_string(topology_.num_nodes()) +
        " nodes for " + std::to_string(placements_.size()) + " placements");
  }

  // Nodes are mutually independent (own encoder, fault channels, energy
  // account; station serialized behind the engine's mutex), so the
  // per-node simulations fan out over the pool. Each node writes its own
  // report slot; relay charges accumulate per origin (row i is private to
  // node i's simulation) and MergeRelayCharges folds them origin-major, so
  // the report is bitwise identical at any thread count.
  const size_t threads = std::max<size_t>(encoder_options_.threads, 1);
  const size_t n = placements_.size();
  std::vector<NodeReport> reports(n);
  std::vector<Status> statuses(n, Status::Ok());
  RelayCharges charges;
  if (has_topology_) charges.Reset(n);
  util::ParallelFor(threads, n, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      statuses[i] = RunNode(i, feeds[i], &reports[i],
                            has_topology_ ? &charges : nullptr);
    }
  });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }

  SimEngine::MergeRelayCharges(charges, &reports);
  return SimEngine::BuildReport(std::move(reports));
}

}  // namespace sbr::net
