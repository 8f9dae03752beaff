// weather_field: the paper's own setting. Weather feeds in the Table-2
// geometry (N=6, M=4096, M_base=3456, TotalBand = 10% of N*M) are sampled
// and SBR-encoded live on a binary routing tree of sensors; every chunk
// is driven through net::SimEngine::ResolveChunk over the lossy multi-hop
// path to the base (drop, duplicate and bit flip on every hop) into
// a base station with durable logs and a query service. Encoding is
// nearly all of the time; the protocol sets the exact byte, energy and
// loss figures. The pass mirrors net::NetworkSim::RunNode call for call,
// so its totals must equal NetworkSim::Run on the same configuration and
// seed (Verify).
#include <deque>

#include "fleet.h"
#include "net/network.h"
#include "net/node.h"
#include "net/sim_engine.h"
#include "net/topology.h"

namespace perfbench {
namespace {

using sbr::Status;
namespace net = sbr::net;

// Encode cost is mostly a property of the sensor (its base signal is
// fixed by the first chunk), so a pass spreads its chunks over many
// sensors: the seed-to-seed spread of the pass's mean falls with the
// square root of the sensor count.
constexpr size_t kNodes = 24;
constexpr size_t kChunksPerNode = 2;
constexpr Geometry kGeometry{6, 4096, 3456, 6 * 4096 / 10};
constexpr size_t kRecoveryRepeats = 41;

// The links' fault schedule is a fixed property of the workload: the
// seed varies the sensor feeds, never which frame copies the radio loses,
// so the protocol counts (copies, retries, resyncs, gaps) are the same
// for every seed. The drop, duplicate and bit-flip rates and the fault
// seed are those of the protocol suite's combined-fault pin
// (MustRunFaultySim(0.10, 7) in tests/protocol_test.cc). The retry limits
// are not taken from anywhere: they are the smallest round values with
// which frames are abandoned, so that resyncs, degraded re-encodes and
// DataLoss gaps happen in every pass.
//
// The links do not reorder. A reordering hop can still hold a copy of a
// frame the sensor has abandoned; that copy reaches the station during
// the resync that follows, and the station ingests it and then the
// re-encode of the same chunk, so the sensor's timeline holds one chunk
// too many (README, "A defect the benchmark does not exercise"). At a
// 10% reorder rate the timeline check fails on every seed.
net::LinkOptions Link() {
  net::LinkOptions link;
  link.loss_probability = 0.1;
  link.duplicate_probability = 0.1;
  link.reorder_probability = 0.0;
  link.bit_flip_probability = 0.1;
  link.max_attempts = 3;
  link.max_resync_rounds = 1;
  link.seed = 7;
  return link;
}

net::Topology Tree() {
  net::TopologyOptions options;
  options.shape = net::TopologyShape::kBinary;
  options.num_nodes = kNodes;
  return net::Topology::Build(options);
}

class WeatherField : public Workload {
 public:
  explicit WeatherField(std::string dir) : dir_(std::move(dir)) {
    for (uint32_t i = 0; i < kNodes; ++i) sensors_.push_back(i);
  }

  // One set-up is only data generation (about 60 ms), so it is repeated
  // until the repeats add up to more than a second of work.
  size_t setup_repeats() const override { return 21; }

  Status Setup(uint64_t seed) override {
    feeds_.clear();
    for (uint32_t id : sensors_) {
      feeds_.push_back(SensorFeed(seed, id, kGeometry, kChunksPerNode));
    }
    return Status::Ok();
  }

  Status RunPass(const PassOptions& options, PassResult* out,
                 Checks* checks) override;
  Status Verify(Checks* checks) override;
  Status MeasureRecovery(HostSpeed* speed, RecoveryResult* out,
                         Checks* checks) override;

 private:
  std::string dir_;
  std::vector<uint32_t> sensors_;
  std::vector<sbr::datagen::Dataset> feeds_;
  /// Report of the last exact pass, compared against NetworkSim.
  net::SimulationReport report_;
  std::vector<uint64_t> live_answers_;
};

Status WeatherField::RunPass(const PassOptions& options, PassResult* out,
                             Checks* checks) {
  const net::LinkOptions link = Link();
  const net::Topology topology = Tree();
  auto rig = StationRig::Open(dir_, kGeometry.m_base);
  net::EngineOptions engine_options;
  engine_options.max_attempts = link.max_attempts;
  engine_options.max_resync_rounds = link.max_resync_rounds;
  engine_options.resync_enabled = link.resync_enabled;
  net::SimEngine engine(&rig->station(), net::EnergyModel(), engine_options);
  net::FaultOptions faults;
  faults.drop_probability = link.loss_probability;
  faults.duplicate_probability = link.duplicate_probability;
  faults.reorder_probability = link.reorder_probability;
  faults.bit_flip_probability = link.bit_flip_probability;
  faults.seed = link.seed;

  net::RelayCharges charges;
  charges.Reset(kNodes);
  std::vector<net::NodeReport> reports(kNodes);
  std::vector<std::vector<net::FaultChannel>> channels(kNodes);
  EncodeTotals encode;
  const size_t n = kGeometry.values_per_chunk();
  double excluded_s = 0.0;
  const auto pass_start = Clock::now();

  for (size_t i = 0; i < kNodes; ++i) {
    const uint32_t id = sensors_[i];
    const sbr::datagen::Dataset& feed = feeds_[i];
    net::NodeReport& nr = reports[i];
    nr.id = id;
    net::SensorNode node(id, kGeometry.num_signals, kGeometry.chunk_len,
                         kGeometry.Encoder());
    node.SetEnergyBudget(link.node_energy_budget_nj,
                         link.retry_energy_fraction);
    // The route as NetworkSim builds it: hop h is transmitted by the h-th
    // node on the uplink path, fault streams salted per (origin, hop).
    const std::vector<size_t>& path = topology.path(i);
    channels[i].reserve(path.size());
    net::EngineRoute route;
    for (size_t h = 0; h < path.size(); ++h) {
      channels[i].emplace_back(faults, (static_cast<uint64_t>(id) << 16) | h);
      net::EngineHop hop;
      hop.channel = &channels[i][h];
      hop.node = path[h];
      if (path[h] == i) {
        hop.account = &nr.energy;
        hop.charged_values = &nr.charged_values;
      } else {
        hop.account = &charges.energy[i][path[h]];
        hop.charged_values = &charges.values[i][path[h]];
        hop.forwarded_copies = &charges.copies[i][path[h]];
      }
      route.hops.push_back(hop);
    }
    net::DeliverySink sink;
    sink.node = &node;
    sink.energy = &nr.energy;
    sink.retransmissions = &nr.retransmissions;
    sink.backoff_slots = &nr.backoff_slots;
    sink.retries_shed = &nr.retries_shed;
    sink.frames_abandoned = &nr.frames_abandoned;
    sink.corrupt_frames = &nr.corrupt_frames_detected;
    sink.values_sent = &nr.values_sent;
    sink.malformed_relayed = &nr.malformed_relayed;

    // Freshness: a chunk waits from the moment its last sample arrives
    // until the engine call after which the service's published timeline
    // covers it. Gap slots are loss, not freshness samples.
    std::deque<Clock::time_point> waiting;
    size_t next_visible = 0;
    auto settle = [&] {
      const auto now = Clock::now();
      auto snap = rig->service().Snapshot(id);
      const size_t covered = snap == nullptr ? 0 : snap->history.num_chunks();
      while (next_visible < covered && !waiting.empty()) {
        if (!snap->history.IsGap(next_visible)) {
          out->visible.Add(NsBetween(waiting.front(), now));
          out->visible_values += static_cast<double>(n);
        }
        waiting.pop_front();
        ++next_visible;
      }
    };

    std::vector<double> sample(kGeometry.num_signals);
    for (size_t t = 0; t < feed.length(); ++t) {
      for (size_t s = 0; s < kGeometry.num_signals; ++s) {
        sample[s] = feed.values(s, t);
      }
      if (node.buffered() + 1 < kGeometry.chunk_len) {
        auto emitted = node.AddSamples(sample);
        if (!emitted.ok()) return emitted.status();
        continue;
      }
      waiting.push_back(Clock::now());
      auto emitted = [&] {
        sbr::obs::ScopedSpan span(span::kEncode);
        return node.AddSamples(sample);
      }();
      if (!emitted.ok()) return emitted.status();
      if (!emitted->has_value()) return Status::Internal("chunk not emitted");
      encode.Add(node.last_stats());
      nr.values_raw += n;
      nr.raw_energy_nj += engine.energy().RawTransmissionNj(n, path.size());
      {
        sbr::obs::ScopedSpan span(span::kDeliver);
        SBR_RETURN_IF_ERROR(engine.ResolveChunk(**emitted, &route, sink));
      }
      settle();
      ProbeNewestChunk(rig->service(), id, &out->query, checks);
      excluded_s += options.between();
    }
    {
      sbr::obs::ScopedSpan span(span::kDeliver);
      SBR_RETURN_IF_ERROR(engine.DrainResyncs(&route, sink));
      SBR_RETURN_IF_ERROR(engine.FlushRoute(&route, sink));
    }
    settle();
    nr.transmissions = node.transmissions();
    nr.resyncs_triggered = node.resyncs();
    nr.degraded_batches = node.degraded_batches();
    nr.chunks_lost = node.lost_chunks();
  }
  out->seconds += SecondsSince(pass_start) - excluded_s;
  const net::ProtocolStats& rx = rig->station().total_stats();
  out->ingested_frames += rx.frames_accepted - rx.snapshots_applied;
  if (!options.exact) return Status::Ok();

  // Exact scoring, outside the timed phase.
  uint64_t scored = 0, copies = 0, reached = 0;
  for (size_t i = 0; i < kNodes; ++i) {
    reports[i].duplicates_suppressed =
        rig->station().stats(sensors_[i]).duplicates_suppressed;
    SBR_RETURN_IF_ERROR(ScoreSse(rig->service(), sensors_[i], feeds_[i],
                                 &reports[i].sse, &scored));
    for (const net::FaultChannel& ch : channels[i]) {
      copies += ch.counters().transmitted;
    }
    reached += channels[i].back().counters().delivered;
  }
  net::SimEngine::MergeRelayCharges(charges, &reports);
  uint64_t on_air = 0;
  for (const net::NodeReport& nr : reports) on_air += nr.charged_values;
  report_ = net::SimEngine::BuildReport(reports);

  const double chunks = static_cast<double>(encode.chunks);
  ExactMetrics& x = out->exact;
  encode.Put(&x);
  size_t retransmissions = 0;
  for (const net::NodeReport& nr : report_.nodes) {
    retransmissions += nr.retransmissions;
  }
  x["net.copies_per_chunk"] = static_cast<double>(copies) / chunks;
  x["net.retransmissions_per_chunk"] =
      static_cast<double>(retransmissions) / chunks;
  x["net.resyncs_per_chunk"] =
      static_cast<double>(report_.total_resyncs) / chunks;
  x["net.degraded_share"] =
      static_cast<double>(report_.total_degraded_batches) / chunks;
  x["net.accept_ratio"] = static_cast<double>(rx.frames_accepted) /
                          static_cast<double>(reached);
  PutStationExact(*rig, sensors_, kChunksPerNode,
                  static_cast<double>(report_.total_values_raw), &x);
  live_answers_ = AnswerSample(rig->service(), sensors_);

  EndToEndCounts e2e;
  e2e.raw_values = static_cast<double>(report_.total_values_raw);
  e2e.on_air_values = static_cast<double>(on_air);
  e2e.energy_nj = report_.total_energy_nj;
  e2e.sse = report_.total_sse;
  e2e.scored_values = static_cast<double>(scored);
  e2e.chunks_sensed = chunks;
  e2e.gap_chunks =
      static_cast<double>(GapChunks(rig->service(), sensors_));
  e2e.heap_bytes = static_cast<double>(DestroyAndMeasureHeap(&rig));
  e2e.Put(&x);
  return Status::Ok();
}

Status WeatherField::Verify(Checks* checks) {
  std::vector<net::NodePlacement> placements;
  for (uint32_t id : sensors_) placements.push_back({id, 1});
  net::NetworkSim sim(Tree(), placements, kGeometry.Encoder(),
                      kGeometry.chunk_len, net::EnergyParams(), Link());
  auto reference = sim.Run(feeds_);
  if (!checks->ExpectOk(reference.status(), "NetworkSim reference run")) {
    return Status::Ok();
  }
  checks->Expect(reference->total_values_raw == report_.total_values_raw,
                 "values sensed equal NetworkSim");
  checks->Expect(reference->total_values_sent == report_.total_values_sent,
                 "values sent equal NetworkSim");
  checks->Expect(reference->total_energy_nj == report_.total_energy_nj,
                 "radio energy equals NetworkSim bit for bit");
  checks->Expect(reference->total_sse == report_.total_sse,
                 "SSE equals NetworkSim bit for bit");
  checks->Expect(reference->total_chunks_lost == report_.total_chunks_lost,
                 "chunks lost equal NetworkSim");
  checks->Expect(report_.total_chunks_lost > 0 && report_.total_resyncs > 0 &&
                     report_.total_degraded_batches > 0,
                 "the lossy links force resyncs, re-encodes and gaps");
  return Status::Ok();
}

Status WeatherField::MeasureRecovery(HostSpeed* speed, RecoveryResult* out,
                                     Checks* checks) {
  std::unique_ptr<sbr::storage::QueryService> replayed;
  SBR_RETURN_IF_ERROR(TimeRecovery(dir_, sensors_, kGeometry.m_base,
                                   kRecoveryRepeats, speed, out, &replayed));
  checks->Expect(AnswerSample(*replayed, sensors_) == live_answers_,
                 "replayed logs answer the query sample like the live "
                 "service");
  return Status::Ok();
}

}  // namespace

std::unique_ptr<Workload> MakeWeatherField(const std::string& work_dir) {
  return std::make_unique<WeatherField>(work_dir);
}

}  // namespace perfbench
