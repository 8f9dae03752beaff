// SimEngine: the one deterministic round-major simulation engine both
// simulators are configurations of. NetworkSim (link faults, nodes in
// placement order) and ChaosSim (node-lifecycle faults, lockstep) used to
// carry their own copies of the delivery machinery, and a divergence bug —
// backoff slots counted but never charged — lived exactly in that
// duplication. The engine now owns everything the protocol side of a run
// does:
//
//   * hop-by-hop routing of frame copies along an EngineRoute (built from
//     a net::Topology uplink path or a legacy private chain), with every
//     copy entering a hop paying that hop's transmitter one hop of radio
//     energy;
//   * the stop-and-wait retry loop: exponential backoff with the node's
//     seeded jitter, backoff idle-listening charges, and energy-aware
//     retry shedding (LinkOptions::node_energy_budget_nj);
//   * frame delivery into the BaseStation with exact per-origin
//     corrupt-frame attribution;
//   * the chunk-resolution state machine: pending-resync drain, primary
//     delivery, snapshot + self-contained re-encode recovery, and the
//     terminal DataLoss write-off;
//   * origin-major deterministic report merging (relay charges accumulate
//     in per-origin rows and fold into the per-relay reports in a fixed
//     order, which fixes the floating-point summation order of every
//     relay's energy).
//
// The simulators differ only through policy seams:
//
//   * LifecycleHooks — ChaosSim's seam: HopDown() partitions a subtree
//     behind a crashed relay, OnFrameAccepted() feeds the shadow-history
//     oracles and checks invariant I8. NetworkSim runs the null policy.
//   * EngineOptions::strict_accept — ChaosSim's shadow history must record
//     exactly what the station ingested, so only a kAccept settles a
//     frame; NetworkSim also settles on kDuplicate/kBuffered.
//   * DeliverySink — each simulator maps the engine's counters onto its
//     own report struct; fields a simulator does not track stay null.
//
// A fix or optimization to routing, energy accounting or the retry
// protocol now lands in exactly one place and both simulators inherit it.
#ifndef SBR_NET_SIM_ENGINE_H_
#define SBR_NET_SIM_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/transmission.h"
#include "net/base_station.h"
#include "net/energy.h"
#include "net/fault_channel.h"
#include "net/node.h"
#include "util/status.h"

namespace sbr::obs {
class MetricsRegistry;
}  // namespace sbr::obs

namespace sbr::net {

/// Per-node simulation outcome (NetworkSim's report row; merged by the
/// engine in placement order).
struct NodeReport {
  uint32_t id = 0;
  size_t transmissions = 0;
  size_t values_sent = 0;
  size_t values_raw = 0;  ///< what a full-resolution feed would have sent
  /// Extra end-to-end frame deliveries forced by faults (retries beyond
  /// the first attempt of each frame).
  size_t retransmissions = 0;
  /// Exponential-backoff slots spent waiting between retries.
  size_t backoff_slots = 0;
  // Protocol counters (same seed => identical values, run to run).
  size_t corrupt_frames_detected = 0;  ///< CRC failures at the station
  size_t duplicates_suppressed = 0;
  size_t resyncs_triggered = 0;      ///< snapshot rounds initiated
  size_t degraded_batches = 0;       ///< chunks re-encoded self-contained
  size_t chunks_lost = 0;            ///< chunks recorded as DataLoss gaps
  size_t frames_abandoned = 0;       ///< frames given up after max_attempts
  /// Retry attempts suppressed by the energy-aware budget
  /// (LinkOptions::node_energy_budget_nj).
  size_t retries_shed = 0;
  /// Frame copies this node relayed for its descendants (topology runs
  /// only; the matching radio energy is charged to this node's account).
  size_t forwarded_copies = 0;
  /// Copies of this node's frames that arrived at a forwarding hop already
  /// failing the envelope check (core::Frame::Parse — the same verdict
  /// BaseStation::ReceiveBytes reaches). Relays classify but do
  /// not drop: enforcement stays at the station, so delivery, energy and
  /// every other counter are untouched by the classification.
  size_t malformed_relayed = 0;
  /// On-air values charged to this node's account across every copy and
  /// hop it transmitted (own traffic, relayed traffic, residual flushes).
  /// Pins the energy account: energy == EnergyModel charge of
  /// (charged_values, 1 hop) + backoff(backoff_slots), exactly.
  size_t charged_values = 0;
  EnergyAccount energy;
  double raw_energy_nj = 0.0;
  /// Sum-squared error of the reconstructed history vs the true feed,
  /// over non-gap chunks only.
  double sse = 0.0;
};

/// Whole-run outcome.
struct SimulationReport {
  std::vector<NodeReport> nodes;
  size_t total_values_sent = 0;
  size_t total_values_raw = 0;
  double total_energy_nj = 0.0;
  double total_raw_energy_nj = 0.0;
  double total_sse = 0.0;
  size_t total_chunks_lost = 0;
  size_t total_corrupt_frames = 0;
  size_t total_duplicates_suppressed = 0;
  size_t total_resyncs = 0;
  size_t total_degraded_batches = 0;

  /// values_raw / values_sent.
  double CompressionFactor() const;
  /// raw energy / actual energy. NaN when total_energy_nj == 0: a run that
  /// spent nothing has no meaningful saving factor, and reporting 0.0
  /// ("no saving") there was a bug. Callers that need a number should
  /// std::isfinite-guard; PublishMetrics already does.
  double EnergySavingFactor() const;

  /// Mirrors the report into `registry` as gauges: run totals under
  /// `sim.*` and per-node breakdowns under `node.<id>.*` (tx_values,
  /// retries, energy_nj, chunks_lost, corrupt_frames, resyncs, sse — see
  /// obs/export.h for the emitted schema). The report structs stay the
  /// canonical deterministic result; the registry view exists so bench and
  /// tooling exports see the simulation next to the encode-stage metrics.
  /// No-op unless observability is enabled.
  void PublishMetrics(obs::MetricsRegistry* registry) const;
};

/// One hop of an uplink route: the fault process a copy crosses plus the
/// charge targets of whichever node transmits the hop. The charge pointers
/// are resolved once at route-assembly time — into the origin's own report
/// for hops the origin pays, or into per-origin relay rows / the relay's
/// report for forwarded hops — which is what keeps the engine loop free of
/// per-simulator branches.
struct EngineHop {
  FaultChannel* channel = nullptr;
  /// Radio account paying for every copy entering this hop.
  EnergyAccount* account = nullptr;
  /// On-air values counter matching `account` (pins the closed form).
  size_t* charged_values = nullptr;
  /// Relay forwarding counter; nullptr when the origin transmits the hop.
  size_t* forwarded_copies = nullptr;
  /// Transmitting node's index, for LifecycleHooks (partition checks).
  size_t node = 0;
};

/// A node's full uplink route; hops[0] is transmitted by the origin.
struct EngineRoute {
  std::vector<EngineHop> hops;
};

/// Where a delivery's per-origin counters land. Each simulator points the
/// fields at its own report struct; fields it does not track stay null.
/// `node` and `energy` are required: the node supplies seq/epoch, the
/// backoff jitter stream and the retry budget, and `energy` is the
/// account backoff charges land in and the spend RetryAllowed() reads.
struct DeliverySink {
  SensorNode* node = nullptr;
  EnergyAccount* energy = nullptr;
  size_t* retransmissions = nullptr;
  size_t* backoff_slots = nullptr;
  size_t* retries_shed = nullptr;
  size_t* frames_abandoned = nullptr;   ///< NetworkSim only
  size_t* corrupt_frames = nullptr;     ///< station corrupt-delta attribution
  size_t* values_sent = nullptr;        ///< semantic values (NetworkSim)
  size_t* chunks_delivered = nullptr;   ///< terminal accounting (ChaosSim)
  size_t* chunks_lost = nullptr;        ///< terminal accounting (ChaosSim)
  size_t* malformed_relayed = nullptr;  ///< shared envelope check at relays
};

/// The lifecycle-policy seam. The default implementation is the null
/// policy (nothing is ever down, accepts need no side effects) — exactly
/// NetworkSim's world. ChaosSim overrides both hooks to partition subtrees
/// behind downed relays and to feed its shadow-history oracles.
class LifecycleHooks {
 public:
  virtual ~LifecycleHooks() = default;

  /// True if the transmitter of a *forwarding* hop (`node`, hop index
  /// >= 1) is dark this instant: copies reaching it vanish unpaid and its
  /// dead radio is charged nothing. Never consulted for hop 0 — the
  /// origin is by definition running to transmit at all.
  virtual bool HopDown(size_t node) {
    (void)node;
    return false;
  }

  /// Called exactly once per frame the station settled as accepted (under
  /// the engine's acceptance policy), before the outcome is returned.
  virtual Status OnFrameAccepted(const core::Frame& frame,
                                 const EngineRoute& route) {
    (void)frame;
    (void)route;
    return Status::Ok();
  }
};

/// Engine tuning; both simulators build one from their own option structs.
struct EngineOptions {
  /// End-to-end delivery attempts per frame before giving up on it.
  size_t max_attempts = 16;
  /// Resync rounds (snapshot + degraded re-encode) per failed chunk.
  size_t max_resync_rounds = 3;
  /// Off: lost frames surface as DataLoss with no snapshot handshake.
  bool resync_enabled = true;
  /// On, only a kAccept ack settles a frame (ChaosSim: the shadow history
  /// must record exactly what the station ingested). Off, an earlier
  /// copy's kDuplicate or a reorder-window kBuffered also counts as
  /// delivered (NetworkSim).
  bool strict_accept = false;
  /// Emit the net.tx.* observability counters (NetworkSim parity; the
  /// chaos harness deliberately stays silent).
  bool emit_obs = true;
};

/// Per-origin relay-charge accumulation: row `origin` collects what that
/// origin's frames cost each relay, and SimEngine::MergeRelayCharges then
/// folds the rows into the per-relay reports in origin-major order. The
/// fold fixes the floating-point summation order of each relay's energy;
/// charging relays directly, as each frame crosses them, would add the
/// same charges in another order and change the energy bits.
struct RelayCharges {
  std::vector<std::vector<EnergyAccount>> energy;
  std::vector<std::vector<size_t>> copies;
  std::vector<std::vector<size_t>> values;

  /// n x n zeroed rows.
  void Reset(size_t n);
  bool empty() const { return energy.empty(); }
};

/// The shared deterministic simulation engine (see file comment).
class SimEngine {
 public:
  /// Outcome of delivering one frame end-to-end with bounded retries.
  enum class DeliveryOutcome {
    kAccepted,   ///< station settled it under the acceptance policy
    kDesync,     ///< station demands a resync before accepting data
    kAbandoned,  ///< undeliverable within max_attempts
  };

  /// `station` must outlive the engine (or be swapped via set_station
  /// before the next delivery — ChaosSim does on station restarts).
  /// `hooks` may be nullptr for the null lifecycle policy.
  SimEngine(BaseStation* station, EnergyModel energy, EngineOptions options,
            LifecycleHooks* hooks = nullptr);

  /// Swaps the station endpoint (lifecycle restarts rebuild it).
  void set_station(BaseStation* station) { station_ = station; }

  const EnergyModel& energy() const { return energy_; }
  const EngineOptions& options() const { return options_; }

  /// Pushes one frame along the route with retries and exponential backoff
  /// (with the node's seeded jitter), charging energy per copy per hop to
  /// whichever node transmits that hop. A node past its energy-aware retry
  /// budget sheds retries: the frame is abandoned after one attempt.
  StatusOr<DeliveryOutcome> DeliverFrame(const core::Frame& frame,
                                         size_t value_count,
                                         EngineRoute* route,
                                         const DeliverySink& sink);

  /// One resync round: snapshot frame, then (with `recover_batch`) the
  /// affected batch re-encoded self-contained. True once the batch (or,
  /// without recovery, the handshake) is safe.
  StatusOr<bool> TryResync(bool recover_batch, EngineRoute* route,
                           const DeliverySink& sink);

  /// Drives one encoded chunk to a terminal outcome: pending-resync drain,
  /// primary delivery, recovery rounds, or the DataLoss write-off.
  Status ResolveChunk(const core::Transmission& tx, EngineRoute* route,
                      const DeliverySink& sink);

  /// Trailing resync drain: retries the snapshot handshake while the node
  /// still owes the station a loss report (bounded by max_resync_rounds).
  Status DrainResyncs(EngineRoute* route, const DeliverySink& sink);

  /// Drains frames still held inside reordering hops; residual copies pay
  /// for the hops they have left to travel, charged to whichever node
  /// transmits each remaining hop.
  Status FlushRoute(EngineRoute* route, const DeliverySink& sink);

  /// Station ingest. Attributes the corrupt-frame delta of the call to
  /// `*corrupt_out` (when non-null): a corrupt frame drained from the
  /// reorder window is counted on the aggregate but never acked, so the
  /// delta — not the ack type — is the reliable signal.
  StatusOr<FrameAck> StationReceive(std::span<const uint8_t> bytes,
                                    size_t* corrupt_out);

  /// Folds per-origin relay-charge rows into the per-relay reports in
  /// origin-major order (see RelayCharges).
  static void MergeRelayCharges(const RelayCharges& charges,
                                std::vector<NodeReport>* reports);

  /// Aggregates per-node reports (in placement order) into the run report.
  static SimulationReport BuildReport(std::vector<NodeReport> reports);

 private:
  BaseStation* station_;
  EnergyModel energy_;
  EngineOptions options_;
  LifecycleHooks* hooks_;  ///< never null (null policy substituted)
};

}  // namespace sbr::net

#endif  // SBR_NET_SIM_ENGINE_H_
