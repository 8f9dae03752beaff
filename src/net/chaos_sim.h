// ChaosSim: a lockstep node-lifecycle chaos harness. Where NetworkSim
// exercises the protocol against *link* faults, ChaosSim additionally
// subjects the processes themselves to a seeded FaultScheduler: sensor
// nodes crash and come back from their durable checkpoints, the base
// station restarts and rebuilds its receive state from its logs, power
// loss tears the record a log was writing, stalled nodes are power-cycled
// by a watchdog, and memory pressure flips encoders into the low-memory
// base construction.
//
// The delivery machinery itself — routing, retries/backoff, energy
// charging — is the shared net::SimEngine (sim_engine.h). ChaosSim is the
// engine's lifecycle configuration: it plugs in a LifecycleHooks policy
// whose HopDown() partitions subtrees behind downed relays and whose
// OnFrameAccepted() feeds the shadow oracles and checks invariant I8, and
// it runs the engine under strict acceptance (only a kAccept settles a
// frame, because the shadow history must record exactly what the station
// ingested).
//
// The harness keeps a per-node *shadow history*: an oracle DecodedHistory
// (decoded at ingest, independent of the station's on-demand reads) fed
// exactly the transmissions and snapshots the station accepted, but
// living outside the blast radius of every fault. After the run it checks
// the recovery invariants the lifecycle layer promises:
//
//   I1  no silent corruption — every non-gap chunk the station serves is
//       bitwise identical to the shadow's chunk at the same position, and
//       every chunk the shadow knows was written off is a gap at the
//       station too;
//   I2  the station's timeline converges to exactly the chunks fed;
//   I3  delivered + written-off chunks account for every chunk fed;
//   I4  data survives unless a fault explicitly destroyed it — without
//       log tears the station holds every delivered chunk;
//   I5  the whole run is a pure function of its seeds (checked by the
//       caller via ChaosReport::Digest()).
//
// With a tree topology (ChaosOptions::topology), frames travel the real
// multi-hop route: each hop crosses that edge's fault channel, every copy
// a relay forwards is charged to the relay's energy account, and a relay
// that is down (kRelayCrash, or any crash/stall) partitions its whole
// subtree — descendant copies reaching the dead relay vanish unpaid. Two
// more invariants cover the routing layer:
//
//   I8  partition: no frame is accepted by the station while any ancestor
//       of its origin is down;
//   I9  energy: each node's account equals exactly the radio cost of the
//       on-air values it was charged for plus its backoff idle-listening
//       (same closed form NetworkSim obeys, so the reports are comparable).
//
// Violations are reported as strings, not assertions, so a sweep can
// print every offending seed instead of dying on the first.
#ifndef SBR_NET_CHAOS_SIM_H_
#define SBR_NET_CHAOS_SIM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/encoder.h"
#include "net/base_station.h"
#include "net/energy.h"
#include "net/fault_channel.h"
#include "net/fault_scheduler.h"
#include "net/node.h"
#include "net/sim_engine.h"
#include "net/topology.h"
#include "storage/chunk_log.h"
#include "storage/decoded_history.h"
#include "util/status.h"

namespace sbr::net {

/// Chaos-run configuration. One round feeds every live node exactly one
/// chunk of synthetic data, so `rounds` is also the per-node chunk count.
struct ChaosOptions {
  size_t num_nodes = 3;
  size_t num_signals = 2;
  size_t chunk_len = 32;
  size_t rounds = 16;
  core::EncoderOptions encoder;
  /// Link fault rates (per frame copy). Reordering is forced off: the
  /// lifecycle layer owns timeline alignment and the reorder window is
  /// covered by the protocol tests.
  FaultOptions link;
  /// Lifecycle fault schedule shape; `rounds` and `node_ids` are filled in
  /// by the sim, the probabilities and `seed` are the caller's knobs.
  FaultScheduleOptions faults;
  /// Directory for the durable state: the station's per-sensor logs and
  /// each node's checkpoint log ("node_<id>.ckpt"). Required; the sim
  /// deletes its own files there at start so every run begins cold.
  std::string log_dir;
  uint64_t data_seed = 1;
  size_t max_attempts = 16;
  size_t max_resync_rounds = 3;
  size_t reorder_window = 8;
  /// Routing tree over the nodes (node index i <-> sensor id i+1). kStar
  /// reproduces the flat pre-topology harness byte for byte; the other
  /// shapes route frames through relays, with relay crashes partitioning
  /// whole subtrees. `topology_seed` is consumed by kRandom only.
  TopologyShape topology = TopologyShape::kStar;
  uint64_t topology_seed = 1;
  /// Radio energy accounting (same model as NetworkSim). Every frame copy
  /// pays per hop at whichever node transmits the hop; backoff slots pay
  /// idle-listening at the origin.
  EnergyParams energy;
  /// Energy-aware retry budget, as in LinkOptions: a node past
  /// `retry_energy_fraction * node_energy_budget_nj` of spend sheds
  /// retransmissions before it sheds sensing. 0 disables.
  double node_energy_budget_nj = 0.0;
  double retry_energy_fraction = 0.75;
};

/// Per-node chaos outcome.
struct ChaosNodeReport {
  uint32_t id = 0;
  size_t fed = 0;        ///< chunks generated and encoded
  size_t delivered = 0;  ///< chunks the station accepted (any form)
  size_t lost = 0;       ///< chunks written off as DataLoss
  size_t crashes = 0;
  size_t clean_restarts = 0;
  size_t watchdog_restarts = 0;
  size_t stall_rounds = 0;
  size_t pressure_toggles = 0;
  size_t backoff_slots = 0;
  size_t depth = 0;            ///< hops to the base station (>= 1)
  size_t relay_crashes = 0;    ///< kRelayCrash faults applied to this node
  /// Rounds this node spent cut off behind a downed ancestor (its own
  /// stalls are counted in stall_rounds, not here).
  size_t partitioned_rounds = 0;
  size_t retransmissions = 0;  ///< delivery attempts beyond the first
  size_t retries_shed = 0;     ///< retries suppressed by the energy budget
  size_t forwarded_copies = 0; ///< frame copies relayed for descendants
  /// Copies of this node's frames that a forwarding relay classified as
  /// failing the envelope check (core::Frame::Parse; relays
  /// classify but never drop — the station stays the enforcement point).
  /// Not part of Digest(): purely diagnostic.
  size_t malformed_relayed = 0;
  /// On-air values charged to this node across every copy and hop it
  /// transmitted; pins `energy` exactly (invariant I9).
  size_t charged_values = 0;
  EnergyAccount energy;
  size_t station_chunks = 0;  ///< final station timeline length
  size_t station_gaps = 0;
  /// FNV-1a over the station's final reconstructed history (values and gap
  /// positions); equal digests mean bitwise-equal histories.
  uint64_t history_digest = 0;
};

/// Whole-run chaos outcome.
struct ChaosReport {
  std::vector<ChaosNodeReport> nodes;
  size_t rounds = 0;
  size_t events_scheduled = 0;
  size_t events_applied = 0;
  size_t events_skipped = 0;  ///< e.g. faults aimed at a stalled node
  size_t station_restarts = 0;
  size_t log_tears = 0;  ///< power-loss events that damaged a log file
  size_t total_fed = 0;
  size_t total_delivered = 0;
  size_t total_lost = 0;
  /// Human-readable invariant violations; empty on a clean run.
  std::vector<std::string> violations;

  bool clean() const { return violations.empty(); }
  /// Order-sensitive digest of every per-node digest and counter, for
  /// same-seed determinism checks.
  uint64_t Digest() const;
};

/// One chaos run. Single-threaded lockstep by design, encoders included.
class ChaosSim {
 public:
  explicit ChaosSim(ChaosOptions options);

  /// Executes the full schedule plus a convergence tail and returns the
  /// report. Returns a Status error only for harness-level failures
  /// (unwritable log_dir, invalid encoder geometry); protocol-level
  /// damage always surfaces as report violations instead.
  StatusOr<ChaosReport> Run();

 private:
  struct NodeCtx {
    explicit NodeCtx(size_t m_base) : shadow(m_base) {}

    uint32_t id = 0;
    std::unique_ptr<SensorNode> node;
    storage::ChunkLog ckpt;
    std::string ckpt_path;
    FaultChannel channel;
    storage::DecodedHistory shadow;
    ChaosNodeReport report;
    /// Engine route up the tree: hop h crosses the edge channel owned by
    /// the h-th node on the path and charges that node's report. Built
    /// once in SetUp (channel/report addresses survive restarts — only
    /// `node` is replaced).
    EngineRoute route;
    size_t stall_until = 0;      ///< rounds < stall_until are silent
    bool watchdog_pending = false;
  };

  /// The lifecycle policy plugged into the engine: HopDown() is the
  /// relay-partition rule (a forwarding hop inside its outage window is
  /// dark), OnFrameAccepted() runs the I8 partition check and mirrors the
  /// accepted frame into the origin's shadow history.
  struct Lifecycle final : LifecycleHooks {
    ChaosSim* sim = nullptr;
    bool HopDown(size_t node) override;
    Status OnFrameAccepted(const core::Frame& frame,
                           const EngineRoute& route) override;
  };

  Status SetUp();
  Status ApplyEvent(const LifecycleEvent& e, size_t round);
  Status RunRound(size_t round);
  /// True if the node is dark this round (crashed, stalled, or inside a
  /// relay-crash outage): it neither samples nor forwards.
  bool IsDown(const NodeCtx& ctx) const { return round_ < ctx.stall_until; }
  /// Points a DeliverySink at the node's current SensorNode and its report
  /// row. Rebuilt per use: restarts replace ctx->node.
  DeliverySink SinkFor(NodeCtx* ctx);
  /// Feeds round `round`'s chunk into a node and hands it to the engine to
  /// drive to a terminal outcome (accepted, recovered degraded, or written
  /// off), then checkpoints at the chunk boundary.
  Status ResolveChunk(NodeCtx* ctx, size_t round);
  /// Applies an accepted frame to the node's shadow history.
  Status ShadowAccept(NodeCtx* ctx, const core::Frame& frame);
  Status CrashRestartNode(NodeCtx* ctx);
  Status CleanRestartNode(NodeCtx* ctx);
  Status RestartStation();
  /// Damages a log file per the event's tear mode; true if bytes changed.
  StatusOr<bool> TearLog(const std::string& path,
                         const storage::ChunkLog& view, TearMode mode,
                         storage::RecordType flip_target);
  Status Finalize();
  void CheckInvariants();

  ChaosOptions options_;
  std::unique_ptr<BaseStation> station_;
  std::vector<NodeCtx> nodes_;
  Topology topology_;
  Lifecycle hooks_;
  /// The shared delivery engine, configured strict-accept + obs-silent.
  /// Built in SetUp once the station exists.
  std::unique_ptr<SimEngine> engine_;
  /// Current lockstep round; options_.rounds once the schedule is spent,
  /// so Finalize sees every outage expired.
  size_t round_ = 0;
  ChaosReport report_;
  bool any_station_tear_ = false;
};

}  // namespace sbr::net

#endif  // SBR_NET_CHAOS_SIM_H_
