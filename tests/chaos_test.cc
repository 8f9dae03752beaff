// Node-lifecycle chaos suite: seeded crash/restart fault schedules driven
// through ChaosSim, asserting the recovery invariants (no silent
// corruption, bounded loss, reconciling counters, deterministic replay).
// A failing seed prints as one line; re-run it alone with
//   SBR_CHAOS_SEED_COUNT=1 SBR_CHAOS_SEED_BASE=<seed> ./chaos_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/encoder.h"
#include "net/chaos_sim.h"

namespace sbr::net {
namespace {

core::EncoderOptions ChaosEncoderOptions() {
  core::EncoderOptions opts;
  opts.total_band = 100;
  opts.m_base = 64;
  return opts;
}

/// Baseline chaos configuration: every lifecycle fault armed plus a lossy
/// link. Individual tests zero out what they don't study.
ChaosOptions BaseOptions(const std::string& dir_tag, uint64_t seed) {
  ChaosOptions opts;
  opts.num_nodes = 3;
  opts.num_signals = 2;
  opts.chunk_len = 24;
  opts.rounds = 12;
  opts.encoder = ChaosEncoderOptions();
  opts.link.drop_probability = 0.1;
  opts.link.duplicate_probability = 0.05;
  opts.link.bit_flip_probability = 0.05;
  opts.link.seed = seed ^ 0xF00D;
  opts.faults.seed = seed;
  opts.log_dir = testing::TempDir() + "/chaos_" + dir_tag;
  opts.data_seed = seed ^ 0xDA7A;
  return opts;
}

size_t EnvCount(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<size_t>(std::strtoull(v, nullptr, 10));
}

// ------------------------------------------------------------- the sweep

// The acceptance gate: many seeded fault schedules, zero violations.
// SBR_CHAOS_SEED_COUNT / SBR_CHAOS_SEED_BASE override the sweep range so
// tools/chaos_sweep.sh can shard it and a failure can be replayed alone.
TEST(ChaosSweep, SeededFaultSchedulesHoldInvariants) {
  const size_t count = EnvCount("SBR_CHAOS_SEED_COUNT", 50);
  const size_t base = EnvCount("SBR_CHAOS_SEED_BASE", 1);
  size_t failures = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t seed = base + i;
    ChaosSim sim(BaseOptions("sweep", seed));
    auto report = sim.Run();
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.status().ToString();
    if (!report->clean()) {
      ++failures;
      for (const std::string& v : report->violations) {
        ADD_FAILURE() << "seed " << seed << ": " << v;
      }
    }
    EXPECT_EQ(report->events_applied + report->events_skipped,
              report->events_scheduled)
        << "seed " << seed;
  }
  EXPECT_EQ(failures, 0u) << failures << " of " << count
                          << " seeds violated chaos invariants";
}

// --------------------------------------------------------- deterministic

TEST(ChaosSweep, SameSeedReplaysBitIdentically) {
  auto run = [](int which) {
    ChaosSim sim(BaseOptions("replay_" + std::to_string(which), 424242));
    auto report = sim.Run();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? report->Digest() : 0;
  };
  const uint64_t first = run(0);
  const uint64_t second = run(1);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, 0u);
}

/// Options with the link perfect and every fault disarmed; tests arm one.
ChaosOptions QuietOptions(const std::string& dir_tag, uint64_t seed) {
  ChaosOptions opts = BaseOptions(dir_tag, seed);
  opts.link = FaultOptions();
  opts.faults.node_crash_probability = 0.0;
  opts.faults.clean_restart_probability = 0.0;
  opts.faults.station_restart_probability = 0.0;
  opts.faults.power_loss_probability = 0.0;
  opts.faults.stall_probability = 0.0;
  opts.faults.memory_pressure_probability = 0.0;
  return opts;
}

// --------------------------------------------- multi-hop routing chaos

/// Tree-shape chaos options: the base fault mix plus relay crashes armed,
/// on a 5-node tree deep enough for shared relays on every shape.
ChaosOptions TreeOptions(const std::string& dir_tag, uint64_t seed,
                         TopologyShape shape) {
  ChaosOptions opts = BaseOptions(dir_tag, seed);
  opts.num_nodes = 5;
  opts.rounds = 14;
  opts.topology = shape;
  opts.topology_seed = seed;
  opts.faults.relay_crash_probability = 0.15;
  return opts;
}

// The routing acceptance gate: seeded relay-crash schedules over every
// tree shape, zero violations (I1-I7 plus the partition invariant I8 and
// the energy reconciliation I9, all checked inside the sim).
// SBR_CHAOS_TOPOLOGY=chain|binary|random restricts the sweep to one shape
// so tools/chaos_sweep.sh --topology can shard and replay it.
TEST(ChaosSweep, RelayCrashTreeTopologiesHoldInvariants) {
  const size_t count = EnvCount("SBR_CHAOS_SEED_COUNT", 50);
  const size_t base = EnvCount("SBR_CHAOS_SEED_BASE", 1);
  const char* only = std::getenv("SBR_CHAOS_TOPOLOGY");
  size_t failures = 0;
  size_t relay_crashes = 0;
  size_t partitioned = 0;
  size_t forwarded = 0;
  for (TopologyShape shape : {TopologyShape::kChain, TopologyShape::kBinary,
                              TopologyShape::kRandom}) {
    if (only != nullptr && *only != '\0' &&
        std::string(only) != ToString(shape)) {
      continue;
    }
    for (size_t i = 0; i < count; ++i) {
      const uint64_t seed = base + i;
      ChaosSim sim(TreeOptions(std::string("tree_") + ToString(shape), seed,
                               shape));
      auto report = sim.Run();
      ASSERT_TRUE(report.ok()) << ToString(shape) << " seed " << seed << ": "
                               << report.status().ToString();
      if (!report->clean()) {
        ++failures;
        for (const std::string& v : report->violations) {
          ADD_FAILURE() << ToString(shape) << " seed " << seed << ": " << v;
        }
      }
      for (const auto& n : report->nodes) {
        relay_crashes += n.relay_crashes;
        partitioned += n.partitioned_rounds;
        forwarded += n.forwarded_copies;
      }
    }
  }
  EXPECT_EQ(failures, 0u) << failures << " tree runs violated invariants";
  // The sweep must actually exercise the machinery it gates.
  EXPECT_GT(relay_crashes, 0u);
  EXPECT_GT(partitioned, 0u);
  EXPECT_GT(forwarded, 0u);
}

// Relay-partition lifecycle pin, isolated on a clean link: a relay crash
// blacks out exactly its subtree — descendants lose precisely the rounds
// they spent behind the dead relay, nothing more, and resync via snapshot
// once the route heals. The base-adjacent node has no ancestors and is
// never partitioned.
TEST(ChaosLifecycle, RelayCrashPartitionsSubtreeUntilRestart) {
  ChaosOptions opts = QuietOptions("relay_crash", 77);
  opts.num_nodes = 4;
  opts.rounds = 14;
  opts.topology = TopologyShape::kChain;
  opts.faults.relay_crash_probability = 0.25;
  ChaosSim sim(std::move(opts));
  auto report = sim.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const std::string& v : report->violations) ADD_FAILURE() << v;
  size_t crashes = 0;
  size_t partitioned = 0;
  for (const auto& n : report->nodes) {
    crashes += n.relay_crashes;
    partitioned += n.partitioned_rounds;
    EXPECT_EQ(n.delivered + n.lost, n.fed) << "node " << n.id;
    // On a clean link the only way to lose a chunk is the partition: each
    // partitioned round costs exactly the round's chunk, recovered as an
    // explicit gap by the post-heal snapshot resync.
    EXPECT_EQ(n.lost, n.partitioned_rounds) << "node " << n.id;
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(partitioned, 0u);
  EXPECT_EQ(report->nodes[0].partitioned_rounds, 0u)
      << "the base-adjacent node has no ancestors to lose";
  // Depths follow the chain.
  for (size_t i = 0; i < report->nodes.size(); ++i) {
    EXPECT_EQ(report->nodes[i].depth, i + 1);
  }
}

// Regression for the backoff-accounting bug: ChaosSim counted backoff
// slots but never charged their energy (or any radio energy at all). Now
// every node's account must reconcile exactly against the closed form of
// its charged values plus backoff slots — the same paired-report pin
// NetworkSim obeys, with the default integer-valued EnergyParams making
// the equality exact, not approximate.
TEST(ChaosEnergy, AccountMatchesClosedFormExactly) {
  ChaosOptions opts = BaseOptions("energy_pin", 31);
  ChaosSim sim(std::move(opts));
  auto report = sim.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const std::string& v : report->violations) ADD_FAILURE() << v;
  EnergyModel model;
  size_t backoffs = 0;
  double backoff_nj = 0.0;
  for (const auto& n : report->nodes) {
    EnergyAccount expect;
    model.ChargeTransmission(n.charged_values, 1, &expect);
    model.ChargeBackoff(n.backoff_slots, &expect);
    EXPECT_EQ(n.energy.total_nj(), expect.total_nj()) << "node " << n.id;
    EXPECT_GT(n.energy.total_nj(), 0.0) << "node " << n.id;
    backoffs += n.backoff_slots;
    backoff_nj += n.energy.backoff_nj;
  }
  // The lossy link forced retries, and their backoff is now paid for.
  ASSERT_GT(backoffs, 0u);
  EXPECT_GT(backoff_nj, 0.0);
}

// The energy-aware retry budget under chaos: draining nodes shed
// retransmissions, keep sensing, and every invariant still holds.
TEST(ChaosEnergy, RetryBudgetShedsRetriesAndKeepsInvariants) {
  ChaosOptions opts = BaseOptions("budget", 13);
  opts.num_nodes = 4;
  opts.topology = TopologyShape::kChain;
  opts.link.drop_probability = 0.3;
  opts.node_energy_budget_nj = 4.0e7;
  opts.retry_energy_fraction = 0.5;
  ChaosSim sim(std::move(opts));
  auto report = sim.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const std::string& v : report->violations) ADD_FAILURE() << v;
  size_t shed = 0;
  for (const auto& n : report->nodes) {
    shed += n.retries_shed;
    EXPECT_EQ(n.delivered + n.lost, n.fed) << "node " << n.id;
  }
  EXPECT_GT(shed, 0u);
}

// ------------------------------------------------- targeted fault drills

uint64_t FaultFreeDigest(uint64_t seed) {
  ChaosSim sim(QuietOptions("quiet", seed));
  auto report = sim.Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.ok() && report->clean());
  return report.ok() ? report->nodes[0].history_digest : 0;
}

// A clean shutdown/restart cycle is byte-transparent: the restarted node
// resumes mid-stream and the final station history is identical to a run
// that never restarted anything.
TEST(ChaosLifecycle, CleanRestartIsByteTransparent) {
  ChaosOptions opts = QuietOptions("clean_restart", 99);
  opts.faults.clean_restart_probability = 0.5;
  ChaosSim sim(std::move(opts));
  auto report = sim.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const std::string& v : report->violations) ADD_FAILURE() << v;
  size_t restarts = 0;
  for (const auto& n : report->nodes) {
    restarts += n.clean_restarts;
    EXPECT_EQ(n.delivered, n.fed);
    EXPECT_EQ(n.lost, 0u);
    EXPECT_EQ(n.station_gaps, 0u);
  }
  EXPECT_GT(restarts, 0u);
  EXPECT_EQ(report->nodes[0].history_digest, FaultFreeDigest(99));
}

// Crashes restore from the per-chunk checkpoint; with an intact log and a
// clean link, recovery costs skipped rounds but loses nothing that was
// ever encoded.
TEST(ChaosLifecycle, CrashRecoveryLosesNothingOnACleanLink) {
  ChaosOptions opts = QuietOptions("crash", 321);
  opts.faults.node_crash_probability = 0.3;
  ChaosSim sim(std::move(opts));
  auto report = sim.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const std::string& v : report->violations) ADD_FAILURE() << v;
  size_t crashes = 0;
  for (const auto& n : report->nodes) {
    crashes += n.crashes;
    EXPECT_EQ(n.delivered, n.fed);
    EXPECT_EQ(n.lost, 0u);
  }
  EXPECT_GT(crashes, 0u);
}

// A restarted base station reloads its logs and protocol checkpoints and
// resumes the stream in place: no gaps, no duplicate slots, history
// byte-identical to a run with no restarts.
TEST(ChaosLifecycle, StationRestartPreservesSurvivingHistory) {
  ChaosOptions opts = QuietOptions("station_restart", 55);
  opts.faults.station_restart_probability = 0.5;
  ChaosSim sim(std::move(opts));
  auto report = sim.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const std::string& v : report->violations) ADD_FAILURE() << v;
  EXPECT_GT(report->station_restarts, 0u);
  for (const auto& n : report->nodes) {
    EXPECT_EQ(n.delivered, n.fed);
    EXPECT_EQ(n.station_gaps, 0u);
  }
  EXPECT_EQ(report->nodes[0].history_digest, FaultFreeDigest(55));
}

// Power loss tears the record a log was writing. Whatever the tear
// destroyed becomes explicit DataLoss; everything else survives bitwise
// (that is invariant I1, checked inside the sim).
TEST(ChaosLifecycle, PowerLossTearsSurfaceAsExplicitLoss) {
  size_t tears = 0;
  for (uint64_t seed = 800; seed < 806; ++seed) {
    ChaosOptions opts = QuietOptions("power", seed);
    opts.faults.power_loss_probability = 0.3;
    ChaosSim sim(std::move(opts));
    auto report = sim.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    for (const std::string& v : report->violations) {
      ADD_FAILURE() << "seed " << seed << ": " << v;
    }
    tears += report->log_tears;
  }
  EXPECT_GT(tears, 0u);
}

// A stalled node goes silent until the watchdog power-cycles it; the
// timeline only ever misses the rounds the node was actually down.
TEST(ChaosLifecycle, WatchdogRecoversStalledNodes) {
  ChaosOptions opts = QuietOptions("stall", 1234);
  opts.faults.stall_probability = 0.3;
  ChaosSim sim(std::move(opts));
  auto report = sim.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const std::string& v : report->violations) ADD_FAILURE() << v;
  size_t stalled = 0, watchdogs = 0;
  for (const auto& n : report->nodes) {
    stalled += n.stall_rounds;
    watchdogs += n.watchdog_restarts;
    EXPECT_EQ(n.delivered + n.lost, n.fed);
  }
  EXPECT_GT(stalled, 0u);
  EXPECT_GT(watchdogs, 0u);
}

// Memory pressure flips encoders into the low-memory base construction
// mid-stream; the protocol and the decode mirror must not notice.
TEST(ChaosLifecycle, MemoryPressureTogglesKeepInvariants) {
  ChaosOptions opts = QuietOptions("pressure", 4321);
  opts.faults.memory_pressure_probability = 0.5;
  ChaosSim sim(std::move(opts));
  auto report = sim.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const std::string& v : report->violations) ADD_FAILURE() << v;
  size_t toggles = 0;
  for (const auto& n : report->nodes) {
    toggles += n.pressure_toggles;
    EXPECT_EQ(n.delivered, n.fed);
  }
  EXPECT_GT(toggles, 0u);
}

// ------------------------------------------------------- FaultScheduler

TEST(FaultScheduler, DeterministicAndTailFree) {
  FaultScheduleOptions opts;
  opts.rounds = 40;
  opts.node_ids = {1, 2, 3, 4};
  opts.seed = 7;
  opts.fault_free_tail = 10;
  FaultScheduler a(opts);
  FaultScheduler b(opts);
  ASSERT_EQ(a.total_events(), b.total_events());
  for (size_t i = 0; i < a.total_events(); ++i) {
    EXPECT_EQ(a.events()[i].round, b.events()[i].round);
    EXPECT_EQ(a.events()[i].fault, b.events()[i].fault);
    EXPECT_EQ(a.events()[i].node_id, b.events()[i].node_id);
  }
  size_t counted = 0;
  for (size_t f = 0; f < kNumLifecycleFaults; ++f) {
    counted += a.count(static_cast<LifecycleFault>(f));
  }
  EXPECT_EQ(counted, a.total_events());
  size_t last_round = 0;
  for (const LifecycleEvent& e : a.events()) {
    EXPECT_GE(e.round, last_round) << "events not sorted";
    last_round = e.round;
    EXPECT_LT(e.round, opts.rounds - opts.fault_free_tail);
    if (e.fault == LifecycleFault::kNodeStall) {
      EXPECT_GT(e.duration, 0u);
      EXPECT_LE(e.round + e.duration, opts.rounds - opts.fault_free_tail);
    }
  }
  EXPECT_GT(a.total_events(), 0u);
}

// Arming relay crashes with no relays must not perturb star schedules:
// the relay draw loop is empty, so the stream of node draws is untouched
// and the schedule stays byte-identical to the pre-topology one.
TEST(FaultScheduler, RelayCrashDrawsDoNotPerturbStarSchedules) {
  FaultScheduleOptions opts;
  opts.rounds = 40;
  opts.node_ids = {1, 2, 3, 4};
  opts.seed = 7;
  opts.fault_free_tail = 10;
  FaultScheduler before(opts);
  opts.relay_crash_probability = 0.9;  // armed, but relay_ids stays empty
  FaultScheduler after(opts);
  ASSERT_EQ(before.total_events(), after.total_events());
  for (size_t i = 0; i < before.total_events(); ++i) {
    EXPECT_EQ(before.events()[i].round, after.events()[i].round);
    EXPECT_EQ(before.events()[i].fault, after.events()[i].fault);
    EXPECT_EQ(before.events()[i].node_id, after.events()[i].node_id);
    EXPECT_EQ(before.events()[i].duration, after.events()[i].duration);
  }
  EXPECT_EQ(after.count(LifecycleFault::kRelayCrash), 0u);
}

TEST(FaultScheduler, RelayCrashesScheduledInsideFaultWindow) {
  FaultScheduleOptions opts;
  opts.rounds = 40;
  opts.node_ids = {1, 2, 3, 4};
  opts.relay_ids = {2, 3};
  opts.relay_crash_probability = 0.5;
  opts.max_relay_down_rounds = 3;
  opts.seed = 7;
  opts.fault_free_tail = 10;
  FaultScheduler sched(opts);
  size_t crashes = 0;
  for (const LifecycleEvent& e : sched.events()) {
    if (e.fault != LifecycleFault::kRelayCrash) continue;
    ++crashes;
    EXPECT_TRUE(e.node_id == 2 || e.node_id == 3);
    EXPECT_GT(e.duration, 0u);
    EXPECT_LE(e.duration, opts.max_relay_down_rounds);
    EXPECT_LE(e.round + e.duration, opts.rounds - opts.fault_free_tail);
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_EQ(crashes, sched.count(LifecycleFault::kRelayCrash));
}

TEST(FaultScheduler, DifferentSeedsDiverge) {
  FaultScheduleOptions opts;
  opts.rounds = 40;
  opts.node_ids = {1, 2, 3};
  opts.seed = 1;
  FaultScheduler a(opts);
  opts.seed = 2;
  FaultScheduler b(opts);
  bool differs = a.total_events() != b.total_events();
  for (size_t i = 0; !differs && i < a.total_events(); ++i) {
    differs = a.events()[i].round != b.events()[i].round ||
              a.events()[i].fault != b.events()[i].fault ||
              a.events()[i].node_id != b.events()[i].node_id;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace sbr::net
