// storage::QueryService suite: snapshot isolation under concurrent
// readers (the TSan target) — through held snapshots and through the
// lock-free per-query calls while the directory grows — epoch
// reproducibility, snapshots that outlive the service, aggregates
// answered straight from the published epoch, batch semantics and the
// per-query DataLoss accounting.
//
// The concurrency test's invariant is the service's core promise: every
// answer a reader ever observes is exactly reproducible from some
// published epoch snapshot — never a torn mix of two ingest states. The
// reference answers per epoch are precomputed single-threaded from the
// identical event sequence, so the assertion is bitwise equality.
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/encoder.h"
#include "datagen/weather.h"
#include "storage/query_service.h"

namespace sbr {
namespace {

constexpr size_t kChunkLen = 128;
constexpr size_t kMBase = 256;

core::BaseSnapshot SnapshotOf(const core::SbrEncoder& encoder) {
  core::BaseSnapshot snap;
  snap.w = static_cast<uint32_t>(encoder.w());
  const core::BaseSignal& base = encoder.base_signal();
  if (base.w() == 0) return snap;
  for (size_t slot = 0; slot < base.used_slots(); ++slot) {
    core::BaseUpdate bu;
    bu.slot = static_cast<uint32_t>(slot);
    bu.values.assign(base.values().begin() + slot * base.w(),
                     base.values().begin() + (slot + 1) * base.w());
    snap.slots.push_back(std::move(bu));
  }
  return snap;
}

/// Encodes `num_chunks` weather chunks into transmissions. With `snaps`,
/// also records the encoder's base state before each chunk as a resync
/// payload (snaps[c] re-anchors a receiver that lost chunks before c).
std::vector<core::Transmission> EncodeChunks(
    size_t num_chunks, uint64_t seed,
    std::vector<core::BaseSnapshot>* snaps = nullptr) {
  datagen::WeatherOptions wopts;
  wopts.length = num_chunks * kChunkLen;
  wopts.seed = seed;
  const datagen::Dataset feed = datagen::GenerateWeather(wopts);
  const size_t num_signals = feed.num_signals();
  const size_t n = num_signals * kChunkLen;

  core::EncoderOptions eopts;
  eopts.total_band = n / 8;
  eopts.m_base = kMBase;
  core::SbrEncoder encoder(eopts);

  std::vector<core::Transmission> out;
  out.reserve(num_chunks);
  std::vector<double> chunk(n);
  for (size_t c = 0; c < num_chunks; ++c) {
    if (snaps != nullptr) snaps->push_back(SnapshotOf(encoder));
    for (size_t s = 0; s < num_signals; ++s) {
      for (size_t k = 0; k < kChunkLen; ++k) {
        chunk[s * kChunkLen + k] = feed.values(s, c * kChunkLen + k);
      }
    }
    auto t = encoder.EncodeChunk(chunk, num_signals);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    if (!t.ok()) return out;
    out.push_back(std::move(*t));
  }
  return out;
}

storage::QueryServiceOptions ServiceOptions() {
  storage::QueryServiceOptions opts;
  opts.m_base = kMBase;
  return opts;
}

/// One writer event: ingest the next transmission, or declare a gap.
struct Event {
  bool gap = false;
  size_t tx_index = 0;
};

/// The canonical probe: last-chunk aggregate + last point of the prefix
/// published at one epoch. `ok == false` answers carry the status code.
struct RefAnswer {
  size_t num_chunks = 0;
  bool agg_ok = false;
  StatusCode agg_code = StatusCode::kOk;
  double agg_sum = 0.0;
  size_t agg_count = 0;
  bool point_ok = false;
  double point = 0.0;
};

RefAnswer ProbeSnapshot(const storage::SensorSnapshot& snap) {
  RefAnswer r;
  r.num_chunks = snap.compressed.num_chunks();
  const size_t len = snap.compressed.history_len();
  auto agg = snap.compressed.Aggregate(0, len - kChunkLen, len);
  r.agg_ok = agg.ok();
  r.agg_code = agg.status().code();
  if (agg.ok()) {
    r.agg_sum = agg->sum;
    r.agg_count = agg->count;
  }
  auto point = snap.compressed.Value(0, len - 1);
  r.point_ok = point.ok();
  if (point.ok()) r.point = *point;
  return r;
}

// N reader threads race one ingest thread appending chunks and gaps.
// Readers pin every observed answer to the published epoch they loaded,
// and the answer must be bitwise identical to the single-threaded
// reference for that epoch.
TEST(QueryServiceConcurrency, ReadersSeeOnlyPublishedEpochs) {
  constexpr size_t kChunks = 32;
  constexpr size_t kReaders = 4;
  const auto txs = EncodeChunks(kChunks, 2024);
  ASSERT_EQ(txs.size(), kChunks);

  // Event schedule: a gap every 9th event, transmissions otherwise.
  std::vector<Event> events;
  size_t next_tx = 0;
  while (next_tx < txs.size()) {
    if (!events.empty() && events.size() % 9 == 0) {
      events.push_back({true, 0});
    } else {
      events.push_back({false, next_tx++});
    }
  }

  // Single-threaded reference: replay the same events into a private
  // service and capture the probe answers after every publish. Epoch e is
  // published after exactly e mutations, so refs[e] is the truth for it.
  std::vector<RefAnswer> refs(events.size() + 1);
  {
    storage::QueryService ref_service(ServiceOptions());
    for (size_t e = 0; e < events.size(); ++e) {
      if (events[e].gap) {
        ASSERT_TRUE(ref_service.MarkGap(0).ok());
      } else {
        ASSERT_TRUE(ref_service.Ingest(0, txs[events[e].tx_index]).ok());
      }
      auto snap = ref_service.Snapshot(0);
      ASSERT_NE(snap, nullptr);
      ASSERT_EQ(snap->epoch, e + 1);
      refs[e + 1] = ProbeSnapshot(*snap);
    }
  }

  storage::QueryService service(ServiceOptions());
  std::atomic<bool> done{false};
  std::atomic<uint64_t> observations{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto snap = service.Snapshot(0);
        if (snap == nullptr) continue;
        const uint64_t e = snap->epoch;
        if (e == 0 || e >= refs.size()) {
          failures.fetch_add(1);
          break;
        }
        const RefAnswer expect = refs[e];
        const RefAnswer got = ProbeSnapshot(*snap);
        if (got.num_chunks != expect.num_chunks ||
            got.agg_ok != expect.agg_ok || got.agg_code != expect.agg_code ||
            got.agg_sum != expect.agg_sum ||
            got.agg_count != expect.agg_count ||
            got.point_ok != expect.point_ok || got.point != expect.point) {
          failures.fetch_add(1);
          break;
        }
        observations.fetch_add(1, std::memory_order_relaxed);
        // Exercise the service-level (cached) paths concurrently too; the
        // answers come from whatever epoch is current, so only typed
        // status sanity is asserted here.
        auto agg = service.Aggregate(0, 0, 0, kChunkLen);
        if (!agg.ok()) {
          failures.fetch_add(1);
          break;
        }
        (void)service.AggregateBatch(
            0, {{0, 0, kChunkLen}, {0, kChunkLen / 2, 2 * kChunkLen}});
      }
    });
  }

  for (const Event& ev : events) {
    if (ev.gap) {
      ASSERT_TRUE(service.MarkGap(0).ok());
    } else {
      ASSERT_TRUE(service.Ingest(0, txs[ev.tx_index]).ok());
    }
  }
  // Ingest can outrun reader-thread startup on a loaded machine; the final
  // snapshot stays valid, so wait until every reader has validated at
  // least one epoch (or a reader already failed) before releasing them.
  while (failures.load() == 0 && observations.load() < kReaders) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(observations.load(), 0u);
  EXPECT_EQ(service.epoch(0), events.size());
  EXPECT_EQ(service.counters().publishes, events.size());

  // The final epoch must agree with the reference end state too.
  auto snap = service.Snapshot(0);
  ASSERT_NE(snap, nullptr);
  const RefAnswer last = ProbeSnapshot(*snap);
  EXPECT_EQ(last.agg_sum, refs.back().agg_sum);
  EXPECT_EQ(last.num_chunks, refs.back().num_chunks);
}

/// Every answer a snapshot gives over a fixed probe set, rendered bit
/// for bit: aggregates (compressed and exact), points and reconstructs,
/// with each failure's full status text (DataLoss names the lost chunk).
std::vector<std::string> Fingerprint(const storage::SensorSnapshot& snap) {
  std::vector<std::string> out;
  auto bits = [](double v) {
    return std::to_string(std::bit_cast<uint64_t>(v));
  };
  auto agg = [&](const StatusOr<storage::AggregateResult>& r) {
    if (!r.ok()) return r.status().ToString();
    return bits(r->sum) + " " + bits(r->avg) + " " + bits(r->min) + " " +
           bits(r->max) + " " + bits(r->variance) + " " +
           std::to_string(r->count);
  };
  const size_t len = snap.compressed.history_len();
  const size_t chunks = snap.compressed.num_chunks();
  out.push_back(std::to_string(snap.epoch) + " " + std::to_string(chunks) +
                " " + std::to_string(snap.history.num_chunks()));
  std::vector<std::pair<size_t, size_t>> ranges = {
      {0, len}, {len / 3, len}, {len - kChunkLen, len}, {len - 1, len}};
  // Chunk-aligned and unaligned spans across the whole history, so gap
  // chunks and block boundaries of every log fall inside some of them.
  for (size_t c = 0; c < chunks; c += 7) {
    ranges.push_back({c * kChunkLen, std::min(len, (c + 5) * kChunkLen)});
    ranges.push_back({c * kChunkLen + 17, std::min(len, c * kChunkLen + 300)});
  }
  for (auto [t0, t1] : ranges) {
    for (size_t signal : {size_t{0}, size_t{2}}) {
      out.push_back(agg(snap.compressed.Aggregate(signal, t0, t1)));
      out.push_back(agg(snap.history.AggregateExact(signal, t0, t1)));
      auto point = snap.compressed.Value(signal, t0);
      out.push_back(point.ok() ? bits(*point) : point.status().ToString());
      auto rec = snap.history.QueryRange(signal, t0, std::min(t1, t0 + 40));
      std::string r = rec.ok() ? "" : rec.status().ToString();
      if (rec.ok()) {
        for (double v : *rec) r += bits(v) + ",";
      }
      out.push_back(std::move(r));
    }
  }
  return out;
}

TEST(QueryService, SnapshotsAreImmutableUnderFurtherIngest) {
  // Hold epochs whose last chunk ends mid-block, at a block's end or
  // right before a directory growth of the chunk log (blocks end at 63,
  // 127 and 191 chunks; the directory grows at chunk 191) or of the
  // moment-index node logs (2n - popcount(n) nodes: 127 at n = 64, 191 at
  // n = 97). Then advance 300 chunks past the last one, with gaps and a
  // resync snapshot among them. Every held epoch must keep answering bit
  // for bit as it did when it was published.
  const std::vector<size_t> holds = {40, 63, 64, 97, 127, 150, 191};
  constexpr size_t kChunks = 191 + 300;
  std::vector<core::BaseSnapshot> snaps;
  const auto txs = EncodeChunks(kChunks, 7, &snaps);
  ASSERT_EQ(txs.size(), kChunks);
  storage::QueryService service(ServiceOptions());

  std::vector<std::shared_ptr<const storage::SensorSnapshot>> held;
  std::vector<std::vector<std::string>> expected;
  size_t c = 0;
  while (c < kChunks) {
    if (c == 100 || c == 260) {
      // Lose chunks c and c + 1 for good; the resync snapshot re-anchors
      // both views' base mirrors before chunk c + 2.
      ASSERT_TRUE(service.MarkGap(0, 2).ok());
      ASSERT_TRUE(service.ApplySnapshot(0, snaps[c + 2]).ok());
      c += 2;
    } else if (c % 53 == 52) {
      // A gap chunk between two consecutive transmissions: no base
      // update is lost, so no resync is needed.
      ASSERT_TRUE(service.MarkGap(0).ok());
    }
    ASSERT_TRUE(service.Ingest(0, txs[c]).ok());
    ++c;
    auto snap = service.Snapshot(0);
    const size_t n = snap->compressed.num_chunks();
    if (held.size() < holds.size() && n == holds[held.size()]) {
      held.push_back(snap);
      expected.push_back(Fingerprint(*snap));
    }
  }
  ASSERT_EQ(held.size(), holds.size());
  // The last held epoch has 191 chunks in both views, and its gaps show
  // up as DataLoss answers.
  EXPECT_NE(expected.back()[0].find(" 191 191"), std::string::npos);
  size_t dataloss = 0;
  for (const std::string& line : expected.back()) {
    dataloss += line.find("DATA_LOSS: range touches lost chunk") == 0;
  }
  EXPECT_GT(dataloss, 0u);

  EXPECT_GE(service.Snapshot(0)->compressed.num_chunks(), 191u + 300u);
  for (size_t h = 0; h < held.size(); ++h) {
    EXPECT_EQ(held[h]->compressed.num_chunks(), holds[h]);
    EXPECT_EQ(Fingerprint(*held[h]), expected[h]) << "held at " << holds[h];
  }
}

// Readers pin one epoch that ends mid-block of the chunk log and of the
// node logs while the writer fills the rest of those blocks and grows
// every log's directory. Each reader keeps recomputing the pinned
// epoch's answers; they must never change. Under TSan this also shows
// that readers and the writer never touch the same memory.
TEST(QueryServiceConcurrency, PinnedMidBlockEpochSurvivesDirectoryGrowth) {
  constexpr size_t kPinAt = 150;   // chunk log block [127, 191)
  constexpr size_t kChunks = 360;  // node logs pass 703 nodes at n = 354
  constexpr size_t kReaders = 3;
  const auto txs = EncodeChunks(kChunks, 31);
  ASSERT_EQ(txs.size(), kChunks);
  storage::QueryService service(ServiceOptions());
  for (size_t c = 0; c < kPinAt; ++c) {
    if (c == 70) {
      ASSERT_TRUE(service.MarkGap(0).ok());
    }
    ASSERT_TRUE(service.Ingest(0, txs[c]).ok());
  }
  const auto pinned = service.Snapshot(0);
  const std::vector<std::string> expected = Fingerprint(*pinned);

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> checks{0};
  std::atomic<size_t> started{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      started.fetch_add(1);
      while (!done.load(std::memory_order_acquire)) {
        if (Fingerprint(*pinned) != expected) {
          failures.fetch_add(1);
          break;
        }
        checks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Start writing only once every reader is looping, so the appends
  // overlap the reads.
  while (started.load() < kReaders) std::this_thread::yield();
  size_t ingested = kPinAt;
  while (ingested < kChunks && service.Ingest(0, txs[ingested]).ok()) {
    ++ingested;
  }
  while (failures.load() == 0 && checks.load() < kReaders) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(ingested, kChunks);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(Fingerprint(*pinned), expected);
  EXPECT_EQ(service.Snapshot(0)->compressed.num_chunks(), kChunks + 1);
}

// Rejected first transmission: the sensor's builder exists (it may keep
// base updates applied before the failure), but it never published, so
// it has no epoch, no snapshot and does not count as a sensor.
TEST(QueryService, RejectedFirstTransmissionPublishesNothing) {
  const auto txs = EncodeChunks(1, 19);
  ASSERT_EQ(txs.size(), 1u);
  storage::QueryService service(ServiceOptions());
  core::Transmission zero = txs[0];
  zero.num_signals = 0;
  EXPECT_EQ(service.Ingest(3, zero).code(), StatusCode::kDataLoss);
  EXPECT_EQ(service.num_sensors(), 0u);
  EXPECT_EQ(service.epoch(3), 0u);
  EXPECT_EQ(service.Snapshot(3), nullptr);
  EXPECT_EQ(service.Timeline(3), nullptr);
  EXPECT_EQ(service.Aggregate(3, 0, 0, 1).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.counters().publishes, 0u);

  ASSERT_TRUE(service.Ingest(3, txs[0]).ok());
  EXPECT_EQ(service.num_sensors(), 1u);
  EXPECT_EQ(service.epoch(3), 1u);
  ASSERT_NE(service.Snapshot(3), nullptr);
  EXPECT_EQ(service.Snapshot(3)->history.num_chunks(), 1u);
}

/// One answer of the service or of a snapshot, rendered bit for bit with
/// its full status text.
template <typename T>
std::string AnswerText(const StatusOr<T>& r) {
  if (!r.ok()) return r.status().ToString();
  auto bits = [](double v) {
    return std::to_string(std::bit_cast<uint64_t>(v)) + " ";
  };
  std::string out;
  if constexpr (std::is_same_v<T, storage::AggregateResult>) {
    out = bits(r->sum) + bits(r->avg) + bits(r->min) + bits(r->max) +
          bits(r->variance) + std::to_string(r->count);
  } else if constexpr (std::is_same_v<T, double>) {
    out = bits(*r);
  } else {
    for (double v : *r) out += bits(v);
  }
  return out;
}

// Readers use only the lock-free per-query calls (Aggregate, Point,
// Reconstruct, epoch — never Snapshot) while one writer ingests, marks
// gaps and creates new sensors, which grows the sensor directory past
// three table replacements. A reader brackets each query between two
// epoch reads e1 <= e2 and asks about the range just past the end of the
// history at e1, so answers differ between epochs; the answer must equal
// the single-threaded reference's answer at some epoch in [e1, e2], and
// every sensor's epochs must be monotone as each reader sees them.
TEST(QueryServiceConcurrency, LockFreeReadersMatchTheReferenceAtTheirEpoch) {
  constexpr size_t kSensors = 40;
  constexpr size_t kRounds = 10;
  constexpr size_t kReaders = 3;
  const auto txs = EncodeChunks(kRounds, 41);
  ASSERT_EQ(txs.size(), kRounds);
  auto id_of = [](size_t k) { return static_cast<uint32_t>(1000 + 37 * k); };

  // The writer's schedule: sensor k joins at round k / 4; in each later
  // round it ingests its next transmission, or marks a gap.
  struct Step {
    size_t sensor;
    bool gap;
    size_t tx;
  };
  std::vector<Step> steps;
  std::vector<size_t> next_tx(kSensors, 0);
  for (size_t round = 0; round < kRounds + kSensors / 4; ++round) {
    for (size_t k = 0; k < kSensors && k / 4 <= round; ++k) {
      if (next_tx[k] == kRounds) continue;
      const bool gap = next_tx[k] > 0 && (round + k) % 5 == 3;
      steps.push_back({k, gap, next_tx[k]});
      if (!gap) ++next_tx[k];
    }
  }

  // refs[k][e]: sensor k's snapshot at epoch e, from a private service
  // fed the same steps single-threaded.
  std::vector<std::vector<std::shared_ptr<const storage::SensorSnapshot>>>
      refs(kSensors, {nullptr});
  {
    storage::QueryService ref(ServiceOptions());
    for (const Step& st : steps) {
      const uint32_t id = id_of(st.sensor);
      ASSERT_TRUE(st.gap ? ref.MarkGap(id).ok()
                         : ref.Ingest(id, txs[st.tx]).ok());
      refs[st.sensor].push_back(ref.Snapshot(id));
      ASSERT_EQ(refs[st.sensor].back()->epoch,
                refs[st.sensor].size() - 1);
    }
  }

  // The three probes a reader asks of sensor k after reading epoch e1.
  auto probe_len = [&](size_t k, uint64_t e1) {
    return e1 == 0 ? size_t{0} : refs[k][e1]->history.history_len();
  };
  auto expected = [&](size_t k, uint64_t e, int kind, size_t signal,
                      size_t len) -> std::string {
    if (e == 0) return Status::NotFound("sensor " +
                                        std::to_string(id_of(k)))
                           .ToString();
    const storage::CompressedHistory& h = refs[k][e]->history;
    const size_t lo = len > kChunkLen + 5 ? len - kChunkLen - 5 : 0;
    if (kind == 0) return AnswerText(h.Aggregate(signal, lo, len + kChunkLen));
    if (kind == 1) return AnswerText(h.Value(signal, len));
    return AnswerText(h.QueryRange(signal, lo, len + 3));
  };

  storage::QueryService service(ServiceOptions());
  std::atomic<bool> done{false};
  std::atomic<size_t> started{0};
  std::atomic<uint64_t> observations{0};
  std::atomic<uint64_t> straddles{0};
  std::atomic<int> failures{0};
  std::vector<std::string> first_failure(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::vector<uint64_t> last(kSensors, 0);
      started.fetch_add(1);
      for (size_t i = r;; ++i) {
        const bool last_pass = done.load(std::memory_order_acquire);
        const size_t k = i % kSensors;
        const uint32_t id = id_of(k);
        const int kind = static_cast<int>(i / kSensors % 3);
        const size_t signal = i % 3;
        const uint64_t e1 = service.epoch(id);
        const size_t len = probe_len(k, e1);
        const size_t lo = len > kChunkLen + 5 ? len - kChunkLen - 5 : 0;
        std::string got;
        if (kind == 0) {
          got = AnswerText(service.Aggregate(id, signal, lo, len + kChunkLen));
        } else if (kind == 1) {
          got = AnswerText(service.Point(id, signal, len));
        } else {
          got = AnswerText(service.Reconstruct(id, signal, lo, len + 3));
        }
        const uint64_t e2 = service.epoch(id);
        bool ok = e1 >= last[k] && e2 >= e1 && e2 < refs[k].size();
        bool matched = false;
        for (uint64_t e = e1; ok && !matched && e <= e2; ++e) {
          matched = got == expected(k, e, kind, signal, len);
        }
        if (!ok || !matched) {
          first_failure[r] = "sensor " + std::to_string(k) + " kind " +
                             std::to_string(kind) + " epochs " +
                             std::to_string(last[k]) + " " +
                             std::to_string(e1) + " " + std::to_string(e2) +
                             ": " + got;
          failures.fetch_add(1);
          return;
        }
        last[k] = e2;
        if (e2 > e1) straddles.fetch_add(1, std::memory_order_relaxed);
        observations.fetch_add(1, std::memory_order_relaxed);
        if (last_pass && k == kSensors - 1) return;
      }
    });
  }
  while (started.load() < kReaders) std::this_thread::yield();
  for (const Step& st : steps) {
    const uint32_t id = id_of(st.sensor);
    ASSERT_TRUE(st.gap ? service.MarkGap(id).ok()
                       : service.Ingest(id, txs[st.tx]).ok());
    // Let the readers answer a few queries per publish, so reads overlap
    // the whole schedule however fast the writer runs.
    const uint64_t seen = observations.load();
    while (failures.load() == 0 && observations.load() < seen + kReaders) {
      std::this_thread::yield();
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  for (const std::string& f : first_failure) EXPECT_EQ(f, "");
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(observations.load(), kReaders * kSensors);
  EXPECT_EQ(service.num_sensors(), kSensors);
  for (size_t k = 0; k < kSensors; ++k) {
    EXPECT_EQ(service.epoch(id_of(k)), refs[k].size() - 1);
  }
  // How often a query raced a publish of its own sensor; informational.
  RecordProperty("straddles", std::to_string(straddles.load()));
}

// A snapshot taken by a reader while the writer ingests holds the logs of
// its epoch: after the service is destroyed it still answers bit for bit
// as the reference does at that epoch (ASan sees any use after free).
TEST(QueryServiceConcurrency, SnapshotTakenMidIngestOutlivesTheService) {
  constexpr size_t kChunks = 200;
  const auto txs = EncodeChunks(kChunks, 43);
  ASSERT_EQ(txs.size(), kChunks);
  auto feed = [&](storage::QueryService* service, size_t events) {
    for (size_t c = 0; c < events; ++c) {
      if (c % 17 == 16) {
        if (!service->MarkGap(0).ok()) return false;
      } else if (!service->Ingest(0, txs[c]).ok()) {
        return false;
      }
    }
    return true;
  };

  std::shared_ptr<const storage::SensorSnapshot> held;
  {
    auto service = std::make_unique<storage::QueryService>(ServiceOptions());
    std::thread reader([&] {
      // Take the first snapshot past epoch 60: the writer is mid-stream.
      for (;;) {
        auto snap = service->Snapshot(0);
        if (snap != nullptr && snap->epoch > 60) {
          held = std::move(snap);
          return;
        }
        std::this_thread::yield();
      }
    });
    ASSERT_TRUE(feed(service.get(), kChunks));
    reader.join();
    ASSERT_NE(held, nullptr);
    EXPECT_LE(held->epoch, service->epoch(0));
  }
  storage::QueryService ref(ServiceOptions());
  ASSERT_TRUE(feed(&ref, held->epoch));
  const auto want = ref.Snapshot(0);
  ASSERT_EQ(want->epoch, held->epoch);
  EXPECT_EQ(Fingerprint(*held), Fingerprint(*want));
}

/// Bitwise equality of two aggregate answers, DataLoss text included.
void ExpectSameAnswer(const StatusOr<storage::AggregateResult>& got,
                      const StatusOr<storage::AggregateResult>& want) {
  ASSERT_EQ(got.status().code(), want.status().code());
  EXPECT_EQ(got.status().message(), want.status().message());
  if (!want.ok()) return;
  EXPECT_EQ(std::bit_cast<uint64_t>(got->sum),
            std::bit_cast<uint64_t>(want->sum));
  EXPECT_EQ(std::bit_cast<uint64_t>(got->avg),
            std::bit_cast<uint64_t>(want->avg));
  EXPECT_EQ(std::bit_cast<uint64_t>(got->variance),
            std::bit_cast<uint64_t>(want->variance));
  EXPECT_EQ(std::bit_cast<uint64_t>(got->min),
            std::bit_cast<uint64_t>(want->min));
  EXPECT_EQ(std::bit_cast<uint64_t>(got->max),
            std::bit_cast<uint64_t>(want->max));
  EXPECT_EQ(got->count, want->count);
}

// The service answers aggregates straight from the loaded epoch
// snapshot: across epochs (one a gap), Aggregate and AggregateBatch equal
// the snapshot's own answer bit for bit, a repeated range in one epoch
// answers identically, and the counters count exactly what was asked.
TEST(QueryService, AggregatesEqualTheEpochSnapshotAcrossEpochs) {
  const auto txs = EncodeChunks(3, 11);
  ASSERT_EQ(txs.size(), 3u);
  storage::QueryService service(ServiceOptions());
  uint64_t queries = 0;
  uint64_t dataloss = 0;

  auto check_epoch = [&](uint64_t want_epoch) {
    auto snap = service.Snapshot(0);
    ASSERT_NE(snap, nullptr);
    ASSERT_EQ(snap->epoch, want_epoch);
    const size_t len = snap->history.history_len();
    std::vector<storage::QueryService::RangeQuery> ranges;
    for (size_t c = 0; c < snap->history.num_chunks(); ++c) {
      ranges.push_back({0, c * kChunkLen, (c + 1) * kChunkLen});
      ranges.push_back({1, c * kChunkLen + 3, (c + 1) * kChunkLen - 5});
    }
    ranges.push_back({0, 0, len});
    ranges.push_back({0, len - kChunkLen / 2, len});
    for (const auto& q : ranges) {
      const auto want = snap->history.Aggregate(q.signal, q.t0, q.t1);
      const auto first = service.Aggregate(0, q.signal, q.t0, q.t1);
      const auto again = service.Aggregate(0, q.signal, q.t0, q.t1);
      ExpectSameAnswer(first, want);
      ExpectSameAnswer(again, first);
      queries += 2;
      if (want.status().code() == StatusCode::kDataLoss) dataloss += 2;
    }
    const auto batch = service.AggregateBatch(0, ranges);
    ASSERT_EQ(batch.size(), ranges.size());
    for (size_t i = 0; i < ranges.size(); ++i) {
      const auto& q = ranges[i];
      ExpectSameAnswer(batch[i],
                       snap->history.Aggregate(q.signal, q.t0, q.t1));
      ++queries;
      if (!batch[i].ok()) ++dataloss;
    }
    const storage::QueryServiceCounters c = service.counters();
    EXPECT_EQ(c.queries, queries);
    EXPECT_EQ(c.dataloss, dataloss);
    EXPECT_EQ(c.publishes, want_epoch);
    EXPECT_EQ(c.cache_hits, 0u);
    EXPECT_EQ(c.cache_misses, 0u);
    EXPECT_EQ(c.cache_evictions, 0u);
  };

  ASSERT_TRUE(service.Ingest(0, txs[0]).ok());
  check_epoch(1);
  ASSERT_TRUE(service.MarkGap(0).ok());
  check_epoch(2);
  ASSERT_TRUE(service.Ingest(0, txs[1]).ok());
  check_epoch(3);
  ASSERT_TRUE(service.Ingest(0, txs[2]).ok());
  check_epoch(4);
  // The gap really was asked about, with the timeline's own text.
  EXPECT_GT(dataloss, 0u);
  const auto lost = service.Aggregate(0, 0, 0, 4 * kChunkLen);
  EXPECT_EQ(lost.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(lost.status().message(), "range touches lost chunk 1");
}

TEST(QueryService, BatchReportsPerQueryFailuresAndCountsDataLoss) {
  const auto txs = EncodeChunks(3, 13);
  ASSERT_EQ(txs.size(), 3u);
  storage::QueryService service(ServiceOptions());
  ASSERT_TRUE(service.Ingest(0, txs[0]).ok());
  ASSERT_TRUE(service.MarkGap(0).ok());
  ASSERT_TRUE(service.Ingest(0, txs[1]).ok());

  // One good range, one gap-touching range, one out-of-range: the batch
  // answers each on its own, instead of failing wholesale.
  const std::vector<storage::QueryService::RangeQuery> batch = {
      {0, 0, kChunkLen},                       // clean first chunk
      {0, kChunkLen, 2 * kChunkLen},           // the gap chunk
      {0, 0, 100 * kChunkLen},                 // past the end
  };
  auto answers = service.AggregateBatch(0, batch);
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_TRUE(answers[0].ok());
  EXPECT_EQ(answers[1].status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(answers[2].status().code(), StatusCode::kOutOfRange);

  const storage::QueryServiceCounters c = service.counters();
  EXPECT_EQ(c.dataloss, 1u);
  EXPECT_EQ(c.queries, 3u);

  // Reconstruct and Point report DataLoss through the same counter.
  EXPECT_EQ(
      service.Reconstruct(0, 0, kChunkLen, kChunkLen + 1).status().code(),
      StatusCode::kDataLoss);
  EXPECT_EQ(service.Point(0, 0, kChunkLen).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(service.counters().dataloss, 3u);
}

TEST(QueryService, UnknownSensorIsNotFound) {
  storage::QueryService service(ServiceOptions());
  EXPECT_EQ(service.Snapshot(9), nullptr);
  EXPECT_EQ(service.epoch(9), 0u);
  EXPECT_EQ(service.Aggregate(9, 0, 0, 1).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Reconstruct(9, 0, 0, 1).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Point(9, 0, 0).status().code(), StatusCode::kNotFound);
  auto batch = service.AggregateBatch(9, {{0, 0, 1}});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.num_sensors(), 0u);
}

TEST(QueryService, MultipleSensorsPublishIndependently) {
  const auto txs = EncodeChunks(2, 17);
  ASSERT_EQ(txs.size(), 2u);
  storage::QueryService service(ServiceOptions());
  ASSERT_TRUE(service.Ingest(5, txs[0]).ok());
  ASSERT_TRUE(service.Ingest(7, txs[0]).ok());
  ASSERT_TRUE(service.Ingest(7, txs[1]).ok());
  EXPECT_EQ(service.num_sensors(), 2u);
  EXPECT_EQ(service.epoch(5), 1u);
  EXPECT_EQ(service.epoch(7), 2u);
  EXPECT_EQ(service.Snapshot(5)->compressed.num_chunks(), 1u);
  EXPECT_EQ(service.Snapshot(7)->compressed.num_chunks(), 2u);
}

}  // namespace
}  // namespace sbr
