// QueryService: the base station's concurrent, multi-client read
// front-end over per-sensor histories. Each sensor has one writer-side
// CompressedHistory (the single per-sensor timeline, storage/query_engine.h);
// readers are served from immutable epoch snapshots of it published
// RCU-style — a std::shared_ptr to a frozen copy, swapped atomically at
// chunk-ingest boundaries — so queries never block ingest and never
// observe a half-ingested chunk. The timeline keeps its chunk list and
// moment-index nodes in append-only logs that copies share
// (storage/append_log.h), and a frozen copy leaves the writer's
// base-signal mirror behind, so freezing or dropping an epoch costs
// O(signals) handle copies whatever the history length. Ingest never
// decodes samples: materialized reads (Reconstruct, Point) decode the
// covered intervals on demand.
//
// Concurrency contract:
//  - Writer side (Ingest / MarkGap / ApplySnapshot): one logical writer
//    per service at a time — the BaseStation ingest path, which the sim
//    engine already serializes behind its station mutex. Writer calls for
//    *different* sensors are still serialized by the service's writer
//    mutex; this keeps sensor creation and epoch accounting trivial.
//  - Reader side (Snapshot / Aggregate / Reconstruct / Point /
//    AggregateBatch): any number of threads, any time. A reader acquires
//    the per-sensor published pointer with one atomic load and then works
//    entirely on immutable state.
//
// Every published snapshot carries the epoch (a per-sensor monotone
// publish counter), so an answer is always attributable to one exact
// prefix of the ingest stream — the property the differential oracle and
// the TSan concurrency suite pin.
//
// Aggregates are answered from the loaded epoch snapshot by the moment
// index, with no cache in front: a cache keyed by epoch misses every
// probe of a sensor that just published, and a hit would cost about what
// the index does (DESIGN.md §5j).
#ifndef SBR_STORAGE_QUERY_SERVICE_H_
#define SBR_STORAGE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/transmission.h"
#include "storage/chunk_log.h"
#include "storage/query_engine.h"
#include "util/status.h"

namespace sbr::storage {

/// One frozen epoch of one sensor's history: the single compressed
/// timeline, answering aggregates in the compressed domain and
/// materialized reads by on-demand decode.
struct SensorSnapshot {
  /// Monotone per-sensor publish counter; epoch e was published after
  /// exactly e writer mutations (ingests, gaps, snapshots) of the sensor.
  uint64_t epoch = 0;
  /// The epoch's timeline (a CompressedHistory::Frozen() copy).
  CompressedHistory history;
  /// Second name of `history`, for callers that address the compressed
  /// view explicitly.
  const CompressedHistory& compressed = history;

  SensorSnapshot(uint64_t e, CompressedHistory h)
      : epoch(e), history(std::move(h)) {}
  SensorSnapshot(const SensorSnapshot&) = delete;
  SensorSnapshot& operator=(const SensorSnapshot&) = delete;
};

struct QueryServiceOptions {
  /// Must match the sensors' encoder configuration.
  size_t m_base = 0;
  /// Compressed-domain acceleration for every sensor's timeline (the
  /// hierarchical moment index + base RMQ; disable for the legacy
  /// interval-scan reference path).
  IndexOptions index;
};

/// Service-level counters. The service keeps them in plain atomics that
/// count whether or not observability is enabled (the always-on view
/// callers and tests read); they are also mirrored into obs metrics while
/// the runtime gate is on.
struct QueryServiceCounters {
  uint64_t queries = 0;      ///< reader-side calls answered (any status)
  uint64_t dataloss = 0;     ///< answers that reported DataLoss
  uint64_t publishes = 0;    ///< epoch snapshots published (all sensors)
  /// Always 0: the service has no aggregate cache. Kept only because the
  /// pipeline benchmark (perfbench/src/fleet.cc) still reads them.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
};

/// Concurrent multi-sensor query front-end with snapshot isolation.
class QueryService {
 public:
  explicit QueryService(QueryServiceOptions options);

  // ------------------------------------------------------- writer side
  /// Validates, resolves and indexes the next transmission of
  /// `sensor_id` (no samples are decoded) and publishes a new epoch. A
  /// rejected transmission publishes nothing and returns the timeline's
  /// error (the decoder's status code).
  Status Ingest(uint32_t sensor_id, const core::Transmission& t);

  /// Records `chunks` lost chunks and publishes.
  Status MarkGap(uint32_t sensor_id, size_t chunks = 1);

  /// Re-anchors the timeline's base-signal mirror from a resync snapshot
  /// and publishes.
  Status ApplySnapshot(uint32_t sensor_id,
                       const core::BaseSnapshot& snapshot);

  // ------------------------------------------------------- reader side
  /// The sensor's latest published epoch snapshot (one atomic load);
  /// nullptr if the sensor has never been ingested.
  std::shared_ptr<const SensorSnapshot> Snapshot(uint32_t sensor_id) const;

  /// Compressed-domain aggregates of `signal` over [t0, t1), answered
  /// from the latest epoch snapshot. NotFound for unknown sensors;
  /// DataLoss for ranges touching lost chunks; OutOfRange for malformed
  /// ranges.
  StatusOr<AggregateResult> Aggregate(uint32_t sensor_id, size_t signal,
                                      size_t t0, size_t t1) const;

  /// Materialized range reconstruction from the same snapshot, decoded on
  /// demand (bitwise what core::SbrDecoder produces for the stream).
  StatusOr<std::vector<double>> Reconstruct(uint32_t sensor_id,
                                            size_t signal, size_t t0,
                                            size_t t1) const;

  /// Single-sample point query: the one sample decoded with the same
  /// kernel, bitwise equal to Reconstruct(t, t + 1).
  StatusOr<double> Point(uint32_t sensor_id, size_t signal, size_t t) const;

  /// One aggregate range request of a batch.
  struct RangeQuery {
    size_t signal = 0;
    size_t t0 = 0;
    size_t t1 = 0;
  };

  /// Answers every range of a batch against ONE epoch snapshot (mutually
  /// consistent answers). Per-query failures — DataLoss over gaps above
  /// all — stay per-query instead of failing the whole batch; each
  /// DataLoss answer is counted (obs `query.dataloss`).
  std::vector<StatusOr<AggregateResult>> AggregateBatch(
      uint32_t sensor_id, const std::vector<RangeQuery>& ranges) const;

  /// Latest published epoch of the sensor (0 if unknown).
  uint64_t epoch(uint32_t sensor_id) const;

  /// Sensors with at least one published epoch.
  size_t num_sensors() const;

  /// Point-in-time merged counters.
  QueryServiceCounters counters() const;

  /// The base-signal size every sensor's timeline decodes with.
  size_t m_base() const { return options_.m_base; }

  /// The sensor's writer-side timeline itself (nullptr if never written),
  /// for the writer — the base station reading back what it ingested —
  /// or for any thread once ingest has stopped. Unlike Snapshot() it is
  /// not safe to read while a writer call for the same sensor runs.
  const CompressedHistory* Timeline(uint32_t sensor_id) const;

 private:
  struct PerSensor {
    /// Writer-owned mutable timeline; frozen into each published epoch
    /// (the copies share its logs, see Publish).
    CompressedHistory builder;
    uint64_t epoch = 0;
    /// The RCU slot readers load.
    std::atomic<std::shared_ptr<const SensorSnapshot>> published;

    PerSensor(size_t m_base, IndexOptions index) : builder(m_base, index) {}
  };

  /// Writer path: looks up or creates the sensor's builder state.
  PerSensor* GetOrCreateLocked(uint32_t sensor_id);
  /// Freezes the builder into a new epoch and swaps the RCU slot. The
  /// snapshot's logs are handles on the builder's logs: entries below a
  /// snapshot's size are never written again, and the builder only
  /// appends above them, so readers and the writer share no written
  /// memory.
  void Publish(PerSensor* s);
  /// Aggregate answered on an explicit snapshot.
  StatusOr<AggregateResult> AggregateOn(const SensorSnapshot& snap,
                                        size_t signal, size_t t0,
                                        size_t t1) const;
  void CountStatus(const Status& status) const;

  /// Reader path: resolves the sensor's slot (brief map_mu_ hold only).
  const PerSensor* Find(uint32_t sensor_id) const;

  QueryServiceOptions options_;

  /// Guards only the sensor map's *structure* (find/insert); held for
  /// nanoseconds on either side, so readers never wait out an ingest.
  mutable std::mutex map_mu_;
  std::map<uint32_t, std::unique_ptr<PerSensor>> sensors_;

  /// Serializes writer mutations (builder updates + publish). Readers
  /// never take it: they only load the published atomic shared_ptr.
  std::mutex writer_mu_;

  mutable std::atomic<uint64_t> queries_{0};
  mutable std::atomic<uint64_t> dataloss_{0};
  std::atomic<uint64_t> publishes_{0};
};

/// Replays a chunk log into `service` as sensor `sensor_id`, record by
/// record (transmissions, gap markers, snapshots; checkpoints skipped).
/// Log read errors propagate; a transmission the service rejects degrades
/// to a service-side gap so the timeline stays aligned with the log.
Status ReplayLog(const ChunkLog& log, uint32_t sensor_id,
                 QueryService* service);

}  // namespace sbr::storage

#endif  // SBR_STORAGE_QUERY_SERVICE_H_
