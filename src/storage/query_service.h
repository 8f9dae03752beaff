// QueryService: the base station's concurrent, multi-client read
// front-end over per-sensor histories. Each sensor has one writer-side
// CompressedHistory (the single per-sensor timeline,
// storage/query_engine.h). Every writer call publishes the timeline's
// HistoryView — views of its append-only chunk and index logs, its
// geometry and gap count — together with the new epoch, under the
// sensor's seqlock (storage/seqlock.h). Readers copy that view out and
// query the logs below the view's sizes, which the writer never writes
// again and never frees while the service lives. Queries never block
// ingest and never observe a half-ingested chunk. Ingest never decodes
// samples: materialized reads (Reconstruct, Point) decode the covered
// intervals on demand.
//
// Concurrency contract:
//  - Writer side (Ingest / MarkGap / ApplySnapshot): one logical writer
//    per service at a time — the BaseStation ingest path, which the sim
//    engine already serializes behind its station mutex. Writer calls for
//    *different* sensors are still serialized by the service's writer
//    mutex; this keeps sensor creation and epoch accounting trivial.
//    A publish copies about a dozen words; it allocates nothing.
//  - Reader side (Aggregate / Reconstruct / Point / AggregateBatch /
//    epoch / num_sensors): any number of threads, any time, with no lock
//    and no reference count. A reader finds the sensor in a lock-free,
//    grow-only directory (an atomic pointer to an open-addressed table
//    that the writer replaces by a larger copy, keeping the old ones),
//    copies the published view out of the seqlock — retrying only if a
//    publish of that sensor overlapped the copy — and answers from it.
//    The only shared writes are the relaxed query counters.
//  - Snapshot() is the one reader call that allocates: it builds a
//    SensorSnapshot from the published view on demand (one allocation
//    plus two reference-count increments, to hold the logs' stores), so
//    the snapshot outlives the service. Use it to pin one epoch across
//    many queries; the per-query calls above do not need it.
//
// Every published view carries the epoch (a per-sensor monotone publish
// counter), so an answer is always attributable to one exact prefix of
// the ingest stream — the property the differential oracle and the TSan
// concurrency suite pin. A sensor enters the directory with its first
// publish: until then it has no epoch, no snapshot, and does not count
// in num_sensors().
//
// Aggregates are answered from the loaded view by the moment index, with
// no cache in front: a cache keyed by epoch misses every probe of a
// sensor that just published, and a hit would cost about what the index
// does (DESIGN.md §5j).
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
#include "storage/seqlock.h"
#include "util/status.h"

namespace sbr::storage {

/// One frozen epoch of one sensor's history: the single compressed
/// timeline, answering aggregates in the compressed domain and
/// materialized reads by on-demand decode. It holds the timeline's logs,
/// so it stays valid after the service is gone.
struct SensorSnapshot {
  /// Monotone per-sensor publish counter; epoch e was published after
  /// exactly e writer mutations (ingests, gaps, snapshots) of the sensor.
  uint64_t epoch = 0;
  /// The epoch's timeline (a CompressedHistory::Frozen() copy of the
  /// published view).
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
  /// The sensor's latest published epoch as a snapshot built on demand
  /// (one allocation); nullptr if the sensor has never published.
  std::shared_ptr<const SensorSnapshot> Snapshot(uint32_t sensor_id) const;

  /// Compressed-domain aggregates of `signal` over [t0, t1), answered
  /// from the latest published view. NotFound for unknown sensors;
  /// DataLoss for ranges touching lost chunks; OutOfRange for malformed
  /// ranges.
  StatusOr<AggregateResult> Aggregate(uint32_t sensor_id, size_t signal,
                                      size_t t0, size_t t1) const;

  /// Materialized range reconstruction from the same view, decoded on
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

  /// Answers every range of a batch against ONE published view (mutually
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

  /// The sensor's writer-side timeline itself (nullptr if it never
  /// published), for the writer — the base station reading back what it
  /// ingested — or for any thread once ingest has stopped. Unlike
  /// Snapshot() it is not safe to read while a writer call for the same
  /// sensor runs.
  const CompressedHistory* Timeline(uint32_t sensor_id) const;

 private:
  /// What a publish stores under a sensor's seqlock (trivial, like
  /// HistoryView).
  struct PublishedView {
    HistoryView history;
    uint64_t epoch;
  };

  struct PerSensor {
    /// Readers' line: the seqlock'd view, and the id the directory
    /// compares.
    alignas(64) Seqlock<PublishedView> published;
    const uint32_t id;
    /// Writer-owned mutable timeline; the views point into its logs.
    alignas(64) CompressedHistory builder;
    uint64_t epoch = 0;

    PerSensor(uint32_t sensor_id, size_t m_base, IndexOptions index)
        : id(sensor_id), builder(m_base, index) {}
  };

  /// Lock-free, grow-only map from sensor id to published sensor.
  /// Readers find a sensor with an acquire load of the table pointer and
  /// of each probed slot; the writer fills a slot with a release store
  /// and replaces a half-full table by a copy twice its size, keeping
  /// every table until the service dies (a reader may still probe an
  /// old one).
  class Directory {
   public:
    /// The sensor, if it has published. Any thread.
    const PerSensor* Find(uint32_t sensor_id) const;
    /// Writer only: adds a sensor that is not in the directory yet.
    void Insert(const PerSensor* sensor);
    size_t size() const { return size_.load(std::memory_order_relaxed); }

   private:
    struct Table {
      explicit Table(size_t log2_capacity);
      size_t Home(uint32_t sensor_id) const;
      size_t log2_capacity;
      std::unique_ptr<std::atomic<const PerSensor*>[]> slots;
    };
    /// Writer only: stores `sensor` in its first empty probe slot.
    static void Place(const Table& table, const PerSensor* sensor);

    std::atomic<const Table*> table_{nullptr};
    /// Every table, newest last.
    std::vector<std::unique_ptr<Table>> tables_;
    std::atomic<size_t> size_{0};
  };

  /// Writer path: the sensor's state, created on first use.
  PerSensor* GetOrCreateLocked(uint32_t sensor_id);
  /// Stores the builder's view and the next epoch under the sensor's
  /// seqlock, entering the sensor into the directory on its first
  /// publish.
  void Publish(PerSensor* s);
  void CountStatus(const Status& status) const;

  QueryServiceOptions options_;

  /// Writer-owned: every sensor, published or not (a rejected first
  /// transmission may leave base updates applied to its builder).
  std::map<uint32_t, std::unique_ptr<PerSensor>> sensors_;
  Directory directory_;

  /// Serializes writer mutations (builder updates + publish). Readers
  /// never take it.
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
