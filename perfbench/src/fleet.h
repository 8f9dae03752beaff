// Pieces the three workloads share: seeded sensor feeds, sensor-side
// pre-encoding into on-air frames, a base station with durable logs and
// an attached query service, restart timing, and the exact scoring of a
// pass (bytes, energy, SSE, loss, retained heap).
#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/encoder.h"
#include "datagen/dataset.h"
#include "harness.h"
#include "net/base_station.h"
#include "net/energy.h"
#include "storage/query_service.h"

namespace perfbench {

/// Chunk geometry and bandwidth of one workload's sensors.
struct Geometry {
  size_t num_signals = 6;  ///< the weather generator's six quantities
  size_t chunk_len = 0;    ///< M
  size_t m_base = 0;       ///< M_base
  size_t total_band = 0;   ///< TotalBand, in values per transmission

  sbr::core::EncoderOptions Encoder() const;
  size_t values_per_chunk() const { return num_signals * chunk_len; }
};

/// Independent stream `stream` of the run seed (splitmix64).
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Sensor `sensor`'s weather feed: `chunks` whole chunks, a pure function
/// of (seed, sensor).
sbr::datagen::Dataset SensorFeed(uint64_t seed, uint32_t sensor,
                                 const Geometry& g, size_t chunks);

/// Encoder statistics summed over every chunk a workload encodes.
struct EncodeTotals {
  uint64_t chunks = 0;
  uint64_t search_probes = 0;
  uint64_t moment_hits = 0;
  uint64_t moment_misses = 0;
  uint64_t intervals = 0;

  void Add(const sbr::core::EncodeStats& stats);
  /// core.search_probes_per_chunk, core.moment_hit_ratio and
  /// core.intervals_per_chunk.
  void Put(ExactMetrics* out) const;
};

/// One serialized frame a sensor puts on the air.
struct WireFrame {
  uint32_t sensor = 0;
  size_t chunk = 0;  ///< the sampling round it belongs to
  bool data = true;  ///< false: a resync snapshot
  /// Size in the energy model's on-air values (payload plus header).
  size_t on_air_values = 0;
  std::vector<uint8_t> bytes;
};

/// Runs `feed` through a SensorNode. A chunk with lost(c) true is encoded
/// but its frame never leaves the sensor (a loss for good); the sensor
/// reports it in a resync snapshot sent ahead of the next chunk, which the
/// station turns into a DataLoss gap. The last chunk must not be lost.
sbr::Status PreEncode(uint32_t sensor, const sbr::datagen::Dataset& feed,
                      const Geometry& g,
                      const std::function<bool(size_t)>& lost,
                      EncodeTotals* totals, std::vector<WireFrame>* frames);

/// A base station with durable per-sensor logs and an attached query
/// service, the analyst-facing half of every workload.
class StationRig {
 public:
  /// Empties `dir` and starts a fresh station logging into it; with an
  /// empty `dir` the station keeps no durable logs.
  static std::unique_ptr<StationRig> Open(const std::string& dir,
                                          size_t m_base);

  StationRig(const std::string& dir, size_t m_base);
  StationRig(const StationRig&) = delete;
  StationRig& operator=(const StationRig&) = delete;

  sbr::net::BaseStation& station() { return station_; }
  sbr::storage::QueryService& service() { return service_; }

 private:
  /// Declared first: the station holds a pointer to it.
  sbr::storage::QueryService service_;
  sbr::net::BaseStation station_;
};

/// Destroys the rig and returns the heap bytes that freed.
int64_t DestroyAndMeasureHeap(std::unique_ptr<StationRig>* rig);

/// Times `fn` into `latency` inside a benchmark span (the span covers the
/// clock reads too, so the traced phase attributes them to the layer).
template <typename Fn>
auto TimedCall(const char* span_name, LatencyRecorder* latency, Fn&& fn) {
  sbr::obs::ScopedSpan span(span_name);
  const auto start = Clock::now();
  auto result = fn();
  latency->Add(NsBetween(start, Clock::now()));
  return result;
}

/// The dashboard probe the sensor-side workloads send after an ingest:
/// per-signal aggregate over the sensor's newest chunk and a point query
/// on its last sample. Skipped while the newest chunk is a gap.
void ProbeNewestChunk(const sbr::storage::QueryService& service,
                      uint32_t sensor, LatencyRecorder* latency,
                      Checks* checks);

/// Sum of squared errors of the service's reconstruction of `sensor`
/// against its raw feed over non-gap chunks (chunk by chunk, signal by
/// signal — NetworkSim's order). Adds the scored sample count.
sbr::Status ScoreSse(const sbr::storage::QueryService& service,
                     uint32_t sensor, const sbr::datagen::Dataset& feed,
                     double* sse, uint64_t* scored_values);

/// Counts behind the exact end-to-end metrics of a pass.
struct EndToEndCounts {
  double raw_values = 0.0;     ///< values sensed (chunks x N x M)
  double on_air_values = 0.0;  ///< every frame copy on every hop
  double energy_nj = 0.0;      ///< radio energy of every node
  double sse = 0.0;
  double scored_values = 0.0;
  double chunks_sensed = 0.0;
  double gap_chunks = 0.0;
  double heap_bytes = 0.0;  ///< retained by the station, per scored value

  void Put(ExactMetrics* out) const;
};

/// Exact counts of the station side after a pass: chunks beyond those
/// sensed in the published timelines (net.timeline_excess_chunks), durable
/// log bytes per raw value, aggregate-cache hit ratio and evictions.
void PutStationExact(StationRig& rig, const std::vector<uint32_t>& sensors,
                     size_t chunks_per_sensor, double raw_values,
                     ExactMetrics* x);

/// Exact metrics of a pass that fed pre-encoded `frames` of `sensors`
/// (`chunks_per_sensor` chunks each, raw feeds in `feeds`, indexed by
/// sensor id) straight into the rig's station over one hop. Records the
/// live answer sample, then destroys the rig to measure its heap.
sbr::Status ScoreFedPass(const std::vector<const WireFrame*>& frames,
                         const std::vector<uint32_t>& sensors,
                         const std::vector<sbr::datagen::Dataset>& feeds,
                         size_t chunks_per_sensor, const Geometry& g,
                         const EncodeTotals& encode,
                         std::unique_ptr<StationRig>* rig,
                         std::vector<uint64_t>* live_answers,
                         ExactMetrics* x);

/// Gap chunks across the service's latest snapshots of `sensors`.
uint64_t GapChunks(const sbr::storage::QueryService& service,
                   const std::vector<uint32_t>& sensors);

/// Chunks in the service's timelines beyond the chunks each sensor
/// sensed (`sensed` per sensor): a chunk ingested twice shifts every later
/// chunk of that sensor in time. 0 on a correct run.
uint64_t TimelineExcess(const sbr::storage::QueryService& service,
                        const std::vector<uint32_t>& sensors, size_t sensed);

/// Durable log size on disk, framing included, summed over sensors.
uint64_t LogBytes(sbr::net::BaseStation& station,
                  const std::vector<uint32_t>& sensors);

/// Times a station restart `repeats` times: ChunkLog::Open of each
/// sensor's log under `dir`, then storage::ReplayLog into a fresh query
/// service. Samples `speed` before every repeat and after the last.
/// Reports medians; `*replayed` keeps the last rebuilt service.
sbr::Status TimeRecovery(const std::string& dir,
                         const std::vector<uint32_t>& sensors, size_t m_base,
                         size_t repeats, HostSpeed* speed,
                         RecoveryResult* out,
                         std::unique_ptr<sbr::storage::QueryService>* replayed);

/// The bits of a fixed query sample answered from each sensor's latest
/// snapshot (epoch, whole-history and per-chunk aggregates, points and a
/// reconstruct, errors included). Reads snapshots directly, so taking a
/// sample leaves the aggregate cache untouched. Two services that agree
/// on the sample agree bit for bit.
std::vector<uint64_t> AnswerSample(const sbr::storage::QueryService& service,
                                   const std::vector<uint32_t>& sensors);

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_
