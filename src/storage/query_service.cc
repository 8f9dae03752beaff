#include "storage/query_service.h"

#include <utility>

#include "obs/metrics.h"

namespace sbr::storage {

QueryService::QueryService(QueryServiceOptions options)
    : options_(options) {}

QueryService::PerSensor* QueryService::GetOrCreateLocked(
    uint32_t sensor_id) {
  std::lock_guard<std::mutex> lock(map_mu_);
  auto it = sensors_.find(sensor_id);
  if (it != sensors_.end()) return it->second.get();
  auto [pos, inserted] = sensors_.emplace(
      sensor_id,
      std::make_unique<PerSensor>(options_.m_base, options_.index));
  (void)inserted;
  return pos->second.get();
}

const QueryService::PerSensor* QueryService::Find(
    uint32_t sensor_id) const {
  std::lock_guard<std::mutex> lock(map_mu_);
  auto it = sensors_.find(sensor_id);
  return it == sensors_.end() ? nullptr : it->second.get();
}

void QueryService::Publish(PerSensor* s) {
  ++s->epoch;
  auto snap = std::make_shared<const SensorSnapshot>(s->epoch,
                                                     s->builder.Frozen());
  s->published.store(std::move(snap));
  publishes_.fetch_add(1, std::memory_order_relaxed);
  SBR_OBS_COUNT("query.publishes", 1);
  SBR_OBS_GAUGE_SET("query.snapshot.epoch",
                    static_cast<int64_t>(s->epoch));
}

Status QueryService::Ingest(uint32_t sensor_id,
                            const core::Transmission& t) {
  SBR_OBS_TIMER(ingest_timer, "query.publish_us");
  std::lock_guard<std::mutex> wl(writer_mu_);
  PerSensor* s = GetOrCreateLocked(sensor_id);
  SBR_RETURN_IF_ERROR(s->builder.Ingest(t));
  Publish(s);
  return Status::Ok();
}

Status QueryService::MarkGap(uint32_t sensor_id, size_t chunks) {
  std::lock_guard<std::mutex> wl(writer_mu_);
  PerSensor* s = GetOrCreateLocked(sensor_id);
  s->builder.MarkGap(chunks);
  Publish(s);
  return Status::Ok();
}

Status QueryService::ApplySnapshot(uint32_t sensor_id,
                                   const core::BaseSnapshot& snapshot) {
  std::lock_guard<std::mutex> wl(writer_mu_);
  PerSensor* s = GetOrCreateLocked(sensor_id);
  SBR_RETURN_IF_ERROR(s->builder.ApplySnapshot(snapshot));
  Publish(s);
  return Status::Ok();
}

std::shared_ptr<const SensorSnapshot> QueryService::Snapshot(
    uint32_t sensor_id) const {
  const PerSensor* s = Find(sensor_id);
  if (s == nullptr) return nullptr;
  return s->published.load();
}

void QueryService::CountStatus(const Status& status) const {
  if (status.code() == StatusCode::kDataLoss) {
    dataloss_.fetch_add(1, std::memory_order_relaxed);
    SBR_OBS_COUNT("query.dataloss", 1);
  }
}

StatusOr<AggregateResult> QueryService::AggregateOn(
    const SensorSnapshot& snap, size_t signal, size_t t0,
    size_t t1) const {
  auto result = snap.history.Aggregate(signal, t0, t1);
  if (!result.ok()) CountStatus(result.status());
  return result;
}

StatusOr<AggregateResult> QueryService::Aggregate(uint32_t sensor_id,
                                                  size_t signal, size_t t0,
                                                  size_t t1) const {
  SBR_OBS_TIMER(agg_timer, "query.aggregate_us");
  queries_.fetch_add(1, std::memory_order_relaxed);
  auto snap = Snapshot(sensor_id);
  if (snap == nullptr) {
    return Status::NotFound("sensor " + std::to_string(sensor_id));
  }
  return AggregateOn(*snap, signal, t0, t1);
}

StatusOr<std::vector<double>> QueryService::Reconstruct(
    uint32_t sensor_id, size_t signal, size_t t0, size_t t1) const {
  SBR_OBS_TIMER(rec_timer, "query.reconstruct_us");
  queries_.fetch_add(1, std::memory_order_relaxed);
  auto snap = Snapshot(sensor_id);
  if (snap == nullptr) {
    return Status::NotFound("sensor " + std::to_string(sensor_id));
  }
  auto range = snap->history.QueryRange(signal, t0, t1);
  if (!range.ok()) CountStatus(range.status());
  return range;
}

StatusOr<double> QueryService::Point(uint32_t sensor_id, size_t signal,
                                     size_t t) const {
  SBR_OBS_TIMER(point_timer, "query.point_us");
  queries_.fetch_add(1, std::memory_order_relaxed);
  auto snap = Snapshot(sensor_id);
  if (snap == nullptr) {
    return Status::NotFound("sensor " + std::to_string(sensor_id));
  }
  auto value = snap->history.Value(signal, t);
  if (!value.ok()) CountStatus(value.status());
  return value;
}

std::vector<StatusOr<AggregateResult>> QueryService::AggregateBatch(
    uint32_t sensor_id, const std::vector<RangeQuery>& ranges) const {
  SBR_OBS_TIMER(batch_timer, "query.batch_us");
  std::vector<StatusOr<AggregateResult>> out;
  out.reserve(ranges.size());
  auto snap = Snapshot(sensor_id);
  for (const RangeQuery& q : ranges) {
    queries_.fetch_add(1, std::memory_order_relaxed);
    if (snap == nullptr) {
      out.emplace_back(
          Status::NotFound("sensor " + std::to_string(sensor_id)));
      continue;
    }
    out.emplace_back(AggregateOn(*snap, q.signal, q.t0, q.t1));
  }
  return out;
}

const CompressedHistory* QueryService::Timeline(uint32_t sensor_id) const {
  const PerSensor* s = Find(sensor_id);
  return s == nullptr ? nullptr : &s->builder;
}

uint64_t QueryService::epoch(uint32_t sensor_id) const {
  auto snap = Snapshot(sensor_id);
  return snap == nullptr ? 0 : snap->epoch;
}

size_t QueryService::num_sensors() const {
  std::lock_guard<std::mutex> lock(map_mu_);
  return sensors_.size();
}

QueryServiceCounters QueryService::counters() const {
  QueryServiceCounters c;
  c.queries = queries_.load(std::memory_order_relaxed);
  c.dataloss = dataloss_.load(std::memory_order_relaxed);
  c.publishes = publishes_.load(std::memory_order_relaxed);
  return c;
}

namespace {

// Adapts one sensor of a service to ReplayInto's history interface. A
// transmission the service rejects becomes a one-chunk gap, so the
// timeline stays aligned with the log.
struct ReplaySink {
  QueryService* service;
  uint32_t sensor_id;

  Status Ingest(const core::Transmission& t) {
    if (service->Ingest(sensor_id, t).ok()) return Status::Ok();
    SBR_OBS_COUNT("query.replay_gaps", 1);
    return service->MarkGap(sensor_id, 1);
  }
  void MarkGap(size_t chunks) { (void)service->MarkGap(sensor_id, chunks); }
  Status ApplySnapshot(const core::BaseSnapshot& snapshot) {
    return service->ApplySnapshot(sensor_id, snapshot);
  }
};

}  // namespace

Status ReplayLog(const ChunkLog& log, uint32_t sensor_id,
                 QueryService* service) {
  ReplaySink sink{service, sensor_id};
  return ReplayInto(log, &sink);
}

}  // namespace sbr::storage
