#include "storage/query_service.h"

#include <string>
#include <utility>

#include "obs/metrics.h"

namespace sbr::storage {

QueryService::QueryService(QueryServiceOptions options)
    : options_(options) {}

QueryService::Directory::Table::Table(size_t log2)
    : log2_capacity(log2),
      slots(std::make_unique<std::atomic<const PerSensor*>[]>(size_t{1}
                                                              << log2)) {}

size_t QueryService::Directory::Table::Home(uint32_t sensor_id) const {
  // Fibonacci hashing: the top bits of id * 2^64 / phi.
  return static_cast<size_t>((sensor_id * 0x9E3779B97F4A7C15ULL) >>
                             (64 - log2_capacity));
}

const QueryService::PerSensor* QueryService::Directory::Find(
    uint32_t sensor_id) const {
  const Table* table = table_.load(std::memory_order_acquire);
  if (table == nullptr) return nullptr;
  const size_t mask = (size_t{1} << table->log2_capacity) - 1;
  // The table is never more than half full, so a probe ends at an empty
  // slot.
  for (size_t i = table->Home(sensor_id);; i = (i + 1) & mask) {
    const PerSensor* s = table->slots[i].load(std::memory_order_acquire);
    if (s == nullptr || s->id == sensor_id) return s;
  }
}

void QueryService::Directory::Place(const Table& table,
                                    const PerSensor* sensor) {
  const size_t mask = (size_t{1} << table.log2_capacity) - 1;
  size_t i = table.Home(sensor->id);
  while (table.slots[i].load(std::memory_order_relaxed) != nullptr) {
    i = (i + 1) & mask;
  }
  table.slots[i].store(sensor, std::memory_order_release);
}

void QueryService::Directory::Insert(const PerSensor* sensor) {
  const size_t n = size_.load(std::memory_order_relaxed) + 1;
  const Table* old = tables_.empty() ? nullptr : tables_.back().get();
  if (old == nullptr || 2 * n > (size_t{1} << old->log2_capacity)) {
    // The new table is filled before readers can see it.
    auto grown = std::make_unique<Table>(
        old == nullptr ? 4 : old->log2_capacity + 1);
    const size_t old_capacity =
        old == nullptr ? 0 : size_t{1} << old->log2_capacity;
    for (size_t i = 0; i < old_capacity; ++i) {
      const PerSensor* s = old->slots[i].load(std::memory_order_relaxed);
      if (s != nullptr) Place(*grown, s);
    }
    table_.store(grown.get(), std::memory_order_release);
    tables_.push_back(std::move(grown));
  }
  Place(*tables_.back(), sensor);
  size_.store(n, std::memory_order_relaxed);
}

QueryService::PerSensor* QueryService::GetOrCreateLocked(
    uint32_t sensor_id) {
  auto it = sensors_.find(sensor_id);
  if (it != sensors_.end()) return it->second.get();
  auto [pos, inserted] = sensors_.emplace(
      sensor_id, std::make_unique<PerSensor>(sensor_id, options_.m_base,
                                             options_.index));
  (void)inserted;
  return pos->second.get();
}

void QueryService::Publish(PerSensor* s) {
  s->published.Store(PublishedView{s->builder.view(), ++s->epoch});
  if (s->epoch == 1) directory_.Insert(s);
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
  const PerSensor* s = directory_.Find(sensor_id);
  if (s == nullptr) return nullptr;
  const PublishedView view = s->published.Load();
  return std::make_shared<const SensorSnapshot>(
      view.epoch, s->builder.Frozen(view.history));
}

void QueryService::CountStatus(const Status& status) const {
  if (status.code() == StatusCode::kDataLoss) {
    dataloss_.fetch_add(1, std::memory_order_relaxed);
    SBR_OBS_COUNT("query.dataloss", 1);
  }
}

namespace {

Status UnknownSensor(uint32_t sensor_id) {
  return Status::NotFound("sensor " + std::to_string(sensor_id));
}

}  // namespace

// Each reader call builds its answer in one named object and returns
// only that, so the answer is built in the caller's slot: moving a
// StatusOr out costs a string move per query.

StatusOr<AggregateResult> QueryService::Aggregate(uint32_t sensor_id,
                                                  size_t signal, size_t t0,
                                                  size_t t1) const {
  SBR_OBS_TIMER(agg_timer, "query.aggregate_us");
  queries_.fetch_add(1, std::memory_order_relaxed);
  const PerSensor* s = directory_.Find(sensor_id);
  StatusOr<AggregateResult> result =
      s == nullptr ? UnknownSensor(sensor_id)
                   : s->published.Load().history.Aggregate(signal, t0, t1);
  if (!result.ok()) CountStatus(result.status());
  return result;
}

StatusOr<std::vector<double>> QueryService::Reconstruct(
    uint32_t sensor_id, size_t signal, size_t t0, size_t t1) const {
  SBR_OBS_TIMER(rec_timer, "query.reconstruct_us");
  queries_.fetch_add(1, std::memory_order_relaxed);
  const PerSensor* s = directory_.Find(sensor_id);
  StatusOr<std::vector<double>> range =
      s == nullptr ? UnknownSensor(sensor_id)
                   : s->published.Load().history.QueryRange(signal, t0, t1);
  if (!range.ok()) CountStatus(range.status());
  return range;
}

StatusOr<double> QueryService::Point(uint32_t sensor_id, size_t signal,
                                     size_t t) const {
  SBR_OBS_TIMER(point_timer, "query.point_us");
  queries_.fetch_add(1, std::memory_order_relaxed);
  const PerSensor* s = directory_.Find(sensor_id);
  StatusOr<double> value =
      s == nullptr ? UnknownSensor(sensor_id)
                   : s->published.Load().history.Value(signal, t);
  if (!value.ok()) CountStatus(value.status());
  return value;
}

std::vector<StatusOr<AggregateResult>> QueryService::AggregateBatch(
    uint32_t sensor_id, const std::vector<RangeQuery>& ranges) const {
  SBR_OBS_TIMER(batch_timer, "query.batch_us");
  std::vector<StatusOr<AggregateResult>> out;
  out.reserve(ranges.size());
  const PerSensor* s = directory_.Find(sensor_id);
  const PublishedView view = s != nullptr ? s->published.Load()
                                          : PublishedView();
  for (const RangeQuery& q : ranges) {
    queries_.fetch_add(1, std::memory_order_relaxed);
    if (s == nullptr) {
      out.emplace_back(UnknownSensor(sensor_id));
      continue;
    }
    out.emplace_back(view.history.Aggregate(q.signal, q.t0, q.t1));
    if (!out.back().ok()) CountStatus(out.back().status());
  }
  return out;
}

const CompressedHistory* QueryService::Timeline(uint32_t sensor_id) const {
  const PerSensor* s = directory_.Find(sensor_id);
  return s == nullptr ? nullptr : &s->builder;
}

uint64_t QueryService::epoch(uint32_t sensor_id) const {
  const PerSensor* s = directory_.Find(sensor_id);
  return s == nullptr ? 0 : s->published.Load().epoch;
}

size_t QueryService::num_sensors() const { return directory_.size(); }

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
