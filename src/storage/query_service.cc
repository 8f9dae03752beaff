#include "storage/query_service.h"

#include <bit>
#include <utility>

#include "obs/metrics.h"

namespace sbr::storage {
namespace {

// splitmix64 finalizer: cheap, well-distributed mixing for cache keys.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

size_t QueryService::CacheKeyHash::operator()(const CacheKey& k) const {
  uint64_t h = Mix(static_cast<uint64_t>(k.sensor) ^ (k.epoch << 32));
  h = Mix(h ^ k.signal);
  h = Mix(h ^ k.t0);
  h = Mix(h ^ k.t1);
  return static_cast<size_t>(h);
}

void QueryService::CacheShard::Unlink(Slot* slot) {
  Entry& e = slot->second;
  (e.older != nullptr ? e.older->second.newer : oldest) = e.newer;
  (e.newer != nullptr ? e.newer->second.older : newest) = e.older;
  e.older = nullptr;
  e.newer = nullptr;
}

void QueryService::CacheShard::PushNewest(Slot* slot) {
  slot->second.older = newest;
  (newest != nullptr ? newest->second.newer : oldest) = slot;
  newest = slot;
}

QueryService::QueryService(QueryServiceOptions options)
    : options_(options) {
  if (options_.cache_shards > 0 &&
      options_.cache_capacity_per_shard > 0) {
    const size_t shards = std::bit_ceil(options_.cache_shards);
    cache_.reserve(shards);
    for (size_t i = 0; i < shards; ++i) {
      cache_.push_back(std::make_unique<CacheShard>());
    }
  }
}

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
  auto snap = std::make_shared<const SensorSnapshot>(
      s->epoch, s->builder_compressed, s->builder_history);
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
  // The materialized ingest is the gate: if the chunk cannot be decoded,
  // neither timeline advances and the caller sees the error.
  SBR_RETURN_IF_ERROR(s->builder_history.Ingest(t));
  // The compressed index may still reject what the decoder accepted
  // (it is stricter about base geometry). Record a gap in its place so
  // the two views keep identical chunk numbering; aggregates over the
  // chunk then answer DataLoss while reconstruction still works.
  if (Status compressed = s->builder_compressed.Ingest(t);
      !compressed.ok()) {
    s->builder_compressed.MarkGap(1);
    SBR_OBS_COUNT("query.compressed_index_gaps", 1);
  }
  Publish(s);
  return Status::Ok();
}

Status QueryService::MarkGap(uint32_t sensor_id, size_t chunks) {
  std::lock_guard<std::mutex> wl(writer_mu_);
  PerSensor* s = GetOrCreateLocked(sensor_id);
  s->builder_history.MarkGap(chunks);
  s->builder_compressed.MarkGap(chunks);
  Publish(s);
  return Status::Ok();
}

Status QueryService::ApplySnapshot(uint32_t sensor_id,
                                   const core::BaseSnapshot& snapshot) {
  std::lock_guard<std::mutex> wl(writer_mu_);
  PerSensor* s = GetOrCreateLocked(sensor_id);
  SBR_RETURN_IF_ERROR(s->builder_history.ApplySnapshot(snapshot));
  // A compressed-side rejection leaves its mirror stale; subsequent
  // compressed ingests will fail their geometry checks and turn into
  // index gaps, so readers stay safe (DataLoss, never garbage).
  if (Status compressed = s->builder_compressed.ApplySnapshot(snapshot);
      !compressed.ok()) {
    SBR_OBS_COUNT("query.compressed_snapshot_rejects", 1);
  }
  Publish(s);
  return Status::Ok();
}

std::shared_ptr<const SensorSnapshot> QueryService::Snapshot(
    uint32_t sensor_id) const {
  const PerSensor* s = Find(sensor_id);
  if (s == nullptr) return nullptr;
  return s->published.load();
}

QueryService::CacheShard* QueryService::ShardFor(
    const CacheKey& key) const {
  if (cache_.empty()) return nullptr;
  const size_t idx = CacheKeyHash()(key) & (cache_.size() - 1);
  return cache_[idx].get();
}

void QueryService::CountStatus(const Status& status) const {
  if (status.code() == StatusCode::kDataLoss) {
    dataloss_.fetch_add(1, std::memory_order_relaxed);
    SBR_OBS_COUNT("query.dataloss", 1);
  }
}

StatusOr<AggregateResult> QueryService::AggregateOn(
    uint32_t sensor_id, const SensorSnapshot& snap, size_t signal,
    size_t t0, size_t t1) const {
  const CacheKey key{sensor_id, snap.epoch, signal, t0, t1};
  CacheShard* shard = ShardFor(key);
  if (shard != nullptr) {
    std::lock_guard<std::mutex> lock(shard->mu);
    auto it = shard->entries.find(key);
    if (it != shard->entries.end()) {
      // LRU touch: this entry becomes the most recently used.
      shard->Unlink(&*it);
      shard->PushNewest(&*it);
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      SBR_OBS_COUNT("query.cache.hits", 1);
      return it->second.value;
    }
  }
  auto result = snap.compressed.Aggregate(signal, t0, t1);
  if (shard != nullptr) {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    SBR_OBS_COUNT("query.cache.misses", 1);
  }
  if (!result.ok()) {
    CountStatus(result.status());
    return result;
  }
  if (shard != nullptr) {
    uint64_t evicted = 0;
    bool inserted = false;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      auto [it, fresh] = shard->entries.try_emplace(key);
      inserted = fresh;
      if (fresh) {
        it->second.value = *result;
        shard->PushNewest(&*it);
        while (shard->entries.size() > options_.cache_capacity_per_shard) {
          CacheShard::Slot* victim = shard->oldest;
          shard->Unlink(victim);
          shard->entries.erase(shard->entries.find(victim->first));
          ++evicted;
        }
      }
    }
    // Counter updates outside the shard lock. The resident gauge applies
    // this call's net delta atomically (modular fetch_add carries the
    // negative case), so concurrent shards never lose an update.
    if (inserted || evicted > 0) {
      const int64_t delta =
          (inserted ? 1 : 0) - static_cast<int64_t>(evicted);
      const uint64_t resident =
          cache_resident_.fetch_add(static_cast<uint64_t>(delta),
                                    std::memory_order_relaxed) +
          static_cast<uint64_t>(delta);
      if (evicted > 0) {
        cache_evictions_.fetch_add(evicted, std::memory_order_relaxed);
        SBR_OBS_COUNT("query.cache.evictions", evicted);
      }
      SBR_OBS_GAUGE_SET("query.cache.resident",
                        static_cast<int64_t>(resident));
    }
  }
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
  return AggregateOn(sensor_id, *snap, signal, t0, t1);
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
  auto value = snap->compressed.Value(signal, t);
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
    out.emplace_back(AggregateOn(sensor_id, *snap, q.signal, q.t0, q.t1));
  }
  return out;
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
  c.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  c.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  c.cache_evictions = cache_evictions_.load(std::memory_order_relaxed);
  c.cache_resident = cache_resident_.load(std::memory_order_relaxed);
  c.dataloss = dataloss_.load(std::memory_order_relaxed);
  c.publishes = publishes_.load(std::memory_order_relaxed);
  return c;
}

Status ReplayLog(const ChunkLog& log, uint32_t sensor_id,
                 QueryService* service) {
  for (size_t i = 0; i < log.size(); ++i) {
    switch (log.record_type(i)) {
      case RecordType::kTransmission: {
        auto t = log.Read(i);
        if (!t.ok()) return t.status();
        if (!service->Ingest(sensor_id, *t).ok()) {
          SBR_RETURN_IF_ERROR(service->MarkGap(sensor_id, 1));
          SBR_OBS_COUNT("query.replay_gaps", 1);
        }
        break;
      }
      case RecordType::kGap: {
        auto chunks = log.ReadGap(i);
        if (!chunks.ok()) return chunks.status();
        SBR_RETURN_IF_ERROR(service->MarkGap(sensor_id, *chunks));
        break;
      }
      case RecordType::kSnapshot: {
        auto snap = log.ReadSnapshot(i);
        if (!snap.ok()) return snap.status();
        SBR_RETURN_IF_ERROR(service->ApplySnapshot(sensor_id, *snap));
        break;
      }
      case RecordType::kCheckpoint:
        break;  // recovery state for the log's owner; no history data
    }
  }
  return Status::Ok();
}

}  // namespace sbr::storage
