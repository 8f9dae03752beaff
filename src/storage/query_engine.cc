#include "storage/query_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <limits>
#include <new>
#include <type_traits>

#include "core/get_intervals.h"

namespace sbr::storage {
namespace {

// Sum of t and t^2 for t in [lo, hi) — closed forms for the
// linear-in-time fall-back intervals.
double SumT(size_t lo, size_t hi) {
  const double a = static_cast<double>(lo);
  const double b = static_cast<double>(hi);
  return (b * (b - 1.0) - a * (a - 1.0)) / 2.0;
}
double SumT2(size_t lo, size_t hi) {
  auto cube = [](double m) { return (m - 1.0) * m * (2.0 * m - 1.0) / 6.0; };
  return cube(static_cast<double>(hi)) - cube(static_cast<double>(lo));
}

/// Exact moment fold of `n` raw samples.
void FoldValues(const double* v, size_t n, MomentSummary* out) {
  for (size_t i = 0; i < n; ++i) {
    out->sum += v[i];
    out->sumsq += v[i] * v[i];
    out->min = std::min(out->min, v[i]);
    out->max = std::max(out->max, v[i]);
  }
  out->count += n;
}

/// Orders a chunk position before the records that start after it, so
/// that the record before upper_bound's answer holds the position.
bool StartsAfter(size_t pos, const core::IntervalRecord& r) {
  return pos < r.start;
}

AggregateResult Finish(const MomentSummary& acc) {
  AggregateResult out;
  out.sum = acc.sum;
  out.min = acc.min;
  out.max = acc.max;
  out.count = acc.count;
  const double n = static_cast<double>(acc.count);
  out.avg = acc.sum / n;
  out.variance = std::max(0.0, acc.sumsq / n - out.avg * out.avg);
  return out;
}

}  // namespace

// The query service publishes views under a seqlock, word by word.
static_assert(std::is_trivial_v<HistoryView>);

struct HistoryView::ChunkRecords {
  std::atomic<uint32_t> refs{1};
  uint32_t num_records = 0;
  /// The base version the records map onto; null for a self-contained
  /// chunk.
  std::shared_ptr<const BaseVersion> base;

  // Behind this header lie num_signals + 1 record offsets, so a read
  // finds its signal's records from the chunk's first cache line, and
  // then the records, 8-byte aligned.

  /// offsets()[s] is the record holding signal s's first sample;
  /// offsets()[num_signals] is num_records.
  uint32_t* offsets() { return reinterpret_cast<uint32_t*>(this + 1); }
  const uint32_t* offsets() const {
    return reinterpret_cast<const uint32_t*>(this + 1);
  }
  /// Where the records start, in bytes from the header.
  static size_t RecordsOffset(size_t num_signals) {
    const size_t end =
        sizeof(ChunkRecords) + (num_signals + 1) * sizeof(uint32_t);
    return (end + alignof(core::IntervalRecord) - 1) &
           ~(alignof(core::IntervalRecord) - 1);
  }
  core::IntervalRecord* records(size_t num_signals) {
    return reinterpret_cast<core::IntervalRecord*>(
        reinterpret_cast<uint8_t*>(this) + RecordsOffset(num_signals));
  }
  const core::IntervalRecord* records(size_t num_signals) const {
    return reinterpret_cast<const core::IntervalRecord*>(
        reinterpret_cast<const uint8_t*>(this) + RecordsOffset(num_signals));
  }

  /// The records that can overlap signal `s`'s row (of `num_signals`):
  /// from the one holding its first sample through the one holding the
  /// next row's first sample (a walk stops at the row's end). `*end` is
  /// where the last of them ends: the next record's start, or `total`
  /// (the chunk's samples).
  std::span<const core::IntervalRecord> Row(size_t s, size_t num_signals,
                                            size_t total,
                                            size_t* end) const {
    const uint32_t* off = offsets();
    const core::IntervalRecord* recs = records(num_signals);
    const size_t last = std::min<size_t>(size_t{off[s + 1]} + 1, num_records);
    *end = last < num_records ? recs[last].start : total;
    return {recs + off[s], last - off[s]};
  }

  static ChunkRecords* Create(size_t num_records, size_t num_signals,
                              std::shared_ptr<const BaseVersion> base) {
    // The records are stored as they arrive on the wire, 32 bytes each.
    static_assert(sizeof(core::IntervalRecord) == 32);
    void* raw = ::operator new(RecordsOffset(num_signals) +
                               num_records * sizeof(core::IntervalRecord));
    auto* chunk = new (raw) ChunkRecords;
    chunk->num_records = static_cast<uint32_t>(num_records);
    chunk->base = std::move(base);
    return chunk;
  }

  static void Release(ChunkRecords* chunk) {
    if (chunk != nullptr && chunk->refs.fetch_sub(1) == 1) {
      chunk->~ChunkRecords();
      ::operator delete(chunk);
    }
  }
};

HistoryView::ChunkRef::ChunkRef(const ChunkRef& other)
    : chunk_(other.chunk_) {
  if (chunk_ != nullptr) chunk_->refs.fetch_add(1);
}

HistoryView::ChunkRef& HistoryView::ChunkRef::operator=(
    const ChunkRef& other) {
  if (other.chunk_ != nullptr) {
    other.chunk_->refs.fetch_add(1);
  }
  ChunkRecords::Release(chunk_);
  chunk_ = other.chunk_;
  return *this;
}

HistoryView::ChunkRef& HistoryView::ChunkRef::operator=(
    ChunkRef&& other) noexcept {
  if (this != &other) {
    ChunkRecords::Release(chunk_);
    chunk_ = std::exchange(other.chunk_, nullptr);
  }
  return *this;
}

HistoryView::ChunkRef::~ChunkRef() { ChunkRecords::Release(chunk_); }

StatusOr<CompressedHistory> CompressedHistory::FromLog(const ChunkLog& log,
                                                       size_t m_base,
                                                       IndexOptions index) {
  CompressedHistory history(m_base, index);
  SBR_RETURN_IF_ERROR(ReplayInto(log, &history));
  return history;
}

CompressedHistory CompressedHistory::Frozen(const HistoryView& v) const {
  // The copy never ingests, so its (empty) mirror needs no m_base.
  CompressedHistory out(0, index_options_);
  out.frozen_ = true;
  out.num_signals_ = v.num_signals_;
  out.chunk_len_ = v.chunk_len_;
  out.num_gaps_ = v.num_gaps_;
  out.num_base_versions_ = v.num_base_versions_;
  out.chunks_ = chunks_.Prefix(v.chunks_);
  // A view with an index was taken after the index was created, and
  // nothing replaces it afterwards.
  if (v.index_.width() > 0) out.index_ = index_->Prefix(v.index_);
  return out;
}

void CompressedHistory::PublishBaseVersion(std::span<const double> values) {
  auto version = std::make_shared<BaseVersion>();
  version->values.assign(values.begin(), values.end());
  version->sums.Reset(version->values);
  // The min/max sparse table only pays for itself on the indexed path;
  // the legacy reference scans the base segment like it always did.
  if (index_options_.enabled) version->minmax.Reset(version->values);
  current_base_ = std::move(version);
  published_generation_ = mirror_.generation();
  ++num_base_versions_;
}

void CompressedHistory::AppendIndexLeaves(const ChunkRecords* chunk) {
  if (!index_options_.enabled || num_signals_ == 0) return;
  const auto gap = [](size_t) { return MomentSummary::Gap(); };
  if (!index_) {
    index_.emplace(num_signals_);
    // Every chunk on the timeline before the first successful ingest is
    // a loss gap (geometry was unknown); backfill their leaves so index
    // positions equal chunk indices.
    for (size_t c = 0; c + 1 < chunks_.size(); ++c) index_->AppendChunk(gap);
  }
  if (chunk == nullptr) {
    index_->AppendChunk(gap);
    return;
  }
  // Each row starts at the record holding its first sample (no search)
  // and folds in ascending record order, as an aggregate over the whole
  // row does, so a leaf has the same bits as that aggregate's fold.
  const size_t n = chunk->num_records;
  const size_t total = num_signals_ * chunk_len_;
  const uint32_t* offsets = chunk->offsets();
  const core::IntervalRecord* records = chunk->records(num_signals_);
  index_->AppendChunk([&](size_t s) {
    MomentSummary leaf;
    const size_t row_lo = s * chunk_len_;
    const size_t row_hi = row_lo + chunk_len_;
    for (size_t k = offsets[s]; k < n && records[k].start < row_hi; ++k) {
      const size_t start = records[k].start;
      const size_t end = k + 1 < n ? records[k + 1].start : total;
      HistoryView::AccumulateInterval(*chunk, records[k],
                                      std::max(row_lo, start) - start,
                                      std::min(row_hi, end) - start, &leaf);
    }
    return leaf;
  });
}

Status CompressedHistory::Ingest(const core::Transmission& t) {
  if (frozen_) {
    return Status::FailedPrecondition("ingest into a frozen snapshot");
  }
  if (!t.signal_lengths.empty()) {
    return Status::Unimplemented(
        "multi-rate chunks are not indexable by the history store");
  }
  // The geometry is fixed by the first accepted chunk; a rejected one
  // fixes nothing.
  if (num_signals_ != 0) {
    if (t.num_signals != num_signals_ || t.chunk_len != chunk_len_) {
      return Status::FailedPrecondition("transmission geometry changed");
    }
  } else if (t.num_signals == 0 || t.chunk_len == 0) {
    return Status::DataLoss("transmission header has zero geometry");
  }
  SBR_RETURN_IF_ERROR(mirror_.Advance(t));
  // A self-contained (degraded-mode) chunk gets no base: like the
  // decoder's empty base span, any interval still claiming a base
  // reference is corrupt (ResolveIntervals rejects it).
  const bool self_contained = t.base_kind == core::BaseKind::kNone;
  if (!self_contained &&
      (current_base_ == nullptr ||
       published_generation_ != mirror_.generation())) {
    PublishBaseVersion(mirror_.BaseFor(t));
  }
  const std::shared_ptr<const BaseVersion> base =
      self_contained ? nullptr : current_base_;
  // The chunk's allocation is sized by the header's num_signals, so the
  // decoder's size limit (which bounds num_signals, as chunk_len >= 1)
  // is checked before it, not left to ResolveIntervals.
  const size_t max_samples = core::DecoderOptions{}.max_chunk_samples;
  if (t.TotalSamples() > max_samples) {
    return Status::DataLoss("chunk of " + std::to_string(t.TotalSamples()) +
                            " samples exceeds the decoder limit");
  }
  const size_t n = t.intervals.size();
  ChunkRecords* chunk = ChunkRecords::Create(n, t.num_signals, base);
  ChunkRef ref(chunk);  // frees the chunk if it is rejected
  core::IntervalRecord* records = chunk->records(t.num_signals);
  SBR_RETURN_IF_ERROR(core::ResolveIntervals(
      t.intervals, t.TotalSamples(), base ? base->values.size() : 0,
      max_samples, {records, n}));
  if (num_signals_ == 0) {
    num_signals_ = t.num_signals;
    chunk_len_ = t.chunk_len;
  }
  // The records tile the chunk from 0, so each row's first sample has a
  // record; one sweep finds them all.
  uint32_t* offsets = chunk->offsets();
  size_t k = 0;
  for (size_t s = 0; s < num_signals_; ++s) {
    const size_t row_start = s * chunk_len_;
    while (k + 1 < n && records[k + 1].start <= row_start) ++k;
    offsets[s] = static_cast<uint32_t>(k);
  }
  offsets[num_signals_] = static_cast<uint32_t>(n);
  chunks_.push_back(std::move(ref));
  AppendIndexLeaves(chunk);
  return Status::Ok();
}

void CompressedHistory::MarkGap(size_t chunks) {
  for (size_t i = 0; i < chunks; ++i) {
    chunks_.push_back(ChunkRef());
    // Index structures exist only once geometry is known; earlier gaps
    // are backfilled by the first AppendIndexLeaves.
    if (index_options_.enabled && index_) {
      AppendIndexLeaves(nullptr);
    }
  }
  num_gaps_ += chunks;
}

Status CompressedHistory::ApplySnapshot(const core::BaseSnapshot& snapshot) {
  if (frozen_) {
    return Status::FailedPrecondition("snapshot into a frozen snapshot");
  }
  // The new base version is built lazily, by the next ingest that
  // references it.
  return mirror_.ApplySnapshot(snapshot);
}

void HistoryView::AccumulateInterval(const ChunkRecords& chunk,
                                     const core::IntervalRecord& iv,
                                     size_t lo, size_t hi,
                                     MomentSummary* out) {
  const size_t len = hi - lo;
  if (len == 0) return;
  out->count += len;

  const bool fallback = iv.shift == core::kShiftLinearFallback;
  const bool needs_scan = iv.c != 0.0;

  if (!needs_scan && fallback) {
    // y' = a t + b over t in [lo, hi): closed forms.
    const double st = SumT(lo, hi);
    const double st2 = SumT2(lo, hi);
    const double flen = static_cast<double>(len);
    out->sum += iv.a * st + iv.b * flen;
    out->sumsq += iv.a * iv.a * st2 + 2.0 * iv.a * iv.b * st +
                  iv.b * iv.b * flen;
    // Monotone in t: extremes at the ends.
    const double v0 = iv.a * static_cast<double>(lo) + iv.b;
    const double v1 = iv.a * static_cast<double>(hi - 1) + iv.b;
    out->min = std::min({out->min, v0, v1});
    out->max = std::max({out->max, v0, v1});
    return;
  }

  if (!needs_scan) {
    // Base-mapped linear interval: prefix sums over the base snapshot.
    const size_t xs = static_cast<size_t>(iv.shift) + lo;
    const PrefixSums& ps = chunk.base->sums;
    const double sx = ps.RangeSum(xs, len);
    const double sx2 = ps.RangeSumSquares(xs, len);
    const double flen = static_cast<double>(len);
    out->sum += iv.a * sx + iv.b * flen;
    out->sumsq += iv.a * iv.a * sx2 + 2.0 * iv.a * iv.b * sx +
                  iv.b * iv.b * flen;
    // Min/max require the base extremes over the segment: O(1) from the
    // version's sparse table when indexing is on, a short scan (at most
    // ~2W values) on the legacy path. Both produce the identical
    // extremes — min/max are order-insensitive — so the toggle never
    // changes an answer, only its cost.
    double mn;
    double mx;
    if (!chunk.base->minmax.empty()) {
      mn = chunk.base->minmax.Min(xs, len);
      mx = chunk.base->minmax.Max(xs, len);
    } else {
      const auto& x = chunk.base->values;
      mn = std::numeric_limits<double>::infinity();
      mx = -mn;
      for (size_t i = 0; i < len; ++i) {
        mn = std::min(mn, x[xs + i]);
        mx = std::max(mx, x[xs + i]);
      }
    }
    const double v0 = iv.a * mn + iv.b;
    const double v1 = iv.a * mx + iv.b;
    out->min = std::min({out->min, v0, v1});
    out->max = std::max({out->max, v0, v1});
    return;
  }

  // Quadratic encodings: direct scan (sum of x^3/x^4 moments is not
  // worth the bookkeeping for this rare mode).
  for (size_t i = lo; i < hi; ++i) {
    double v;
    if (fallback) {
      const double tt = static_cast<double>(i);
      v = iv.a * tt + iv.b + iv.c * tt * tt;
    } else {
      const double xv =
          chunk.base->values[static_cast<size_t>(iv.shift) + i];
      v = iv.a * xv + iv.b + iv.c * xv * xv;
    }
    out->sum += v;
    out->sumsq += v * v;
    out->min = std::min(out->min, v);
    out->max = std::max(out->max, v);
  }
}

void HistoryView::FoldRowRange(const ChunkRecords& chunk, size_t signal,
                               size_t row_lo, size_t row_hi,
                               MomentSummary* out) const {
  size_t row_end = 0;
  const auto row =
      chunk.Row(signal, num_signals_, num_signals_ * chunk_len_, &row_end);
  // The record containing row_lo (the records tile the chunk).
  auto it = std::prev(std::upper_bound(row.begin(), row.end(), row_lo,
                                       StartsAfter));
  for (; it != row.end() && it->start < row_hi; ++it) {
    const size_t end = it + 1 != row.end() ? it[1].start : row_end;
    const size_t lo = std::max<size_t>(row_lo, it->start) - it->start;
    const size_t hi = std::min<size_t>(row_hi, end) - it->start;
    AccumulateInterval(chunk, *it, lo, hi, out);
  }
}

StatusOr<AggregateResult> HistoryView::Aggregate(size_t signal, size_t t0,
                                                 size_t t1) const {
  SBR_RETURN_IF_ERROR(CheckAggregateRange(signal, t0, t1));
  MomentSummary acc;

  const size_t c_first = t0 / chunk_len_;
  const size_t c_last = (t1 - 1) / chunk_len_;
  // Chunks fully covered by [t0, t1), as the half-open range
  // [full_lo, full_hi): these are answerable from leaf summaries alone.
  const size_t full_lo = t0 % chunk_len_ == 0 ? c_first : c_first + 1;
  const size_t full_hi = t1 % chunk_len_ == 0 ? c_last + 1 : c_last;

  if (index_.width() > 0 && full_lo < full_hi) {
    // Indexed path: walk intervals only inside the two partial boundary
    // chunks; every fully covered chunk comes from O(log n) pre-merged
    // summary nodes. Gap detection keeps the legacy ascending order: the
    // leading boundary first, then the lowest interior gap, then the
    // trailing boundary.
    if (full_lo > c_first) {
      if (IsGap(c_first)) {
        return Status::DataLoss("range touches lost chunk " +
                                std::to_string(c_first));
      }
      const size_t lo_t = t0 - c_first * chunk_len_;
      FoldRowRange(*chunks_[c_first].get(), signal,
                   signal * chunk_len_ + lo_t, (signal + 1) * chunk_len_,
                   &acc);
    }
    const MomentSummary interior = index_.Query(signal, full_lo, full_hi);
    if (interior.has_gap) {
      return Status::DataLoss(
          "range touches lost chunk " +
          std::to_string(index_.FirstGap(signal, full_lo, full_hi)));
    }
    acc.Merge(interior);
    if (full_hi <= c_last) {
      if (IsGap(c_last)) {
        return Status::DataLoss("range touches lost chunk " +
                                std::to_string(c_last));
      }
      const size_t hi_t = t1 - c_last * chunk_len_;
      FoldRowRange(*chunks_[c_last].get(), signal, signal * chunk_len_,
                   signal * chunk_len_ + hi_t, &acc);
    }
  } else {
    // Legacy scan: every chunk with at least one sample inside [t0, t1)
    // is walked interval by interval — the differential reference. A
    // range that merely abuts a gap succeeds, one with a sample inside a
    // lost chunk reports DataLoss.
    for (size_t c = c_first; c <= c_last; ++c) {
      if (IsGap(c)) {
        return Status::DataLoss("range touches lost chunk " +
                                std::to_string(c));
      }
      const size_t chunk_t0 = c * chunk_len_;
      const size_t lo_t = std::max(t0, chunk_t0) - chunk_t0;
      const size_t hi_t = std::min(t1, chunk_t0 + chunk_len_) - chunk_t0;
      FoldRowRange(*chunks_[c].get(), signal, signal * chunk_len_ + lo_t,
                   signal * chunk_len_ + hi_t, &acc);
    }
  }

  return Finish(acc);
}

Status HistoryView::CheckAggregateRange(size_t signal, size_t t0,
                                        size_t t1) const {
  if (signal >= num_signals_) {
    return Status::OutOfRange("signal " + std::to_string(signal));
  }
  if (t0 >= t1 || t1 > history_len()) {
    return Status::OutOfRange("range [" + std::to_string(t0) + ", " +
                              std::to_string(t1) + ")");
  }
  return Status::Ok();
}

Status HistoryView::CheckNoGap(size_t c_lo, size_t c_hi) const {
  for (size_t c = c_lo; c <= c_hi; ++c) {
    if (IsGap(c)) {
      return Status::DataLoss("range touches lost chunk " +
                              std::to_string(c));
    }
  }
  return Status::Ok();
}

void HistoryView::DecodeRows(const ChunkRecords& chunk, size_t signal,
                             size_t row_lo, size_t row_hi,
                             double* out) const {
  std::span<const double> x;
  if (chunk.base != nullptr) x = chunk.base->values;
  size_t row_end = 0;
  const auto row =
      chunk.Row(signal, num_signals_, num_signals_ * chunk_len_, &row_end);
  core::ReconstructRange(x, row, row_end, row_lo, row_hi, out);
}

StatusOr<double> HistoryView::Value(size_t signal, size_t t) const {
  // t + 1 wraps for the largest t, which the range check then rejects.
  SBR_RETURN_IF_ERROR(CheckAggregateRange(signal, t, t + 1));
  const size_t c = t / chunk_len_;
  SBR_RETURN_IF_ERROR(CheckNoGap(c, c));
  // One search of the signal's records and one evaluation of the sample
  // formula: what ReconstructRange does for a one-sample range.
  const ChunkRecords& chunk = *chunks_[c].get();
  const size_t pos = signal * chunk_len_ + t % chunk_len_;
  size_t row_end = 0;
  const auto row =
      chunk.Row(signal, num_signals_, num_signals_ * chunk_len_, &row_end);
  const core::IntervalRecord& iv =
      *std::prev(std::upper_bound(row.begin(), row.end(), pos, StartsAfter));
  std::span<const double> x;
  if (chunk.base != nullptr) x = chunk.base->values;
  return core::IntervalSample(x, iv, pos - iv.start);
}

StatusOr<std::vector<double>> HistoryView::QueryRange(size_t signal,
                                                      size_t t0,
                                                      size_t t1) const {
  if (signal >= num_signals_) {
    return Status::OutOfRange("signal " + std::to_string(signal));
  }
  if (t0 > t1 || t1 > history_len()) {
    return Status::OutOfRange("range [" + std::to_string(t0) + ", " +
                              std::to_string(t1) + ") of " +
                              std::to_string(history_len()));
  }
  if (t0 == t1) return std::vector<double>();
  // Only chunks with at least one sample inside [t0, t1) are touched: a
  // range that merely abuts a gap succeeds, while any range with a sample
  // inside a gap reports DataLoss.
  SBR_RETURN_IF_ERROR(CheckNoGap(t0 / chunk_len_, (t1 - 1) / chunk_len_));
  std::vector<double> out(t1 - t0);
  double* dst = out.data();
  for (size_t t = t0; t < t1;) {
    const size_t c = t / chunk_len_;
    const size_t offset = t % chunk_len_;
    const size_t take = std::min(chunk_len_ - offset, t1 - t);
    const size_t row = signal * chunk_len_ + offset;
    DecodeRows(*chunks_[c].get(), signal, row, row + take, dst);
    dst += take;
    t += take;
  }
  return out;
}

StatusOr<linalg::Matrix> HistoryView::Chunk(size_t c) const {
  if (c >= chunks_.size()) {
    return Status::OutOfRange("chunk " + std::to_string(c));
  }
  if (IsGap(c)) {
    return Status::DataLoss("chunk " + std::to_string(c) + " was lost");
  }
  std::vector<double> flat(num_signals_ * chunk_len_);
  for (size_t s = 0; s < num_signals_; ++s) {
    DecodeRows(*chunks_[c].get(), s, s * chunk_len_, (s + 1) * chunk_len_,
               flat.data() + s * chunk_len_);
  }
  return linalg::Matrix(num_signals_, chunk_len_, std::move(flat));
}

StatusOr<AggregateResult> HistoryView::AggregateExact(size_t signal,
                                                      size_t t0,
                                                      size_t t1) const {
  SBR_RETURN_IF_ERROR(CheckAggregateRange(signal, t0, t1));
  auto samples = QueryRange(signal, t0, t1);
  if (!samples.ok()) return samples.status();
  MomentSummary acc;
  FoldValues(samples->data(), samples->size(), &acc);
  return Finish(acc);
}

}  // namespace sbr::storage
