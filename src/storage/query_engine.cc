#include "storage/query_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

StatusOr<CompressedHistory> CompressedHistory::FromLog(const ChunkLog& log,
                                                       size_t m_base,
                                                       IndexOptions index) {
  CompressedHistory history(m_base, index);
  SBR_RETURN_IF_ERROR(ReplayInto(log, &history));
  return history;
}

CompressedHistory CompressedHistory::Frozen() const {
  // The copy never ingests, so its (empty) mirror needs no m_base.
  CompressedHistory out(0, index_options_);
  out.frozen_ = true;
  out.num_signals_ = num_signals_;
  out.chunk_len_ = chunk_len_;
  out.num_gaps_ = num_gaps_;
  out.current_base_ = current_base_;
  out.num_base_versions_ = num_base_versions_;
  out.chunks_ = chunks_;
  out.index_ = index_;
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

void CompressedHistory::AppendIndexLeaves(const ChunkRep* chunk) {
  if (!index_options_.enabled || num_signals_ == 0) return;
  if (index_.empty()) {
    index_.assign(num_signals_, MomentIndex{});
    // Every chunk on the timeline before the first successful ingest is
    // a loss gap (geometry was unknown); backfill their leaves so index
    // positions equal chunk indices.
    for (size_t c = 0; c + 1 < chunks_.size(); ++c) {
      for (MomentIndex& idx : index_) idx.Append(MomentSummary::Gap());
    }
  }
  for (size_t s = 0; s < num_signals_; ++s) {
    MomentSummary leaf;
    if (chunk == nullptr) {
      leaf = MomentSummary::Gap();
    } else {
      FoldRowRange(*chunk, s * chunk_len_, (s + 1) * chunk_len_, &leaf);
    }
    index_[s].Append(leaf);
  }
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
  auto intervals = core::ResolveIntervals(
      t.intervals, t.TotalSamples(), base ? base->values.size() : 0,
      core::DecoderOptions{}.max_chunk_samples);
  if (!intervals.ok()) return intervals.status();
  if (num_signals_ == 0) {
    num_signals_ = t.num_signals;
    chunk_len_ = t.chunk_len;
  }
  ChunkRep rep;
  rep.intervals = std::move(intervals).value();
  rep.base = base;
  chunks_.push_back(std::make_shared<const ChunkRep>(std::move(rep)));
  AppendIndexLeaves(chunks_.back().get());
  return Status::Ok();
}

void CompressedHistory::MarkGap(size_t chunks) {
  for (size_t i = 0; i < chunks; ++i) {
    chunks_.push_back(nullptr);
    // Index structures exist only once geometry is known; earlier gaps
    // are backfilled by the first AppendIndexLeaves.
    if (index_options_.enabled && !index_.empty()) {
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

void CompressedHistory::AccumulateInterval(const ChunkRep& chunk,
                                           const core::Interval& iv,
                                           size_t lo, size_t hi,
                                           MomentSummary* out) const {
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

void CompressedHistory::FoldRowRange(const ChunkRep& chunk, size_t row_lo,
                                     size_t row_hi,
                                     MomentSummary* out) const {
  // First interval containing row_lo (intervals tile the chunk).
  auto it = std::upper_bound(
      chunk.intervals.begin(), chunk.intervals.end(), row_lo,
      [](size_t pos, const core::Interval& iv) { return pos < iv.start; });
  --it;
  for (; it != chunk.intervals.end() && it->start < row_hi; ++it) {
    const size_t lo = std::max<size_t>(row_lo, it->start) - it->start;
    const size_t hi =
        std::min<size_t>(row_hi, it->start + it->length) - it->start;
    AccumulateInterval(chunk, *it, lo, hi, out);
  }
}

StatusOr<AggregateResult> CompressedHistory::Aggregate(size_t signal,
                                                       size_t t0,
                                                       size_t t1) const {
  SBR_RETURN_IF_ERROR(CheckAggregateRange(signal, t0, t1));
  MomentSummary acc;

  const size_t c_first = t0 / chunk_len_;
  const size_t c_last = (t1 - 1) / chunk_len_;
  // Chunks fully covered by [t0, t1), as the half-open range
  // [full_lo, full_hi): these are answerable from leaf summaries alone.
  const size_t full_lo = t0 % chunk_len_ == 0 ? c_first : c_first + 1;
  const size_t full_hi = t1 % chunk_len_ == 0 ? c_last + 1 : c_last;

  if (index_options_.enabled && !index_.empty() && full_lo < full_hi) {
    // Indexed path: walk intervals only inside the two partial boundary
    // chunks; every fully covered chunk comes from O(log n) pre-merged
    // summary nodes. Gap detection keeps the legacy ascending order: the
    // leading boundary first, then the lowest interior gap, then the
    // trailing boundary.
    if (full_lo > c_first) {
      if (chunks_[c_first] == nullptr) {
        return Status::DataLoss("range touches lost chunk " +
                                std::to_string(c_first));
      }
      const size_t lo_t = t0 - c_first * chunk_len_;
      FoldRowRange(*chunks_[c_first], signal * chunk_len_ + lo_t,
                   (signal + 1) * chunk_len_, &acc);
    }
    const MomentSummary interior = index_[signal].Query(full_lo, full_hi);
    if (interior.has_gap) {
      return Status::DataLoss(
          "range touches lost chunk " +
          std::to_string(index_[signal].FirstGap(full_lo, full_hi)));
    }
    acc.Merge(interior);
    if (full_hi <= c_last) {
      if (chunks_[c_last] == nullptr) {
        return Status::DataLoss("range touches lost chunk " +
                                std::to_string(c_last));
      }
      const size_t hi_t = t1 - c_last * chunk_len_;
      FoldRowRange(*chunks_[c_last], signal * chunk_len_,
                   signal * chunk_len_ + hi_t, &acc);
    }
  } else {
    // Legacy scan: every chunk with at least one sample inside [t0, t1)
    // is walked interval by interval — the differential reference. A
    // range that merely abuts a gap succeeds, one with a sample inside a
    // lost chunk reports DataLoss.
    for (size_t c = c_first; c <= c_last; ++c) {
      if (chunks_[c] == nullptr) {
        return Status::DataLoss("range touches lost chunk " +
                                std::to_string(c));
      }
      const size_t chunk_t0 = c * chunk_len_;
      const size_t lo_t = std::max(t0, chunk_t0) - chunk_t0;
      const size_t hi_t = std::min(t1, chunk_t0 + chunk_len_) - chunk_t0;
      FoldRowRange(*chunks_[c], signal * chunk_len_ + lo_t,
                   signal * chunk_len_ + hi_t, &acc);
    }
  }

  return Finish(acc);
}

Status CompressedHistory::CheckAggregateRange(size_t signal, size_t t0,
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

Status CompressedHistory::CheckNoGap(size_t c_lo, size_t c_hi) const {
  for (size_t c = c_lo; c <= c_hi; ++c) {
    if (IsGap(c)) {
      return Status::DataLoss("range touches lost chunk " +
                              std::to_string(c));
    }
  }
  return Status::Ok();
}

void CompressedHistory::DecodeRows(const ChunkRep& chunk, size_t row_lo,
                                   size_t row_hi, double* out) {
  std::span<const double> x;
  if (chunk.base != nullptr) x = chunk.base->values;
  core::ReconstructRange(x, chunk.intervals, row_lo, row_hi, out);
}

StatusOr<double> CompressedHistory::Value(size_t signal, size_t t) const {
  // t + 1 wraps for the largest t, which the range check then rejects.
  SBR_RETURN_IF_ERROR(CheckAggregateRange(signal, t, t + 1));
  const size_t c = t / chunk_len_;
  SBR_RETURN_IF_ERROR(CheckNoGap(c, c));
  const size_t row = signal * chunk_len_ + t % chunk_len_;
  double v = 0.0;
  DecodeRows(*chunks_[c], row, row + 1, &v);
  return v;
}

StatusOr<std::vector<double>> CompressedHistory::QueryRange(size_t signal,
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
    DecodeRows(*chunks_[c], row, row + take, dst);
    dst += take;
    t += take;
  }
  return out;
}

StatusOr<linalg::Matrix> CompressedHistory::Chunk(size_t c) const {
  if (c >= chunks_.size()) {
    return Status::OutOfRange("chunk " + std::to_string(c));
  }
  if (IsGap(c)) {
    return Status::DataLoss("chunk " + std::to_string(c) + " was lost");
  }
  std::vector<double> flat(num_signals_ * chunk_len_);
  DecodeRows(*chunks_[c], 0, flat.size(), flat.data());
  return linalg::Matrix(num_signals_, chunk_len_, std::move(flat));
}

StatusOr<AggregateResult> CompressedHistory::AggregateExact(size_t signal,
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
