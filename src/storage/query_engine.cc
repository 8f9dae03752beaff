#include "storage/query_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/fixed_base.h"

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

}  // namespace

std::shared_ptr<const CompressedHistory::BaseVersion>
CompressedHistory::BuildVersion(std::vector<double> values) const {
  auto version = std::make_shared<BaseVersion>();
  version->values = std::move(values);
  version->sums.Reset(version->values);
  // The min/max sparse table only pays for itself on the indexed path;
  // the legacy reference scans the base segment like it always did.
  if (index_options_.enabled) version->minmax.Reset(version->values);
  return version;
}

void CompressedHistory::PublishBaseVersion() {
  current_base_ = BuildVersion(
      {mirror_.values().begin(), mirror_.values().end()});
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
  if (!t.signal_lengths.empty()) {
    return Status::Unimplemented(
        "multi-rate chunks are not indexable by the query engine");
  }
  if (t.num_signals == 0 || t.chunk_len == 0 || t.w == 0) {
    return Status::DataLoss("zero geometry");
  }
  if (num_signals_ == 0) {
    num_signals_ = t.num_signals;
    chunk_len_ = t.chunk_len;
  } else if (t.num_signals != num_signals_ || t.chunk_len != chunk_len_) {
    return Status::FailedPrecondition("transmission geometry changed");
  }

  // A self-contained (degraded-mode) chunk references no base signal:
  // like the decoder, it neither initializes nor constrains the stream's
  // base state and may appear at any point of any stream.
  const bool self_contained = t.base_kind == core::BaseKind::kNone;
  if (!self_contained) {
    if (w_ == 0) {
      w_ = t.w;
      base_kind_ = t.base_kind;
      if (base_kind_ == core::BaseKind::kStored) {
        if (m_base_ < w_) {
          return Status::InvalidArgument("m_base smaller than W");
        }
        mirror_ = core::BaseSignal(w_, m_base_);
      } else if (base_kind_ == core::BaseKind::kDctFixed) {
        mirror_ = core::BaseSignal();
        current_base_ = BuildVersion(core::MakeDctFixedBase(w_));
        ++num_base_versions_;
      }
    } else if (t.w != w_ || t.base_kind != base_kind_) {
      return Status::DataLoss("transmission base geometry changed mid-stream");
    }
    if (base_kind_ == core::BaseKind::kStored &&
        (!t.base_updates.empty() || current_base_ == nullptr)) {
      for (const core::BaseUpdate& bu : t.base_updates) {
        SBR_RETURN_IF_ERROR(mirror_.Overwrite(bu.slot, bu.values));
      }
      PublishBaseVersion();
    }
  } else if (!t.base_updates.empty()) {
    return Status::DataLoss("base updates present without a stored base");
  }

  // Resolve interval records into concrete intervals.
  std::vector<core::IntervalRecord> recs = t.intervals;
  std::sort(recs.begin(), recs.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });
  const size_t total_len = static_cast<size_t>(num_signals_) * chunk_len_;
  if (recs.empty() || recs[0].start != 0) {
    return Status::DataLoss("interval records do not start at 0");
  }
  ChunkRep rep;
  // A self-contained chunk gets no base: any interval still claiming a
  // base reference is corrupt, not silently resolved against unrelated
  // state (base_len 0 rejects every non-fallback shift below).
  rep.base = self_contained ? nullptr : current_base_;
  rep.intervals.reserve(recs.size());
  const size_t base_len = rep.base ? rep.base->values.size() : 0;
  for (size_t i = 0; i < recs.size(); ++i) {
    const size_t end = i + 1 < recs.size() ? recs[i + 1].start : total_len;
    if (end <= recs[i].start) {
      return Status::DataLoss("interval records overlap or are empty");
    }
    core::Interval iv;
    iv.start = recs[i].start;
    iv.length = end - recs[i].start;
    iv.shift = recs[i].shift;
    iv.a = recs[i].a;
    iv.b = recs[i].b;
    iv.c = recs[i].c;
    if (iv.shift != core::kShiftLinearFallback &&
        (iv.shift < 0 ||
         static_cast<size_t>(iv.shift) + iv.length > base_len)) {
      return Status::DataLoss("interval shift outside the base signal");
    }
    rep.intervals.push_back(iv);
  }
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
  if (snapshot.w == 0) {
    // The sensor had not warmed up yet (no base signal); nothing to mirror.
    return Status::Ok();
  }
  if (w_ == 0) {
    w_ = snapshot.w;
    base_kind_ = snapshot.base_kind;
    if (base_kind_ == core::BaseKind::kDctFixed) {
      current_base_ = BuildVersion(core::MakeDctFixedBase(w_));
      ++num_base_versions_;
    }
  } else if (snapshot.w != w_) {
    return Status::DataLoss("snapshot W does not match the stream");
  } else if (snapshot.base_kind != base_kind_) {
    return Status::DataLoss("snapshot base kind does not match the stream");
  }
  if (base_kind_ != core::BaseKind::kStored) {
    if (!snapshot.slots.empty()) {
      return Status::DataLoss("snapshot slots present without a stored base");
    }
    return Status::Ok();
  }
  if (m_base_ < w_) {
    return Status::InvalidArgument("m_base smaller than W");
  }
  core::BaseSignal rebuilt(w_, m_base_);
  for (const core::BaseUpdate& s : snapshot.slots) {
    SBR_RETURN_IF_ERROR(rebuilt.Overwrite(s.slot, s.values));
  }
  mirror_ = std::move(rebuilt);
  PublishBaseVersion();
  return Status::Ok();
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
  if (signal >= num_signals_) {
    return Status::OutOfRange("signal " + std::to_string(signal));
  }
  if (t0 >= t1 || t1 > history_len()) {
    return Status::OutOfRange("range [" + std::to_string(t0) + ", " +
                              std::to_string(t1) + ")");
  }
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

StatusOr<double> CompressedHistory::Value(size_t signal, size_t t) const {
  auto agg = Aggregate(signal, t, t + 1);
  if (!agg.ok()) return agg.status();
  return agg->sum;
}

}  // namespace sbr::storage
