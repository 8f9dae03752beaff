#include "storage/decoded_history.h"

#include <algorithm>
#include <cmath>

namespace sbr::storage {
namespace {

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

}  // namespace

StatusOr<DecodedHistory> DecodedHistory::FromLog(const ChunkLog& log,
                                                 size_t m_base) {
  DecodedHistory store(m_base);
  SBR_RETURN_IF_ERROR(ReplayInto(log, &store));
  return store;
}

Status DecodedHistory::Ingest(const core::Transmission& t) {
  if (!t.signal_lengths.empty()) {
    return Status::Unimplemented(
        "multi-rate chunks are not indexable by the history store");
  }
  // The geometry is fixed by the first accepted chunk; a rejected one
  // fixes nothing (the same rule, and the same checks, as
  // CompressedHistory::Ingest).
  if (num_signals_ != 0) {
    if (t.num_signals != num_signals_ || t.chunk_len != chunk_len_) {
      return Status::FailedPrecondition("transmission geometry changed");
    }
  } else if (t.num_signals == 0 || t.chunk_len == 0) {
    return Status::DataLoss("transmission header has zero geometry");
  }
  auto decoded = decoder_.DecodeChunk(t);
  if (!decoded.ok()) return decoded.status();
  if (num_signals_ == 0) {
    num_signals_ = t.num_signals;
    chunk_len_ = t.chunk_len;
  }
  chunks_.push_back(std::make_shared<const std::vector<double>>(
      std::move(decoded).value()));
  AppendIndexLeaves(chunks_.back().get());
  return Status::Ok();
}

void DecodedHistory::AppendIndexLeaves(const std::vector<double>* values) {
  if (num_signals_ == 0) return;
  if (index_.empty()) {
    index_.assign(num_signals_, MomentIndex{});
    // Chunks recorded before the first successful ingest are all gaps
    // (geometry was unknown); backfill so index positions equal chunk
    // indices.
    for (size_t c = 0; c + 1 < chunks_.size(); ++c) {
      for (MomentIndex& idx : index_) idx.Append(MomentSummary::Gap());
    }
  }
  for (size_t s = 0; s < num_signals_; ++s) {
    MomentSummary leaf;
    if (values == nullptr) {
      leaf = MomentSummary::Gap();
    } else {
      FoldValues(values->data() + s * chunk_len_, chunk_len_, &leaf);
    }
    index_[s].Append(leaf);
  }
}

void DecodedHistory::MarkGap(size_t chunks) {
  for (size_t i = 0; i < chunks; ++i) {
    chunks_.push_back(nullptr);
    if (!index_.empty()) AppendIndexLeaves(nullptr);
  }
  num_gaps_ += chunks;
}

Status DecodedHistory::ApplySnapshot(const core::BaseSnapshot& snapshot) {
  return decoder_.ApplySnapshot(snapshot);
}

StatusOr<std::vector<double>> DecodedHistory::QueryRange(size_t signal,
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
  std::vector<double> out;
  out.reserve(t1 - t0);
  // Chunk-wise walk. Only chunks with at least one sample inside [t0, t1)
  // are touched: a range that merely abuts a gap (ends exactly where the
  // gap starts, or starts exactly where it ends) succeeds, while any range
  // with a sample inside a gap reports DataLoss.
  for (size_t t = t0; t < t1;) {
    const size_t c = t / chunk_len_;
    if (IsGap(c)) {
      return Status::DataLoss("range touches lost chunk " +
                              std::to_string(c));
    }
    const size_t offset = t % chunk_len_;
    const size_t take = std::min(chunk_len_ - offset, t1 - t);
    const std::vector<double>& flat = *chunks_[c];
    const double* row = flat.data() + signal * chunk_len_ + offset;
    out.insert(out.end(), row, row + take);
    t += take;
  }
  return out;
}

StatusOr<AggregateResult> DecodedHistory::AggregateExact(size_t signal,
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
  const size_t full_lo = t0 % chunk_len_ == 0 ? c_first : c_first + 1;
  const size_t full_hi = t1 % chunk_len_ == 0 ? c_last + 1 : c_last;

  // Leading partial chunk, interior from the index, trailing partial
  // chunk — the same decomposition as the compressed engine's indexed
  // path, with raw-sample scans where that one walks intervals.
  if (full_lo > c_first || full_lo >= full_hi) {
    if (IsGap(c_first)) {
      return Status::DataLoss("range touches lost chunk " +
                              std::to_string(c_first));
    }
    const size_t lo_t = t0 - c_first * chunk_len_;
    const size_t hi_t =
        std::min(t1 - c_first * chunk_len_, chunk_len_);
    FoldValues(chunks_[c_first]->data() + signal * chunk_len_ + lo_t,
               hi_t - lo_t, &acc);
  }
  if (full_lo < full_hi) {
    const MomentSummary interior = index_[signal].Query(full_lo, full_hi);
    if (interior.has_gap) {
      return Status::DataLoss(
          "range touches lost chunk " +
          std::to_string(index_[signal].FirstGap(full_lo, full_hi)));
    }
    acc.Merge(interior);
  }
  if (c_last > c_first && full_hi <= c_last) {
    if (IsGap(c_last)) {
      return Status::DataLoss("range touches lost chunk " +
                              std::to_string(c_last));
    }
    const size_t hi_t = t1 - c_last * chunk_len_;
    FoldValues(chunks_[c_last]->data() + signal * chunk_len_, hi_t, &acc);
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

StatusOr<double> DecodedHistory::QueryPoint(size_t signal, size_t t) const {
  auto range = QueryRange(signal, t, t + 1);
  if (!range.ok()) return range.status();
  return (*range)[0];
}

StatusOr<linalg::Matrix> DecodedHistory::Chunk(size_t c) const {
  if (c >= chunks_.size()) {
    return Status::OutOfRange("chunk " + std::to_string(c));
  }
  if (IsGap(c)) {
    return Status::DataLoss("chunk " + std::to_string(c) + " was lost");
  }
  return linalg::Matrix(num_signals_, chunk_len_, *chunks_[c]);
}

}  // namespace sbr::storage
