#include "core/decoder.h"

#include <algorithm>
#include <cassert>

#include "core/fixed_base.h"
#include "core/get_intervals.h"
#include "core/interval.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sbr::core {

Status ResolveIntervals(std::span<const IntervalRecord> records,
                        size_t total_len, size_t base_len,
                        size_t max_chunk_samples,
                        std::span<IntervalRecord> out) {
  if (total_len > max_chunk_samples) {
    return Status::DataLoss("chunk of " + std::to_string(total_len) +
                            " samples exceeds the decoder limit");
  }
  auto by_start = [](const IntervalRecord& a, const IntervalRecord& b) {
    return a.start < b.start;
  };
  std::copy(records.begin(), records.end(), out.begin());
  if (!std::is_sorted(out.begin(), out.end(), by_start)) {
    std::sort(out.begin(), out.end(), by_start);
  }
  if (out.empty() || out[0].start != 0) {
    return Status::DataLoss("interval records do not start at 0");
  }
  for (size_t i = 0; i < out.size(); ++i) {
    const size_t start = out[i].start;
    const size_t end = i + 1 < out.size() ? out[i + 1].start : total_len;
    if (end <= start) {
      return Status::DataLoss("interval records overlap or are empty");
    }
    const int64_t shift = out[i].shift;
    if (shift != kShiftLinearFallback &&
        (shift < 0 || static_cast<size_t>(shift) + (end - start) > base_len)) {
      return Status::DataLoss("interval shift outside the base signal");
    }
  }
  return Status::Ok();
}

void ReconstructRange(std::span<const double> x,
                      std::span<const IntervalRecord> records, size_t end,
                      size_t lo, size_t hi, double* out) {
  if (lo >= hi) return;
  // The record containing lo (the records tile the chunk).
  auto it = std::upper_bound(
      records.begin(), records.end(), lo,
      [](size_t pos, const IntervalRecord& r) { return pos < r.start; });
  assert(it != records.begin());
  --it;
  for (size_t pos = lo; pos < hi; ++it) {
    assert(it != records.end());
    const size_t stop =
        std::min<size_t>(hi, it + 1 != records.end() ? it[1].start : end);
    for (; pos < stop; ++pos) *out++ = IntervalSample(x, *it, pos - it->start);
  }
}

Status BaseMirror::Advance(const Transmission& t) {
  if (t.num_signals == 0 || t.w == 0 || t.TotalSamples() == 0) {
    return Status::DataLoss("transmission header has zero geometry");
  }
  if (!t.signal_lengths.empty() &&
      t.signal_lengths.size() != t.num_signals) {
    return Status::DataLoss("signal_lengths count mismatch");
  }
  const bool self_contained = t.base_kind == BaseKind::kNone;
  if (self_contained) {
    // A self-contained (degraded-mode) transmission references no base
    // signal, so it neither initializes nor constrains the stream's base
    // state — it is decodable at any point of any stream.
    if (!t.base_updates.empty()) {
      return Status::DataLoss("base updates present without a stored base");
    }
    return Status::Ok();
  }
  if (w_ == 0) {
    w_ = t.w;
    base_kind_ = t.base_kind;
    ++generation_;
    if (base_kind_ == BaseKind::kStored) {
      if (m_base_ < w_) {
        return Status::InvalidArgument("decoder m_base smaller than W");
      }
      base_ = BaseSignal(w_, m_base_);
    } else if (base_kind_ == BaseKind::kDctFixed) {
      dct_base_ = MakeDctFixedBase(w_);
    }
  } else if (t.w != w_) {
    return Status::DataLoss("transmission W changed mid-stream");
  } else if (t.base_kind != base_kind_) {
    return Status::DataLoss("transmission base kind changed mid-stream");
  }
  if (base_kind_ != BaseKind::kStored && !t.base_updates.empty()) {
    return Status::DataLoss("base updates present without a stored base");
  }
  for (const BaseUpdate& bu : t.base_updates) {
    SBR_RETURN_IF_ERROR(base_.Overwrite(bu.slot, bu.values));
    ++generation_;
  }
  return Status::Ok();
}

std::span<const double> BaseMirror::BaseFor(const Transmission& t) const {
  if (t.base_kind == BaseKind::kNone) return {};
  if (base_kind_ == BaseKind::kStored) return base_.values();
  if (base_kind_ == BaseKind::kDctFixed) return dct_base_;
  return {};
}

Status BaseMirror::ApplySnapshot(const BaseSnapshot& snapshot) {
  if (snapshot.w == 0) {
    // The sensor had not warmed up yet (no base signal); nothing to mirror.
    return Status::Ok();
  }
  if (w_ == 0) {
    w_ = snapshot.w;
    base_kind_ = snapshot.base_kind;
    ++generation_;
    if (base_kind_ == BaseKind::kDctFixed) {
      dct_base_ = MakeDctFixedBase(w_);
    }
  } else if (snapshot.w != w_) {
    return Status::DataLoss("snapshot W does not match the stream");
  } else if (snapshot.base_kind != base_kind_) {
    return Status::DataLoss("snapshot base kind does not match the stream");
  }
  if (base_kind_ != BaseKind::kStored) {
    if (!snapshot.slots.empty()) {
      return Status::DataLoss("snapshot slots present without a stored base");
    }
    return Status::Ok();
  }
  if (m_base_ < w_) {
    return Status::InvalidArgument("decoder m_base smaller than W");
  }
  BaseSignal rebuilt(w_, m_base_);
  for (const BaseUpdate& s : snapshot.slots) {
    SBR_RETURN_IF_ERROR(rebuilt.Overwrite(s.slot, s.values));
  }
  base_ = std::move(rebuilt);
  ++generation_;
  return Status::Ok();
}

StatusOr<std::vector<double>> SbrDecoder::DecodeChunk(const Transmission& t) {
  SBR_OBS_SPAN(decode_span, "decode.chunk");
  SBR_OBS_TIMER(decode_timer, "decode.chunk_us");
  SBR_OBS_COUNT("decode.chunks", 1);
  auto result = DecodeChunkImpl(t);
  if (result.ok()) {
    SBR_OBS_COUNT("decode.values", result->size());
  } else {
    SBR_OBS_COUNT("decode.errors", 1);
  }
  return result;
}

StatusOr<std::vector<double>> SbrDecoder::DecodeChunkImpl(
    const Transmission& t) {
  SBR_RETURN_IF_ERROR(mirror_.Advance(t));
  const std::span<const double> x = mirror_.BaseFor(t);
  const size_t total_len = t.TotalSamples();
  std::vector<IntervalRecord> records(t.intervals.size());
  SBR_RETURN_IF_ERROR(ResolveIntervals(t.intervals, total_len, x.size(),
                                       options_.max_chunk_samples, records));
  std::vector<double> out(total_len);
  ReconstructRange(x, records, total_len, 0, total_len, out.data());
  return out;
}

StatusOr<linalg::Matrix> SbrDecoder::DecodeChunkToMatrix(
    const Transmission& t) {
  auto flat = DecodeChunk(t);
  if (!flat.ok()) return flat.status();
  return linalg::Matrix(t.num_signals, t.chunk_len, std::move(flat).value());
}

}  // namespace sbr::core
