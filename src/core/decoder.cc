#include "core/decoder.h"

#include <algorithm>

#include "core/fixed_base.h"
#include "core/get_intervals.h"
#include "core/interval.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sbr::core {

StatusOr<std::vector<Interval>> ResolveIntervals(
    std::span<const IntervalRecord> records, size_t total_len,
    size_t base_len, size_t max_chunk_samples) {
  if (total_len > max_chunk_samples) {
    return Status::DataLoss("chunk of " + std::to_string(total_len) +
                            " samples exceeds the decoder limit");
  }
  // Rebuild intervals: sort by start, infer lengths from the gaps.
  std::vector<IntervalRecord> recs(records.begin(), records.end());
  std::sort(recs.begin(), recs.end(),
            [](const IntervalRecord& a, const IntervalRecord& b) {
              return a.start < b.start;
            });
  if (recs.empty() || recs[0].start != 0) {
    return Status::DataLoss("interval records do not start at 0");
  }
  std::vector<Interval> intervals;
  intervals.reserve(recs.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    const size_t end =
        i + 1 < recs.size() ? recs[i + 1].start : total_len;
    if (end <= recs[i].start) {
      return Status::DataLoss("interval records overlap or are empty");
    }
    Interval iv;
    iv.start = recs[i].start;
    iv.length = end - recs[i].start;
    iv.shift = recs[i].shift;
    iv.a = recs[i].a;
    iv.b = recs[i].b;
    iv.c = recs[i].c;
    if (iv.shift != kShiftLinearFallback) {
      if (iv.shift < 0 ||
          static_cast<size_t>(iv.shift) + iv.length > base_len) {
        return Status::DataLoss("interval shift outside the base signal");
      }
    }
    intervals.push_back(iv);
  }
  return intervals;
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
  auto intervals = ResolveIntervals(t.intervals, total_len, x.size(),
                                    options_.max_chunk_samples);
  if (!intervals.ok()) return intervals.status();
  return ReconstructFromIntervals(x, total_len, *intervals);
}

StatusOr<linalg::Matrix> SbrDecoder::DecodeChunkToMatrix(
    const Transmission& t) {
  auto flat = DecodeChunk(t);
  if (!flat.ok()) return flat.status();
  return linalg::Matrix(t.num_signals, t.chunk_len, std::move(flat).value());
}

}  // namespace sbr::core
