#include "core/encoder.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "core/fixed_base.h"
#include "core/search.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sbr::core {

SbrEncoder::SbrEncoder(EncoderOptions options)
    : options_(std::move(options)), workspace_(&owned_workspace_) {}

SbrEncoder::SbrEncoder(EncoderOptions options, EncodeWorkspace* workspace)
    : options_(std::move(options)),
      workspace_(workspace != nullptr ? workspace : &owned_workspace_) {}

Status SbrEncoder::ValidateGeometry(std::span<const size_t> row_lengths) {
  if (row_lengths.empty()) {
    return Status::InvalidArgument("empty chunk");
  }
  for (size_t len : row_lengths) {
    if (len == 0) return Status::InvalidArgument("zero-length signal row");
  }
  if (options_.quadratic && options_.metric != ErrorMetric::kSse) {
    return Status::InvalidArgument(
        "quadratic encoding is defined for the SSE metric only");
  }
  if (row_lengths_.empty()) {
    // First chunk fixes the geometry and derived parameters.
    row_lengths_.assign(row_lengths.begin(), row_lengths.end());
    const size_t n =
        std::accumulate(row_lengths.begin(), row_lengths.end(), size_t{0});
    w_ = options_.w != 0
             ? options_.w
             : static_cast<size_t>(std::floor(std::sqrt(
                   static_cast<double>(n))));
    if (w_ == 0) return Status::InvalidArgument("W resolved to 0");
    size_t per_interval =
        options_.base_strategy == BaseStrategy::kNone ? 3 : 4;
    if (options_.quadratic) ++per_interval;
    if (options_.total_band / per_interval < row_lengths.size()) {
      return Status::InvalidArgument(
          "total_band " + std::to_string(options_.total_band) +
          " cannot afford one interval per signal");
    }
    if (options_.base_strategy == BaseStrategy::kGetBase ||
        options_.base_strategy == BaseStrategy::kGetBaseLowMem ||
        options_.base_strategy == BaseStrategy::kCustom) {
      if (options_.m_base < w_) {
        return Status::InvalidArgument(
            "m_base " + std::to_string(options_.m_base) +
            " smaller than one base interval (W = " + std::to_string(w_) +
            ")");
      }
      base_ = BaseSignal(w_, options_.m_base, options_.eviction);
    } else if (options_.base_strategy == BaseStrategy::kDctFixed) {
      dct_base_ = MakeDctFixedBase(w_);
    }
    if (options_.base_strategy == BaseStrategy::kCustom &&
        !options_.base_provider) {
      return Status::InvalidArgument(
          "base_strategy kCustom requires base_provider");
    }
    return Status::Ok();
  }
  if (row_lengths.size() != row_lengths_.size() ||
      !std::equal(row_lengths.begin(), row_lengths.end(),
                  row_lengths_.begin())) {
    return Status::FailedPrecondition("chunk geometry changed mid-stream");
  }
  return Status::Ok();
}

std::vector<CandidateBaseInterval> SbrEncoder::BuildCandidates(
    std::span<const double> y, size_t max_ins) const {
  GetBaseOptions gb;
  gb.metric = options_.metric;
  gb.relative_floor = options_.relative_floor;
  gb.workspace = workspace_;
  switch (options_.base_strategy) {
    case BaseStrategy::kGetBase:
      return GetBaseMultiRate(y, row_lengths_, w_, max_ins, gb);
    case BaseStrategy::kGetBaseLowMem:
      // The low-memory variant requires uniform rows; multi-rate streams
      // with this strategy fall back to the full-matrix construction,
      // which selects identically (see GetBase tests).
      if (std::adjacent_find(row_lengths_.begin(), row_lengths_.end(),
                             std::not_equal_to<>()) == row_lengths_.end()) {
        return GetBaseLowMem(y, row_lengths_.size(), w_, max_ins, gb);
      }
      return GetBaseMultiRate(y, row_lengths_, w_, max_ins, gb);
    case BaseStrategy::kCustom:
      return options_.base_provider(y, row_lengths_.size(), w_, max_ins);
    case BaseStrategy::kDctFixed:
    case BaseStrategy::kNone:
      break;
  }
  return {};
}

StatusOr<Transmission> SbrEncoder::EncodeChunk(const linalg::Matrix& chunk) {
  std::vector<double> y;
  y.reserve(chunk.rows() * chunk.cols());
  for (size_t r = 0; r < chunk.rows(); ++r) {
    const auto row = chunk.Row(r);
    y.insert(y.end(), row.begin(), row.end());
  }
  return EncodeChunk(y, chunk.rows());
}

StatusOr<Transmission> SbrEncoder::EncodeChunk(std::span<const double> y,
                                               size_t num_signals) {
  if (num_signals == 0 || y.size() % num_signals != 0) {
    return Status::InvalidArgument("series length not divisible by signals");
  }
  const std::vector<size_t> lengths(num_signals, y.size() / num_signals);
  return EncodeImpl(y, lengths, /*uniform=*/true);
}

StatusOr<Transmission> SbrEncoder::EncodeChunkMultiRate(
    std::span<const double> y, std::span<const size_t> row_lengths) {
  const size_t total =
      std::accumulate(row_lengths.begin(), row_lengths.end(), size_t{0});
  if (total != y.size()) {
    return Status::InvalidArgument("row lengths do not sum to series size");
  }
  return EncodeImpl(y, row_lengths, /*uniform=*/false);
}

StatusOr<Transmission> SbrEncoder::EncodeImpl(
    std::span<const double> y, std::span<const size_t> row_lengths,
    bool uniform) {
  SBR_RETURN_IF_ERROR(ValidateGeometry(row_lengths));
  // Reject non-finite samples up front: a single NaN would otherwise
  // poison every regression downstream and surface as a nonsense
  // approximation instead of an error.
  for (size_t i = 0; i < y.size(); ++i) {
    if (!std::isfinite(y[i])) {
      return Status::InvalidArgument("non-finite sample at index " +
                                     std::to_string(i));
    }
  }

  stats_ = EncodeStats{};
  SBR_OBS_SPAN(chunk_span, "encode.chunk");
  SBR_OBS_TIMER(chunk_timer, "encode.chunk_us");
  // One workspace reset per chunk: clears the per-interval moment cache
  // (y changes). Everything downstream — GetBase scoring, search probes,
  // the final approximation — draws its scratch from this workspace.
  workspace_->BeginChunk();

  GetIntervalsOptions gi;
  gi.best_map.metric = options_.metric;
  gi.best_map.relative_floor = options_.relative_floor;
  gi.best_map.allow_linear_fallback = options_.allow_linear_fallback;
  gi.best_map.max_shift_multiple = options_.max_shift_multiple;
  gi.best_map.quadratic = options_.quadratic;
  gi.values_per_interval =
      options_.base_strategy == BaseStrategy::kNone ? 3 : 4;
  if (options_.quadratic) ++gi.values_per_interval;
  gi.error_target = options_.error_target;

  const bool stored_base =
      options_.base_strategy == BaseStrategy::kGetBase ||
      options_.base_strategy == BaseStrategy::kGetBaseLowMem ||
      options_.base_strategy == BaseStrategy::kCustom;

  // Phase 1: decide what to insert into the base signal.
  std::vector<CandidateBaseInterval> candidates;
  size_t ins = 0;
  if (stored_base && options_.update_base) {
    size_t max_ins =
        std::min(options_.m_base, options_.total_band) / w_;
    max_ins = std::min(max_ins, base_.num_slots());
    {
      SBR_OBS_SPAN(get_base_span, "encode.get_base");
      candidates = BuildCandidates(y, max_ins);
    }
    SBR_OBS_COUNT("encode.get_base.candidates", candidates.size());
    SBR_OBS_SPAN(search_span, "encode.search");
    SearchContext ctx;
    ctx.current_base = base_.values();
    ctx.candidates = &candidates;
    ctx.y = y;
    ctx.row_lengths = row_lengths_;
    ctx.w = w_;
    ctx.total_band = options_.total_band;
    ctx.get_intervals = gi;
    ctx.workspace = workspace_;
    const SearchResult sr = SearchInsertCount(ctx);
    ins = sr.ins;
    stats_.search_probes = sr.probes;
  }

  // Phase 2: place the chosen intervals (free slots first, then eviction),
  // *before* the final approximation so encoder and decoder agree on the
  // base-signal layout (DESIGN.md note 2).
  Transmission t;
  t.num_signals = static_cast<uint32_t>(row_lengths_.size());
  if (uniform) {
    t.chunk_len = static_cast<uint32_t>(row_lengths_[0]);
  } else {
    t.chunk_len = 0;
    t.signal_lengths.reserve(row_lengths_.size());
    for (size_t len : row_lengths_) {
      t.signal_lengths.push_back(static_cast<uint32_t>(len));
    }
  }
  t.w = static_cast<uint32_t>(w_);
  t.quadratic = options_.quadratic;
  switch (options_.base_strategy) {
    case BaseStrategy::kDctFixed:
      t.base_kind = BaseKind::kDctFixed;
      break;
    case BaseStrategy::kNone:
      t.base_kind = BaseKind::kNone;
      break;
    default:
      t.base_kind = BaseKind::kStored;
  }
  t.precision = options_.compact_wire ? WirePrecision::kFloat32
                                      : WirePrecision::kFloat64;
  if (ins > 0) {
    const std::vector<size_t> plan = base_.PlanPlacement(ins);
    for (size_t i = 0; i < ins; ++i) {
      std::vector<double> vals = candidates[i].values;
      if (options_.compact_wire) {
        // Round through binary32 before the values enter either side's
        // buffer, keeping the mirrors bit-identical.
        for (double& v : vals) v = static_cast<double>(static_cast<float>(v));
      }
      SBR_RETURN_IF_ERROR(base_.Overwrite(plan[i], vals));
      BaseUpdate bu;
      bu.slot = static_cast<uint32_t>(plan[i]);
      bu.values = std::move(vals);
      t.base_updates.push_back(std::move(bu));
    }
  }

  // Phase 3: approximate the chunk against the final base signal.
  std::span<const double> x;
  if (stored_base) {
    x = base_.values();
  } else if (options_.base_strategy == BaseStrategy::kDctFixed) {
    x = dct_base_;
  }
  const size_t insert_cost = ins * (w_ + 1);
  if (insert_cost >= options_.total_band) {
    return Status::Internal("insertions consumed the entire bandwidth");
  }
  const size_t budget = options_.total_band - insert_cost;
  // Rebind the workspace to the *final* base signal, then run the final
  // approximation against the shared tables. Free-slot placement makes it
  // a bitwise prefix of the search's trial buffer, so the prefix sums and
  // the shift memo carry over; eviction and compact-wire rounding change
  // placed values, so the table is rebuilt and the memo dropped.
  workspace_->SetBase(x);
  gi.best_map.workspace = workspace_;
  SBR_OBS_SPAN(approx_span, "encode.approx");
  auto approx = GetIntervalsMultiRate(x, y, row_lengths_, budget, w_, gi);
  if (!approx.ok()) return approx.status();

  for (const Interval& iv : approx->intervals) {
    if (iv.shift != kShiftLinearFallback && stored_base) {
      base_.RecordUse(static_cast<size_t>(iv.shift), iv.length);
    }
    IntervalRecord rec;
    rec.start = static_cast<uint32_t>(iv.start);
    rec.shift = static_cast<int32_t>(iv.shift);
    rec.a = iv.a;
    rec.b = iv.b;
    rec.c = iv.c;
    t.intervals.push_back(rec);
  }

  stats_.inserted_base_intervals = ins;
  stats_.num_intervals = approx->intervals.size();
  stats_.total_error = approx->total_error;
  stats_.values_used = t.ValueCount();
  stats_.workspace = workspace_->stats();
  // Registry view of the per-chunk diagnostics: the same numbers
  // EncodeStats carries, accumulated across chunks for the stage reports.
  SBR_OBS_COUNT("encode.chunks", 1);
  SBR_OBS_COUNT("encode.search_probes", stats_.search_probes);
  SBR_OBS_COUNT("encode.inserted_cbis", ins);
  SBR_OBS_COUNT("encode.intervals", stats_.num_intervals);
  SBR_OBS_COUNT("encode.workspace.moment_hits", stats_.workspace.moment_hits);
  SBR_OBS_COUNT("encode.workspace.moment_misses",
                stats_.workspace.moment_misses);
  SBR_OBS_COUNT("encode.workspace.prefix_resets",
                stats_.workspace.prefix_resets);
  SBR_OBS_COUNT("encode.workspace.prefix_appends",
                stats_.workspace.prefix_appends);
  SBR_OBS_COUNT("encode.workspace.shifts_reused",
                stats_.workspace.shifts_reused);
  SBR_OBS_HIST("encode.values_used", stats_.values_used);
  return t;
}

namespace {

bool IsStoredStrategy(BaseStrategy s) {
  return s == BaseStrategy::kGetBase || s == BaseStrategy::kGetBaseLowMem;
}

}  // namespace

Status SbrEncoder::SetBaseStrategy(BaseStrategy strategy) {
  if (!IsStoredStrategy(options_.base_strategy) ||
      !IsStoredStrategy(strategy)) {
    return Status::InvalidArgument(
        "only kGetBase <-> kGetBaseLowMem transitions keep the wire "
        "format stable");
  }
  options_.base_strategy = strategy;
  return Status::Ok();
}

void SbrEncoder::SaveState(BinaryWriter* writer) const {
  writer->PutU64(w_);
  writer->PutU8(static_cast<uint8_t>(options_.base_strategy));
  writer->PutU64(row_lengths_.size());
  for (size_t len : row_lengths_) writer->PutU64(len);
  const uint8_t has_base = base_.num_slots() > 0 ? 1 : 0;
  writer->PutU8(has_base);
  if (has_base) base_.SaveState(writer);
}

Status SbrEncoder::RestoreState(BinaryReader* reader) {
  uint64_t w = 0, num_rows = 0;
  uint8_t strategy = 0, has_base = 0;
  SBR_RETURN_IF_ERROR(reader->GetU64(&w));
  SBR_RETURN_IF_ERROR(reader->GetU8(&strategy));
  if (strategy > static_cast<uint8_t>(BaseStrategy::kNone)) {
    return Status::DataLoss("invalid base strategy in encoder state");
  }
  SBR_RETURN_IF_ERROR(reader->GetU64(&num_rows));
  std::vector<size_t> rows(num_rows);
  for (auto& len : rows) {
    uint64_t v = 0;
    SBR_RETURN_IF_ERROR(reader->GetU64(&v));
    len = v;
  }
  SBR_RETURN_IF_ERROR(reader->GetU8(&has_base));
  BaseSignal base;
  if (has_base) {
    auto loaded = BaseSignal::LoadState(reader);
    if (!loaded.ok()) return loaded.status();
    base = *std::move(loaded);
  }
  // The degraded-mode strategy travels with the checkpoint only where the
  // transition is legal; otherwise the constructed options win.
  const auto saved = static_cast<BaseStrategy>(strategy);
  if (IsStoredStrategy(saved) && IsStoredStrategy(options_.base_strategy)) {
    options_.base_strategy = saved;
  }
  w_ = w;
  row_lengths_ = std::move(rows);
  base_ = std::move(base);
  if (w_ != 0 && options_.base_strategy == BaseStrategy::kDctFixed) {
    dct_base_ = MakeDctFixedBase(w_);
  }
  return Status::Ok();
}

}  // namespace sbr::core
