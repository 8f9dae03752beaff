// history_query: reads dominate. Sixteen sensors whose long histories
// (with declared gaps) are ingested into an in-memory station during
// set-up (and again, untimed, before each later pass) serve one
// closed-loop analyst sending a fixed mix: wide chunk-aligned aggregates (the
// moment-index path), narrow unaligned aggregates (the boundary walk),
// repeated dashboard windows that fit in the LRU cache, points and short
// reconstructs, and ranges touching a gap whose DataLoss answer is the
// expected outcome. After every kQueriesPerWrite queries one new frame per
// sensor is ingested, so epoch publish and cache invalidation run
// alongside the reads: a change that speeds reads but slows publish (or
// the reverse) shows here.
#include <algorithm>
#include <cmath>

#include "fleet.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using sbr::Status;
namespace net = sbr::net;

// Sixteen sensors, not four: SSE is dominated by per-sensor weather
// (cloud regimes drive the solar channel), and its seed-to-seed spread
// falls with the number of sensors far faster than with history length.
// The sizes and the read/write ratio are assumptions, not measurements of
// real analyst traffic; perfbench/README.md lists where each comes from.
constexpr size_t kSensors = 16;
constexpr size_t kHistoryChunks = 600;   ///< pre-ingested before each pass
constexpr size_t kWriteRounds = 160;     ///< one frame per sensor per round
constexpr size_t kQueriesPerWrite = 10000;
constexpr size_t kQueryListSize = 8192;  ///< cycled by the client
constexpr size_t kDashboardWindows = 32;
constexpr size_t kVerifiedQueries = 512;
constexpr size_t kRecoveryRepeats = 9;
constexpr Geometry kGeometry{6, 128, 256, 6 * 128 / 10};

// Three gaps per sensor inside the pre-ingested history, staggered across
// sensors (every gap-free segment is at least 24 chunks long); the
// written rounds are gap-free.
bool Lost(uint32_t sensor, size_t chunk) {
  return chunk < kHistoryChunks && chunk % 200 == 100 + 5 * sensor;
}

struct Query {
  enum Kind { kWide, kNarrow, kDashboard, kPoint, kReconstruct, kGap };
  Kind kind = kWide;
  uint32_t sensor = 0;
  size_t signal = 0;
  size_t t0 = 0;
  size_t t1 = 0;
};

/// A gap-free run of chunks [lo, hi).
struct Segment {
  size_t lo = 0;
  size_t hi = 0;
};

std::vector<Segment> Segments(uint32_t sensor) {
  std::vector<Segment> out;
  size_t lo = 0;
  for (size_t c = 0; c < kHistoryChunks; ++c) {
    if (!Lost(sensor, c)) continue;
    out.push_back({lo, c});
    lo = c + 1;
  }
  out.push_back({lo, kHistoryChunks});
  return out;
}

size_t Uniform(sbr::Rng* rng, size_t lo, size_t hi) {
  return static_cast<size_t>(
      rng->UniformInt(static_cast<int64_t>(lo), static_cast<int64_t>(hi)));
}

std::vector<Query> MakeQueries(uint64_t seed) {
  const size_t m = kGeometry.chunk_len;
  sbr::Rng rng(DeriveSeed(seed, 1u << 20));
  std::vector<std::vector<Segment>> segments;
  for (uint32_t id = 0; id < kSensors; ++id) segments.push_back(Segments(id));
  auto pick = [&](Query* q) -> const Segment& {
    q->sensor = static_cast<uint32_t>(Uniform(&rng, 0, kSensors - 1));
    q->signal = Uniform(&rng, 0, kGeometry.num_signals - 1);
    const auto& segs = segments[q->sensor];
    return segs[Uniform(&rng, 0, segs.size() - 1)];
  };
  std::vector<Query> dashboard(kDashboardWindows);
  for (Query& q : dashboard) {
    const Segment& seg = pick(&q);
    const size_t span = Uniform(&rng, 4, std::min<size_t>(32, seg.hi - seg.lo));
    const size_t c0 = Uniform(&rng, seg.lo, seg.hi - span);
    q.kind = Query::kDashboard;
    q.t0 = c0 * m;
    q.t1 = (c0 + span) * m;
  }
  // Equal shares for the five kinds of query the workload names (points
  // and short reconstructs share one fifth, as bench_query's mixed mix
  // weighs them equally): no source gives a real analyst's mix.
  std::vector<Query> out(kQueryListSize);
  for (Query& q : out) {
    const size_t u = Uniform(&rng, 0, 99);
    if (u >= 40 && u < 60) {
      q = dashboard[Uniform(&rng, 0, kDashboardWindows - 1)];
      continue;
    }
    const Segment& seg = pick(&q);
    if (u < 20) {
      q.kind = Query::kWide;
      const size_t len = seg.hi - seg.lo;
      const size_t span =
          Uniform(&rng, std::min<size_t>(64, len), std::min<size_t>(256, len));
      const size_t c0 = Uniform(&rng, seg.lo, seg.hi - span);
      q.t0 = c0 * m;
      q.t1 = (c0 + span) * m;
    } else if (u < 40) {
      q.kind = Query::kNarrow;
      const size_t len = Uniform(&rng, 2, 2 * m);
      q.t0 = Uniform(&rng, seg.lo * m, seg.hi * m - len);
      q.t1 = q.t0 + len;
    } else if (u < 70) {
      q.kind = Query::kPoint;
      q.t0 = Uniform(&rng, seg.lo * m, seg.hi * m - 1);
      q.t1 = q.t0 + 1;
    } else if (u < 80) {
      q.kind = Query::kReconstruct;
      const size_t len = Uniform(&rng, 16, m);
      q.t0 = Uniform(&rng, seg.lo * m, seg.hi * m - len);
      q.t1 = q.t0 + len;
    } else {
      // A range reaching into the gap that closes this segment (or opens
      // the next one for the final segment).
      q.kind = Query::kGap;
      const size_t gap = seg.hi < kHistoryChunks ? seg.hi : seg.lo - 1;
      q.t0 = gap * m - Uniform(&rng, 1, 4 * m);
      q.t1 = (gap + 1) * m + Uniform(&rng, 0, 4 * m);
    }
  }
  return out;
}

bool Near(double got, double want, double scale) {
  return std::abs(got - want) <= scale;
}

class HistoryQuery : public Workload {
 public:
  explicit HistoryQuery(std::string dir) : dir_(std::move(dir)) {
    for (uint32_t i = 0; i < kSensors; ++i) sensors_.push_back(i);
  }

  size_t setup_repeats() const override { return 5; }

  Status Setup(uint64_t seed) override {
    feeds_.clear();
    history_frames_.clear();
    write_frames_.assign(kWriteRounds, {});
    encode_ = EncodeTotals();
    for (uint32_t id : sensors_) {
      feeds_.push_back(
          SensorFeed(seed, id, kGeometry, kHistoryChunks + kWriteRounds));
      std::vector<WireFrame> frames;
      SBR_RETURN_IF_ERROR(PreEncode(
          id, feeds_.back(), kGeometry,
          [id](size_t c) { return Lost(id, c); }, &encode_, &frames));
      for (WireFrame& f : frames) {
        if (f.chunk < kHistoryChunks) {
          history_frames_.push_back(std::move(f));
        } else {
          write_frames_[f.chunk - kHistoryChunks].push_back(std::move(f));
        }
      }
    }
    queries_ = MakeQueries(seed);
    return Ingest();
  }

  Status RunPass(const PassOptions& options, PassResult* out,
                 Checks* checks) override;
  Status Verify(Checks* checks) override;
  Status MeasureRecovery(HostSpeed* speed, RecoveryResult* out,
                         Checks* checks) override;

 private:
  /// Pre-ingests the history into a fresh in-memory station (untraced).
  Status Ingest() {
    sbr::obs::EnabledScope untraced(false);
    rig_ = StationRig::Open("", kGeometry.m_base);
    return Feed(history_frames_, rig_.get());
  }

  static Status Feed(const std::vector<WireFrame>& frames, StationRig* rig) {
    for (const WireFrame& f : frames) {
      auto ack = rig->station().ReceiveBytes(f.bytes);
      if (!ack.ok()) return ack.status();
      if (ack->type != net::AckType::kAccept) {
        return Status::Internal("frame not accepted");
      }
    }
    return Status::Ok();
  }

  std::string dir_;
  std::vector<uint32_t> sensors_;
  std::vector<sbr::datagen::Dataset> feeds_;
  std::vector<WireFrame> history_frames_;
  std::vector<std::vector<WireFrame>> write_frames_;
  std::vector<Query> queries_;
  EncodeTotals encode_;
  std::unique_ptr<StationRig> rig_;
  std::vector<uint64_t> live_answers_;
};

Status HistoryQuery::RunPass(const PassOptions& options, PassResult* out,
                             Checks* checks) {
  if (rig_ == nullptr) SBR_RETURN_IF_ERROR(Ingest());
  sbr::storage::QueryService& service = rig_->service();
  const double n = static_cast<double>(kGeometry.values_per_chunk());
  double excluded_s = 0.0;
  size_t next = 0;
  const auto pass_start = Clock::now();
  for (size_t round = 0; round < kWriteRounds; ++round) {
    for (size_t k = 0; k < kQueriesPerWrite; ++k) {
      const Query& q = queries_[next];
      next = (next + 1) % queries_.size();
      switch (q.kind) {
        case Query::kPoint: {
          auto r = TimedCall(span::kPoint, &out->query, [&] {
            return service.Point(q.sensor, q.signal, q.t0);
          });
          checks->ExpectOk(r.status(), "point query");
          break;
        }
        case Query::kReconstruct: {
          auto r = TimedCall(span::kReconstruct, &out->query, [&] {
            return service.Reconstruct(q.sensor, q.signal, q.t0, q.t1);
          });
          checks->ExpectOk(r.status(), "reconstruct query");
          break;
        }
        default: {
          auto r = TimedCall(span::kAggregate, &out->query, [&] {
            return service.Aggregate(q.sensor, q.signal, q.t0, q.t1);
          });
          if (q.kind == Query::kGap) {
            checks->Expect(
                r.status().code() == sbr::StatusCode::kDataLoss,
                "a range touching a gap answers DataLoss");
          } else {
            checks->ExpectOk(r.status(), "aggregate query");
          }
        }
      }
    }
    for (const WireFrame& f : write_frames_[round]) {
      auto ack = TimedCall(span::kStationRx, &out->visible, [&] {
        return rig_->station().ReceiveBytes(f.bytes);
      });
      out->visible_values += n;
      checks->Expect(ack.ok() && ack->type == net::AckType::kAccept,
                     "station accepts every written frame");
    }
    excluded_s += options.between();
  }
  out->seconds += SecondsSince(pass_start) - excluded_s;
  out->ingested_frames += kSensors * kWriteRounds;
  if (!options.exact) {
    rig_.reset();
    return Status::Ok();
  }

  std::vector<const WireFrame*> fed;
  for (const WireFrame& f : history_frames_) fed.push_back(&f);
  for (const auto& round : write_frames_) {
    for (const WireFrame& f : round) fed.push_back(&f);
  }
  return ScoreFedPass(fed, sensors_, feeds_, kHistoryChunks + kWriteRounds,
                      kGeometry, encode_, &rig_, &live_answers_, &out->exact);
}

Status HistoryQuery::MeasureRecovery(HostSpeed* speed, RecoveryResult* out,
                                     Checks* checks) {
  // The timed phases keep no durable logs, so the logs the restart reads
  // are written here, outside them, from the frames the pass fed in the
  // pass's order.
  {
    sbr::obs::EnabledScope untraced(false);
    auto durable = StationRig::Open(dir_, kGeometry.m_base);
    SBR_RETURN_IF_ERROR(Feed(history_frames_, durable.get()));
    for (const auto& round : write_frames_) {
      SBR_RETURN_IF_ERROR(Feed(round, durable.get()));
    }
  }
  std::unique_ptr<sbr::storage::QueryService> replayed;
  SBR_RETURN_IF_ERROR(TimeRecovery(dir_, sensors_, kGeometry.m_base,
                                   kRecoveryRepeats, speed, out, &replayed));
  checks->Expect(AnswerSample(*replayed, sensors_) == live_answers_,
                 "replayed logs answer the query sample like the live "
                 "service, at equal epochs");
  return Status::Ok();
}

Status HistoryQuery::Verify(Checks* checks) {
  SBR_RETURN_IF_ERROR(Ingest());
  const sbr::storage::QueryService& service = rig_->service();
  // Every query of the list that touches a gap answers DataLoss, and so
  // does every gap chunk itself.
  for (const Query& q : queries_) {
    if (q.kind != Query::kGap) continue;
    checks->Expect(service.Aggregate(q.sensor, q.signal, q.t0, q.t1)
                           .status()
                           .code() == sbr::StatusCode::kDataLoss,
                   "gap-touching aggregate answers DataLoss");
    checks->Expect(service.Reconstruct(q.sensor, q.signal, q.t0, q.t1)
                           .status()
                           .code() == sbr::StatusCode::kDataLoss,
                   "gap-touching reconstruct answers DataLoss");
  }
  const size_t m = kGeometry.chunk_len;
  for (uint32_t id : sensors_) {
    for (size_t c = 0; c < kHistoryChunks; ++c) {
      if (!Lost(id, c)) continue;
      checks->Expect(service.Aggregate(id, 0, c * m, (c + 1) * m)
                             .status()
                             .code() == sbr::StatusCode::kDataLoss,
                     "a gap chunk answers DataLoss");
    }
  }
  // A fixed answer sample against the exact oracle, at the query-oracle
  // suite's tolerances.
  for (size_t i = 0; i < kVerifiedQueries; ++i) {
    const Query& q = queries_[i];
    auto snap = service.Snapshot(q.sensor);
    if (!checks->Expect(snap != nullptr, "sensor has a snapshot")) continue;
    if (q.kind == Query::kPoint) {
      auto point = service.Point(q.sensor, q.signal, q.t0);
      auto range = service.Reconstruct(q.sensor, q.signal, q.t0, q.t0 + 1);
      if (checks->ExpectOk(point.status(), "point answers") &&
          checks->ExpectOk(range.status(), "one-sample reconstruct answers")) {
        const double want = (*range)[0];
        checks->Expect(Near(*point, want, 1e-9 * (std::abs(want) + 1.0)),
                       "Point(t) matches Reconstruct(t, t+1)");
      }
      continue;
    }
    if (q.kind == Query::kGap || q.kind == Query::kReconstruct) continue;
    auto got = service.Aggregate(q.sensor, q.signal, q.t0, q.t1);
    auto want = snap->history.AggregateExact(q.signal, q.t0, q.t1);
    if (!checks->ExpectOk(got.status(), "aggregate answers") ||
        !checks->ExpectOk(want.status(), "exact aggregate answers")) {
      continue;
    }
    const double count = static_cast<double>(want->count);
    const double mean_sq = want->avg * want->avg;
    checks->Expect(got->count == want->count, "aggregate count is exact");
    checks->Expect(
        Near(got->sum, want->sum, 1e-9 * (std::abs(want->sum) + count)),
        "aggregate sum within oracle tolerance");
    checks->Expect(
        Near(got->avg, want->avg, 1e-9 * (std::abs(want->avg) + 1.0)),
        "aggregate avg within oracle tolerance");
    checks->Expect(Near(got->variance, want->variance,
                        1e-8 * (want->variance + 2.0 * mean_sq + 1.0)),
                   "aggregate variance within oracle tolerance");
    checks->Expect(
        Near(got->min, want->min, 1e-9 * (std::abs(want->min) + 1.0)),
        "aggregate min within oracle tolerance");
    checks->Expect(
        Near(got->max, want->max, 1e-9 * (std::abs(want->max) + 1.0)),
        "aggregate max within oracle tolerance");
  }
  rig_.reset();
  return Status::Ok();
}

}  // namespace

std::unique_ptr<Workload> MakeHistoryQuery(const std::string& work_dir) {
  return std::make_unique<HistoryQuery>(work_dir);
}

}  // namespace perfbench
