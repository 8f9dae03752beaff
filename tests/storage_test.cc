// Unit tests for the storage substrate: the append-only chunk log
// (including durability and torn-record recovery) and the queryable
// history store.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/encoder.h"
#include "storage/chunk_log.h"
#include "storage/history_store.h"
#include "storage/query_engine.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sbr::storage {
namespace {

core::Transmission MakeTransmission(uint32_t seed) {
  core::Transmission t;
  t.num_signals = 2;
  t.chunk_len = 16;
  t.w = 4;
  core::BaseUpdate bu;
  bu.slot = 0;
  bu.values = {1.0 + seed, 2.0, 3.0, 4.0};
  t.base_updates.push_back(bu);
  t.intervals.push_back({0, -1, 0.5, static_cast<double>(seed)});
  t.intervals.push_back({16, 0, 1.0, 0.0});
  return t;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(ChunkLog, InMemoryAppendAndRead) {
  ChunkLog log;
  ASSERT_TRUE(log.Append(MakeTransmission(1)).ok());
  ASSERT_TRUE(log.Append(MakeTransmission(2)).ok());
  EXPECT_EQ(log.size(), 2u);
  auto t = log.Read(1);
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t->intervals[0].b, 2.0);
  EXPECT_FALSE(log.Read(2).ok());
}

TEST(ChunkLog, DurableRoundTrip) {
  const std::string path = TempPath("sbr_log_rt.log");
  std::filesystem::remove(path);
  {
    auto log = ChunkLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append(MakeTransmission(1)).ok());
    ASSERT_TRUE(log->Append(MakeTransmission(2)).ok());
  }
  auto reopened = ChunkLog::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->size(), 2u);
  auto t = reopened->Read(0);
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t->base_updates[0].values[0], 2.0);
  // Appending after reopen keeps going.
  ASSERT_TRUE(reopened->Append(MakeTransmission(3)).ok());
  auto again = ChunkLog::Open(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->size(), 3u);
  std::filesystem::remove(path);
}

TEST(ChunkLog, TornFinalRecordDropped) {
  const std::string path = TempPath("sbr_log_torn.log");
  std::filesystem::remove(path);
  {
    auto log = ChunkLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append(MakeTransmission(1)).ok());
    ASSERT_TRUE(log->Append(MakeTransmission(2)).ok());
  }
  // Simulate a crash mid-write: truncate the file by a few bytes.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);
  auto recovered = ChunkLog::Open(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->size(), 1u);  // second record dropped
  auto t = recovered->Read(0);
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t->base_updates[0].values[0], 2.0);
  std::filesystem::remove(path);
}

// Flips one payload byte of the record starting at `offset` (past its
// 9-byte len/type/crc framing) so its CRC fails on reload.
void FlipPayloadByte(const std::string& path, size_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(offset + 10);
  char b;
  f.read(&b, 1);
  b ^= 0x20;
  f.seekp(offset + 10);
  f.write(&b, 1);
}

TEST(ChunkLog, CorruptMidLogRecordQuarantinedAsGap) {
  const std::string path = TempPath("sbr_log_midcrc.log");
  std::filesystem::remove(path);
  size_t after_first = 0;
  {
    auto log = ChunkLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append(MakeTransmission(1)).ok());
    after_first = std::filesystem::file_size(path);
    ASSERT_TRUE(log->Append(MakeTransmission(2)).ok());
    ASSERT_TRUE(log->Append(MakeTransmission(3)).ok());
  }
  FlipPayloadByte(path, after_first);
  auto recovered = ChunkLog::Open(path);
  ASSERT_TRUE(recovered.ok());
  // The corrupt transmission becomes a one-chunk DataLoss gap, and — with
  // no snapshot to re-anchor the base-signal lineage — so does the valid
  // transmission after it. The timeline keeps its length; no record is
  // silently decoded, none silently vanishes.
  ASSERT_EQ(recovered->size(), 3u);
  EXPECT_EQ(recovered->dropped_records(), 0u);
  EXPECT_EQ(recovered->quarantined_records(), 2u);
  EXPECT_TRUE(recovered->recovered_lineage_broken());
  auto t = recovered->Read(0);
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t->base_updates[0].values[0], 2.0);
  for (size_t i : {1u, 2u}) {
    ASSERT_EQ(recovered->record_type(i), RecordType::kGap);
    auto gap = recovered->ReadGap(i);
    ASSERT_TRUE(gap.ok());
    EXPECT_EQ(*gap, 1u);
  }
  // The corrupt on-disk bytes are left untouched: reopening replays the
  // identical recovery instead of compounding it.
  auto again = ChunkLog::Open(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->size(), 3u);
  EXPECT_EQ(again->quarantined_records(), 2u);
  std::filesystem::remove(path);
}

TEST(ChunkLog, SnapshotReanchorsLineageAfterQuarantine) {
  const std::string path = TempPath("sbr_log_reanchor.log");
  std::filesystem::remove(path);
  size_t after_first = 0;
  {
    auto log = ChunkLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append(MakeTransmission(1)).ok());
    after_first = std::filesystem::file_size(path);
    ASSERT_TRUE(log->Append(MakeTransmission(2)).ok());
    ASSERT_TRUE(log->Append(MakeTransmission(3)).ok());
    core::BaseSnapshot snap;
    snap.w = 4;
    ASSERT_TRUE(log->AppendSnapshot(snap).ok());
    ASSERT_TRUE(log->Append(MakeTransmission(4)).ok());
  }
  FlipPayloadByte(path, after_first);
  auto recovered = ChunkLog::Open(path);
  ASSERT_TRUE(recovered.ok());
  // Records 1 and 2 are quarantined to gaps, but the valid snapshot
  // re-establishes the base-signal state: the transmission after it is
  // decodable again and survives verbatim.
  ASSERT_EQ(recovered->size(), 5u);
  EXPECT_EQ(recovered->quarantined_records(), 2u);
  EXPECT_FALSE(recovered->recovered_lineage_broken());
  EXPECT_EQ(recovered->record_type(1), RecordType::kGap);
  EXPECT_EQ(recovered->record_type(2), RecordType::kGap);
  EXPECT_EQ(recovered->record_type(3), RecordType::kSnapshot);
  ASSERT_EQ(recovered->record_type(4), RecordType::kTransmission);
  auto t = recovered->Read(4);
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t->base_updates[0].values[0], 5.0);
  std::filesystem::remove(path);
}

TEST(ChunkLog, HalfWrittenFinalRecordDroppedAndTruncated) {
  const std::string path = TempPath("sbr_log_halfwrite.log");
  std::filesystem::remove(path);
  {
    auto log = ChunkLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append(MakeTransmission(1)).ok());
    ASSERT_TRUE(log->Append(MakeTransmission(2)).ok());
  }
  const auto good_size = std::filesystem::file_size(path);
  {
    // Power loss mid-append: the length prefix landed but the payload did
    // not — the record claims more bytes than the file holds.
    std::ofstream f(path, std::ios::binary | std::ios::app);
    const uint8_t garbage[] = {0x40, 0x00, 0x00, 0x00, 0x00, 0xAA, 0xBB};
    f.write(reinterpret_cast<const char*>(garbage), sizeof(garbage));
  }
  auto recovered = ChunkLog::Open(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->size(), 2u);
  EXPECT_EQ(recovered->dropped_records(), 1u);
  // Recovery truncates the torn tail so later appends frame correctly.
  EXPECT_EQ(std::filesystem::file_size(path), good_size);
  ASSERT_TRUE(recovered->Append(MakeTransmission(3)).ok());
  auto again = ChunkLog::Open(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->size(), 3u);
  EXPECT_EQ(again->dropped_records(), 0u);
  std::filesystem::remove(path);
}

TEST(ChunkLog, CheckpointRecordsRoundTripAndIndex) {
  const std::string path = TempPath("sbr_log_ckpt.log");
  std::filesystem::remove(path);
  {
    auto log = ChunkLog::Open(path);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(log->LastCheckpointIndex(), ChunkLog::kNoCheckpoint);
    ASSERT_TRUE(log->AppendCheckpoint({1, 2, 3}).ok());
    core::Transmission t = MakeTransmission(1);
    // Only one base slot is populated; route the second interval through
    // the linear fall-back so the history replay below can decode it.
    t.intervals[1].shift = -1;
    ASSERT_TRUE(log->Append(t).ok());
    ASSERT_TRUE(log->AppendCheckpoint({4, 5}).ok());
  }
  auto log = ChunkLog::Open(path);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->size(), 3u);
  EXPECT_EQ(log->LastCheckpointIndex(), 2u);
  auto blob = log->ReadCheckpoint(2);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, (std::vector<uint8_t>{4, 5}));
  // Checkpoints are opaque to every non-checkpoint reader.
  EXPECT_FALSE(log->Read(0).ok());
  EXPECT_FALSE(log->ReadCheckpoint(1).ok());
  // Replaying the log skips checkpoint records: they carry recovery
  // state, not timeline content.
  auto history = HistoryStore::FromLog(*log, 64);
  ASSERT_TRUE(history.ok()) << history.status().ToString();
  EXPECT_EQ(history->num_chunks(), 1u);
  std::filesystem::remove(path);
}

TEST(ChunkLog, GapAndSnapshotRecordsRoundTripThroughDisk) {
  const std::string path = TempPath("sbr_log_types.log");
  std::filesystem::remove(path);
  core::BaseSnapshot snap;
  snap.missing_chunks = 3;
  snap.w = 4;
  snap.base_kind = core::BaseKind::kStored;
  core::BaseUpdate bu;
  bu.slot = 2;
  bu.values = {1.5, -2.5, 3.5, 0.25};
  snap.slots.push_back(bu);
  {
    auto log = ChunkLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append(MakeTransmission(1)).ok());
    ASSERT_TRUE(log->AppendGap(3).ok());
    ASSERT_TRUE(log->AppendSnapshot(snap).ok());
  }
  auto reopened = ChunkLog::Open(path);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened->size(), 3u);
  EXPECT_EQ(reopened->dropped_records(), 0u);
  EXPECT_EQ(reopened->record_type(0), RecordType::kTransmission);
  EXPECT_EQ(reopened->record_type(1), RecordType::kGap);
  EXPECT_EQ(reopened->record_type(2), RecordType::kSnapshot);

  auto gap = reopened->ReadGap(1);
  ASSERT_TRUE(gap.ok());
  EXPECT_EQ(*gap, 3u);
  auto s = reopened->ReadSnapshot(2);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->missing_chunks, 3u);
  EXPECT_EQ(s->w, 4u);
  EXPECT_EQ(s->base_kind, core::BaseKind::kStored);
  ASSERT_EQ(s->slots.size(), 1u);
  EXPECT_EQ(s->slots[0].slot, 2u);
  EXPECT_EQ(s->slots[0].values, bu.values);

  // Type-mismatched reads are refused, not misinterpreted.
  EXPECT_FALSE(reopened->Read(1).ok());
  EXPECT_FALSE(reopened->ReadGap(0).ok());
  EXPECT_FALSE(reopened->ReadSnapshot(1).ok());
  std::filesystem::remove(path);
}

TEST(ChunkLog, BadMagicRejected) {
  const std::string path = TempPath("sbr_log_magic.log");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a log at all";
  }
  EXPECT_FALSE(ChunkLog::Open(path).ok());
  std::filesystem::remove(path);
}

TEST(ChunkLog, TotalBytesAccumulates) {
  ChunkLog log;
  EXPECT_EQ(log.TotalBytes(), 0u);
  ASSERT_TRUE(log.Append(MakeTransmission(1)).ok());
  const size_t one = log.TotalBytes();
  EXPECT_GT(one, 0u);
  ASSERT_TRUE(log.Append(MakeTransmission(1)).ok());
  EXPECT_EQ(log.TotalBytes(), 2 * one);
}

// ------------------------------------------------------ HistoryStore

// Produces a real encoder stream for history tests.
std::vector<core::Transmission> EncodeStream(
    std::vector<std::vector<double>>* chunks_out, size_t num_chunks,
    size_t m_base) {
  core::EncoderOptions opts;
  opts.total_band = 100;
  opts.m_base = m_base;
  core::SbrEncoder enc(opts);
  Rng rng(5);
  std::vector<core::Transmission> out;
  for (size_t c = 0; c < num_chunks; ++c) {
    std::vector<double> y(2 * 128);
    for (size_t s = 0; s < 2; ++s) {
      for (size_t i = 0; i < 128; ++i) {
        y[s * 128 + i] = std::sin(i * 0.2 + c) * (s + 1) +
                         rng.Gaussian(0, 0.05);
      }
    }
    auto t = enc.EncodeChunk(y, 2);
    EXPECT_TRUE(t.ok());
    chunks_out->push_back(y);
    out.push_back(std::move(t).value());
  }
  return out;
}

TEST(HistoryStore, IngestAndQueryRange) {
  std::vector<std::vector<double>> truth;
  const auto stream = EncodeStream(&truth, 4, 64);
  HistoryStore store(64);
  for (const auto& t : stream) {
    ASSERT_TRUE(store.Ingest(t).ok());
  }
  EXPECT_EQ(store.num_chunks(), 4u);
  EXPECT_EQ(store.num_signals(), 2u);
  EXPECT_EQ(store.chunk_len(), 128u);
  EXPECT_EQ(store.history_len(), 512u);

  // Cross-chunk range query equals the concatenated per-chunk
  // reconstructions.
  auto range = store.QueryRange(1, 100, 300);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->size(), 200u);
  for (size_t t = 100; t < 300; ++t) {
    auto point = store.QueryPoint(1, t);
    ASSERT_TRUE(point.ok());
    EXPECT_DOUBLE_EQ((*range)[t - 100], *point);
  }
}

TEST(HistoryStore, ReconstructionTracksTruth) {
  std::vector<std::vector<double>> truth;
  const auto stream = EncodeStream(&truth, 3, 64);
  HistoryStore store(64);
  for (const auto& t : stream) ASSERT_TRUE(store.Ingest(t).ok());
  // The approximation error should be a small fraction of the signal
  // energy.
  for (size_t c = 0; c < 3; ++c) {
    auto rec = store.Chunk(c);
    ASSERT_TRUE(rec.ok());
    double energy = 0, err = 0;
    for (size_t s = 0; s < 2; ++s) {
      for (size_t i = 0; i < 128; ++i) {
        const double tv = truth[c][s * 128 + i];
        const double rv = (*rec)(s, i);
        energy += tv * tv;
        err += (tv - rv) * (tv - rv);
      }
    }
    EXPECT_LT(err, 0.2 * energy) << "chunk " << c;
  }
}

TEST(HistoryStore, QueryBoundsChecked) {
  std::vector<std::vector<double>> truth;
  const auto stream = EncodeStream(&truth, 2, 64);
  HistoryStore store(64);
  for (const auto& t : stream) ASSERT_TRUE(store.Ingest(t).ok());
  EXPECT_FALSE(store.QueryRange(5, 0, 10).ok());    // bad signal
  EXPECT_FALSE(store.QueryRange(0, 0, 1000).ok());  // past the end
  EXPECT_FALSE(store.QueryRange(0, 10, 5).ok());    // inverted
  EXPECT_FALSE(store.Chunk(2).ok());
  EXPECT_TRUE(store.QueryRange(0, 0, store.history_len()).ok());
}

TEST(HistoryStore, GeometryChangeRejected) {
  std::vector<std::vector<double>> truth;
  const auto stream = EncodeStream(&truth, 1, 64);
  HistoryStore store(64);
  ASSERT_TRUE(store.Ingest(stream[0]).ok());
  core::Transmission other = stream[0];
  other.num_signals = 3;
  EXPECT_FALSE(store.Ingest(other).ok());
}

TEST(HistoryStore, FromLogReplaysEverything) {
  std::vector<std::vector<double>> truth;
  const auto stream = EncodeStream(&truth, 4, 64);
  const std::string path = TempPath("sbr_hist.log");
  std::filesystem::remove(path);
  {
    auto log = ChunkLog::Open(path);
    ASSERT_TRUE(log.ok());
    for (const auto& t : stream) ASSERT_TRUE(log->Append(t).ok());
  }
  auto log = ChunkLog::Open(path);
  ASSERT_TRUE(log.ok());
  auto store = HistoryStore::FromLog(*log, 64);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->num_chunks(), 4u);

  // Compare against a direct ingest: identical output (decoder state is a
  // pure function of the transmission sequence).
  HistoryStore direct(64);
  for (const auto& t : stream) ASSERT_TRUE(direct.Ingest(t).ok());
  auto a = store->QueryRange(0, 0, store->history_len());
  auto b = direct.QueryRange(0, 0, direct.history_len());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  std::filesystem::remove(path);
}

TEST(HistoryStore, GapsAdvanceTimelineAndAnswerDataLoss) {
  std::vector<std::vector<double>> truth;
  const auto stream = EncodeStream(&truth, 2, 64);
  HistoryStore store(64);
  ASSERT_TRUE(store.Ingest(stream[0]).ok());
  store.MarkGap(2);
  ASSERT_TRUE(store.Ingest(stream[1]).ok());

  EXPECT_EQ(store.num_chunks(), 4u);
  EXPECT_EQ(store.num_gaps(), 2u);
  EXPECT_FALSE(store.IsGap(0));
  EXPECT_TRUE(store.IsGap(1));
  EXPECT_TRUE(store.IsGap(2));
  EXPECT_FALSE(store.IsGap(3));
  EXPECT_EQ(store.history_len(), 4 * 128u);

  // Queries inside intact chunks work; anything touching a gap is
  // DataLoss, including the whole-chunk accessor.
  EXPECT_TRUE(store.QueryRange(0, 0, 128).ok());
  EXPECT_TRUE(store.QueryRange(1, 3 * 128, 4 * 128).ok());
  auto touching = store.QueryRange(0, 100, 200);
  ASSERT_FALSE(touching.ok());
  EXPECT_EQ(touching.status().code(), StatusCode::kDataLoss);
  auto gap_chunk = store.Chunk(2);
  ASSERT_FALSE(gap_chunk.ok());
  EXPECT_EQ(gap_chunk.status().code(), StatusCode::kDataLoss);
  auto gap_point = store.QueryPoint(0, 128);
  ASSERT_FALSE(gap_point.ok());
  EXPECT_EQ(gap_point.status().code(), StatusCode::kDataLoss);
}

TEST(HistoryStore, FromLogReplaysGapsIdentically) {
  std::vector<std::vector<double>> truth;
  const auto stream = EncodeStream(&truth, 3, 64);
  const std::string path = TempPath("sbr_hist_gaps.log");
  std::filesystem::remove(path);
  {
    auto log = ChunkLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append(stream[0]).ok());
    ASSERT_TRUE(log->AppendGap(1).ok());
    ASSERT_TRUE(log->Append(stream[1]).ok());
    ASSERT_TRUE(log->Append(stream[2]).ok());
  }
  auto log = ChunkLog::Open(path);
  ASSERT_TRUE(log.ok());
  auto store = HistoryStore::FromLog(*log, 64);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->num_chunks(), 4u);
  EXPECT_EQ(store->num_gaps(), 1u);
  EXPECT_TRUE(store->IsGap(1));

  HistoryStore direct(64);
  ASSERT_TRUE(direct.Ingest(stream[0]).ok());
  direct.MarkGap(1);
  ASSERT_TRUE(direct.Ingest(stream[1]).ok());
  ASSERT_TRUE(direct.Ingest(stream[2]).ok());
  for (size_t c : {0u, 2u, 3u}) {
    auto a = store->QueryRange(0, c * 128, (c + 1) * 128);
    auto b = direct.QueryRange(0, c * 128, (c + 1) * 128);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b);
  }
  std::filesystem::remove(path);
}

// ----------------------------------------------- CompressedHistory

TEST(CompressedHistory, AggregatesMatchMaterializedReconstruction) {
  std::vector<std::vector<double>> truth;
  const auto stream = EncodeStream(&truth, 4, 64);
  HistoryStore store(64);
  CompressedHistory queries(64);
  for (const auto& t : stream) {
    ASSERT_TRUE(store.Ingest(t).ok());
    ASSERT_TRUE(queries.Ingest(t).ok());
  }
  ASSERT_EQ(queries.history_len(), store.history_len());

  Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t signal = static_cast<size_t>(rng.UniformInt(0, 1));
    size_t t0 = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(store.history_len() - 2)));
    size_t t1 = t0 + 1 + static_cast<size_t>(rng.UniformInt(
                         0, static_cast<int64_t>(store.history_len() - t0 - 1)));
    auto agg = queries.Aggregate(signal, t0, t1);
    ASSERT_TRUE(agg.ok()) << agg.status().ToString();
    auto range = store.QueryRange(signal, t0, t1);
    ASSERT_TRUE(range.ok());

    double sum = 0, mn = 1e300, mx = -1e300;
    for (double v : *range) {
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    const double avg = sum / range->size();
    double var = 0;
    for (double v : *range) var += (v - avg) * (v - avg);
    var /= range->size();

    EXPECT_EQ(agg->count, range->size());
    EXPECT_NEAR(agg->sum, sum, 1e-6 * std::max(1.0, std::abs(sum)));
    EXPECT_NEAR(agg->avg, avg, 1e-6 * std::max(1.0, std::abs(avg)));
    EXPECT_NEAR(agg->min, mn, 1e-9);
    EXPECT_NEAR(agg->max, mx, 1e-9);
    EXPECT_NEAR(agg->variance, var, 1e-5 * std::max(1.0, var));
  }
}

TEST(CompressedHistory, PointValuesMatchDecoder) {
  std::vector<std::vector<double>> truth;
  const auto stream = EncodeStream(&truth, 3, 64);
  HistoryStore store(64);
  CompressedHistory queries(64);
  for (const auto& t : stream) {
    ASSERT_TRUE(store.Ingest(t).ok());
    ASSERT_TRUE(queries.Ingest(t).ok());
  }
  for (size_t t = 0; t < store.history_len(); t += 7) {
    auto a = queries.Value(1, t);
    auto b = store.QueryPoint(1, t);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NEAR(*a, *b, 1e-9 * std::max(1.0, std::abs(*b)));
  }
}

TEST(CompressedHistory, RetainsFewBaseVersions) {
  // Base updates become rare after warm-up, so snapshots stay few even
  // over many chunks.
  std::vector<std::vector<double>> truth;
  const auto stream = EncodeStream(&truth, 6, 64);
  CompressedHistory queries(64);
  for (const auto& t : stream) ASSERT_TRUE(queries.Ingest(t).ok());
  EXPECT_LT(queries.num_base_versions(), queries.num_chunks());
}

// Sweep every encoder configuration: the query engine must agree with the
// materializing store under each base strategy and encoding mode.
enum class PipeVariant { kDefault, kDctFixed, kNoBase, kQuadratic, kCompact };

class CompressedHistoryVariants
    : public testing::TestWithParam<PipeVariant> {};

TEST_P(CompressedHistoryVariants, MatchesHistoryStore) {
  core::EncoderOptions opts;
  opts.total_band = 110;
  opts.m_base = 96;
  switch (GetParam()) {
    case PipeVariant::kDefault:
      break;
    case PipeVariant::kDctFixed:
      opts.base_strategy = core::BaseStrategy::kDctFixed;
      opts.w = 12;
      break;
    case PipeVariant::kNoBase:
      opts.base_strategy = core::BaseStrategy::kNone;
      break;
    case PipeVariant::kQuadratic:
      opts.quadratic = true;
      break;
    case PipeVariant::kCompact:
      opts.compact_wire = true;
      break;
  }
  core::SbrEncoder enc(opts);
  HistoryStore store(opts.m_base);
  CompressedHistory queries(opts.m_base);
  Rng rng(17);
  for (size_t c = 0; c < 4; ++c) {
    std::vector<double> y(2 * 128);
    for (size_t i = 0; i < y.size(); ++i) {
      y[i] = std::sin(i * 0.17 + c) * 4 + rng.Gaussian(0, 0.1);
    }
    auto t = enc.EncodeChunk(y, 2);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    // Route through the wire so compact-mode rounding is exercised.
    BinaryWriter w;
    t->Serialize(&w);
    BinaryReader r(w.buffer());
    auto parsed = core::Transmission::Deserialize(&r);
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE(store.Ingest(*parsed).ok());
    ASSERT_TRUE(queries.Ingest(*parsed).ok());
  }
  for (auto [t0, t1] : {std::pair<size_t, size_t>{0, 512},
                        {100, 150}, {120, 400}, {511, 512}}) {
    auto agg = queries.Aggregate(1, t0, t1);
    ASSERT_TRUE(agg.ok()) << agg.status().ToString();
    auto range = store.QueryRange(1, t0, t1);
    ASSERT_TRUE(range.ok());
    double sum = 0, mn = 1e300, mx = -1e300;
    for (double v : *range) {
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    EXPECT_NEAR(agg->sum, sum, 1e-6 * std::max(1.0, std::abs(sum)));
    EXPECT_NEAR(agg->min, mn, 1e-9);
    EXPECT_NEAR(agg->max, mx, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CompressedHistoryVariants,
                         testing::Values(PipeVariant::kDefault,
                                         PipeVariant::kDctFixed,
                                         PipeVariant::kNoBase,
                                         PipeVariant::kQuadratic,
                                         PipeVariant::kCompact));

TEST(CompressedHistory, BoundsChecked) {
  std::vector<std::vector<double>> truth;
  const auto stream = EncodeStream(&truth, 1, 64);
  CompressedHistory queries(64);
  ASSERT_TRUE(queries.Ingest(stream[0]).ok());
  EXPECT_FALSE(queries.Aggregate(9, 0, 10).ok());
  EXPECT_FALSE(queries.Aggregate(0, 5, 5).ok());
  EXPECT_FALSE(queries.Aggregate(0, 0, 100000).ok());
}

// ------------------------------------- Store copies that diverge (fork)

// A stream with the encoder's resync payload before every chunk, so a
// continuation can lose chunks and re-anchor like the protocol does.
struct ForkStream {
  std::vector<core::Transmission> txs;
  /// snaps[c]: the encoder's base state just before chunk c.
  std::vector<core::BaseSnapshot> snaps;
};

core::BaseSnapshot SnapshotOf(const core::SbrEncoder& enc) {
  core::BaseSnapshot snap;
  snap.w = static_cast<uint32_t>(enc.w());
  const core::BaseSignal& base = enc.base_signal();
  if (base.w() == 0) return snap;
  for (size_t slot = 0; slot < base.used_slots(); ++slot) {
    core::BaseUpdate bu;
    bu.slot = static_cast<uint32_t>(slot);
    bu.values.assign(base.values().begin() + slot * base.w(),
                     base.values().begin() + (slot + 1) * base.w());
    snap.slots.push_back(std::move(bu));
  }
  return snap;
}

ForkStream EncodeForkStream(size_t num_chunks) {
  core::EncoderOptions opts;
  opts.total_band = 24;
  opts.m_base = 64;
  core::SbrEncoder enc(opts);
  Rng rng(21);
  ForkStream out;
  for (size_t c = 0; c < num_chunks; ++c) {
    out.snaps.push_back(SnapshotOf(enc));
    std::vector<double> y(2 * 32);
    for (size_t i = 0; i < y.size(); ++i) {
      y[i] = std::sin(i * 0.31 + 0.7 * c) * (1.0 + c % 5) +
             rng.Gaussian(0, 0.2);
    }
    auto t = enc.EncodeChunk(y, 2);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    out.txs.push_back(std::move(t).value());
  }
  return out;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Status and every field of an aggregate, bit for bit.
::testing::AssertionResult SameAggregate(
    const StatusOr<AggregateResult>& got,
    const StatusOr<AggregateResult>& want) {
  if (got.status() != want.status()) {
    return ::testing::AssertionFailure() << got.status().ToString()
                                         << " vs " << want.status().ToString();
  }
  if (!got.ok()) return ::testing::AssertionSuccess();
  if (Bits(got->sum) != Bits(want->sum) ||
      Bits(got->avg) != Bits(want->avg) ||
      Bits(got->min) != Bits(want->min) ||
      Bits(got->max) != Bits(want->max) ||
      Bits(got->variance) != Bits(want->variance) ||
      got->count != want->count) {
    return ::testing::AssertionFailure() << "sum " << got->sum << " vs "
                                         << want->sum;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameValue(const StatusOr<double>& got,
                                     const StatusOr<double>& want) {
  if (got.status() != want.status()) {
    return ::testing::AssertionFailure() << got.status().ToString()
                                         << " vs " << want.status().ToString();
  }
  if (got.ok() && Bits(*got) != Bits(*want)) {
    return ::testing::AssertionFailure() << *got << " vs " << *want;
  }
  return ::testing::AssertionSuccess();
}

/// Ranges over a 2 x 32-sample history of `chunks` chunks: every chunk,
/// wide aligned spans and seeded unaligned ones (gaps included).
std::vector<std::pair<size_t, size_t>> ProbeRanges(size_t chunks) {
  const size_t len = chunks * 32;
  std::vector<std::pair<size_t, size_t>> out;
  for (size_t c = 0; c < chunks; ++c) out.push_back({c * 32, (c + 1) * 32});
  for (size_t lo : {size_t{0}, size_t{32}, size_t{64 * 32}, len / 2}) {
    if (lo < len) out.push_back({lo, len});
  }
  Rng rng(chunks);
  for (int i = 0; i < 200; ++i) {
    const size_t t0 =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(len) - 1));
    const size_t span = static_cast<size_t>(rng.UniformInt(1, 40 * 32));
    out.push_back({t0, std::min(len, t0 + span)});
  }
  return out;
}

void ExpectSameAnswers(const CompressedHistory& got,
                       const CompressedHistory& want) {
  ASSERT_EQ(got.num_chunks(), want.num_chunks());
  ASSERT_EQ(got.num_gaps(), want.num_gaps());
  for (size_t c = 0; c < want.num_chunks(); ++c) {
    ASSERT_EQ(got.IsGap(c), want.IsGap(c)) << c;
  }
  for (size_t signal = 0; signal < 2; ++signal) {
    for (auto [t0, t1] : ProbeRanges(want.num_chunks())) {
      ASSERT_TRUE(SameAggregate(got.Aggregate(signal, t0, t1),
                                want.Aggregate(signal, t0, t1)))
          << signal << " [" << t0 << ", " << t1 << ")";
      ASSERT_TRUE(SameValue(got.Value(signal, t0), want.Value(signal, t0)))
          << signal << " @" << t0;
    }
  }
}

void ExpectSameAnswers(const HistoryStore& got, const HistoryStore& want) {
  ASSERT_EQ(got.num_chunks(), want.num_chunks());
  ASSERT_EQ(got.num_gaps(), want.num_gaps());
  for (size_t signal = 0; signal < 2; ++signal) {
    for (auto [t0, t1] : ProbeRanges(want.num_chunks())) {
      ASSERT_TRUE(SameAggregate(got.AggregateExact(signal, t0, t1),
                                want.AggregateExact(signal, t0, t1)))
          << signal << " [" << t0 << ", " << t1 << ")";
      auto a = got.QueryRange(signal, t0, t1);
      auto b = want.QueryRange(signal, t0, t1);
      ASSERT_EQ(a.status(), b.status()) << signal << " [" << t0 << ")";
      if (a.ok()) {
        ASSERT_EQ(a->size(), b->size());
        for (size_t i = 0; i < a->size(); ++i) {
          ASSERT_EQ(Bits((*a)[i]), Bits((*b)[i])) << t0 + i;
        }
      }
      ASSERT_TRUE(SameValue(got.QueryPoint(signal, t0),
                            want.QueryPoint(signal, t0)))
          << signal << " @" << t0;
    }
  }
}

TEST(StoreFork, DivergedCopiesAnswerLikeFreshStores) {
  // Copy both stores after k chunks — mid-block, at a block's end and at
  // the chunk log's directory growth (191) — then continue one copy with
  // data chunks and the other with a loss, a resync snapshot and data.
  // The copies share the original's logs until they append, so each must
  // answer bit for bit like a store built fresh from its own sequence.
  constexpr size_t kLost = 3;
  constexpr size_t kMore = 70;
  const ForkStream stream = EncodeForkStream(191 + kLost + kMore);
  for (size_t k : {40, 63, 64, 127, 150, 191}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    CompressedHistory base_c(64);
    HistoryStore base_h(64);
    for (size_t c = 0; c < k; ++c) {
      ASSERT_TRUE(base_c.Ingest(stream.txs[c]).ok());
      ASSERT_TRUE(base_h.Ingest(stream.txs[c]).ok());
    }
    CompressedHistory data_c = base_c;
    HistoryStore data_h = base_h;
    CompressedHistory resync_c = base_c;
    HistoryStore resync_h = base_h;
    resync_c.MarkGap(kLost);
    resync_h.MarkGap(kLost);
    ASSERT_TRUE(resync_c.ApplySnapshot(stream.snaps[k + kLost]).ok());
    ASSERT_TRUE(resync_h.ApplySnapshot(stream.snaps[k + kLost]).ok());
    for (size_t i = 0; i < kMore; ++i) {
      ASSERT_TRUE(data_c.Ingest(stream.txs[k + i]).ok());
      ASSERT_TRUE(data_h.Ingest(stream.txs[k + i]).ok());
      ASSERT_TRUE(resync_c.Ingest(stream.txs[k + kLost + i]).ok());
      ASSERT_TRUE(resync_h.Ingest(stream.txs[k + kLost + i]).ok());
    }

    CompressedHistory fresh_data_c(64);
    HistoryStore fresh_data_h(64);
    for (size_t c = 0; c < k + kMore; ++c) {
      ASSERT_TRUE(fresh_data_c.Ingest(stream.txs[c]).ok());
      ASSERT_TRUE(fresh_data_h.Ingest(stream.txs[c]).ok());
    }
    CompressedHistory fresh_resync_c(64);
    HistoryStore fresh_resync_h(64);
    for (size_t c = 0; c < k; ++c) {
      ASSERT_TRUE(fresh_resync_c.Ingest(stream.txs[c]).ok());
      ASSERT_TRUE(fresh_resync_h.Ingest(stream.txs[c]).ok());
    }
    fresh_resync_c.MarkGap(kLost);
    fresh_resync_h.MarkGap(kLost);
    ASSERT_TRUE(fresh_resync_c.ApplySnapshot(stream.snaps[k + kLost]).ok());
    ASSERT_TRUE(fresh_resync_h.ApplySnapshot(stream.snaps[k + kLost]).ok());
    for (size_t i = 0; i < kMore; ++i) {
      ASSERT_TRUE(fresh_resync_c.Ingest(stream.txs[k + kLost + i]).ok());
      ASSERT_TRUE(fresh_resync_h.Ingest(stream.txs[k + kLost + i]).ok());
    }

    ExpectSameAnswers(data_c, fresh_data_c);
    ExpectSameAnswers(data_h, fresh_data_h);
    ExpectSameAnswers(resync_c, fresh_resync_c);
    ExpectSameAnswers(resync_h, fresh_resync_h);
    // The original never moved past k chunks.
    ASSERT_EQ(base_c.num_chunks(), k);
    ASSERT_EQ(base_h.num_chunks(), k);
    CompressedHistory prefix_c(64);
    HistoryStore prefix_h(64);
    for (size_t c = 0; c < k; ++c) {
      ASSERT_TRUE(prefix_c.Ingest(stream.txs[c]).ok());
      ASSERT_TRUE(prefix_h.Ingest(stream.txs[c]).ok());
    }
    ExpectSameAnswers(base_c, prefix_c);
    ExpectSameAnswers(base_h, prefix_h);
  }
}

}  // namespace
}  // namespace sbr::storage
