// Unit tests for the storage substrate: the append-only chunk log
// (including durability and torn-record recovery) and the queryable
// history store.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/encoder.h"
#include "core/fixed_base.h"
#include "storage/chunk_log.h"
#include "storage/decoded_history.h"
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

TEST(ChunkLog, TrailingBytesRecordQuarantinedAtOpen) {
  // A CRC-valid transmission record whose payload parses but leaves bytes
  // unread is one the station would have refused as a frame, so recovery
  // quarantines it by the same rule instead of indexing and replaying it.
  const std::string path = TempPath("sbr_log_trailing.log");
  std::filesystem::remove(path);
  {
    auto log = ChunkLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append(MakeTransmission(1)).ok());
    BinaryWriter writer;
    MakeTransmission(2).Serialize(&writer);
    std::vector<uint8_t> payload = writer.TakeBuffer();
    payload.push_back(0);
    ASSERT_TRUE(log->AppendSerialized(payload).ok());
    ASSERT_TRUE(log->Append(MakeTransmission(3)).ok());
  }
  auto recovered = ChunkLog::Open(path);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->size(), 3u);
  EXPECT_EQ(recovered->dropped_records(), 0u);
  // The record itself and the lineage-broken transmission after it.
  EXPECT_EQ(recovered->quarantined_records(), 2u);
  EXPECT_EQ(recovered->record_type(0), RecordType::kTransmission);
  EXPECT_EQ(recovered->record_type(1), RecordType::kGap);
  auto gap = recovered->ReadGap(1);
  ASSERT_TRUE(gap.ok());
  EXPECT_EQ(*gap, 1u);
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
  auto history = CompressedHistory::FromLog(*log, 64);
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

/// Appends one record of every type (two transmissions) to `log`, in a
/// fixed order; `step` selects which of the six records.
Status AppendNth(ChunkLog* log, int step) {
  switch (step) {
    case 0:
      return log->Append(MakeTransmission(1));
    case 1:
      return log->AppendGap(2);
    case 2: {
      core::BaseSnapshot snap;
      snap.w = 4;
      snap.timeline_chunks = 3;
      snap.slots.push_back({0, {1.0, 2.0, 3.0, 4.0}});
      return log->AppendSnapshot(snap);
    }
    case 3:
      return log->Append(MakeTransmission(2));
    case 4:
      return log->AppendCheckpoint({7, 8, 9});
    default:
      return log->Append(MakeTransmission(3));
  }
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(ChunkLog, MovedHandleKeepsAppendingToTheSameFile) {
  // Append through one handle, move-construct and move-assign it in
  // between, reopen, and compare every record; the file must be byte for
  // byte what a single unmoved handle writes.
  const std::string path = TempPath("sbr_log_move.log");
  const std::string plain_path = TempPath("sbr_log_move_plain.log");
  std::filesystem::remove(path);
  std::filesystem::remove(plain_path);
  {
    auto plain = ChunkLog::Open(plain_path);
    ASSERT_TRUE(plain.ok());
    for (int step = 0; step < 6; ++step) {
      ASSERT_TRUE(AppendNth(&*plain, step).ok());
    }
  }
  size_t disk_end = 0;
  {
    auto opened = ChunkLog::Open(path);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(AppendNth(&*opened, 0).ok());
    ASSERT_TRUE(AppendNth(&*opened, 1).ok());
    ChunkLog moved(std::move(*opened));
    ASSERT_TRUE(AppendNth(&moved, 2).ok());
    ASSERT_TRUE(AppendNth(&moved, 3).ok());
    // Move-assigning over a live durable log closes that log's descriptor.
    auto other = ChunkLog::Open(plain_path);
    ASSERT_TRUE(other.ok());
    ChunkLog target = std::move(*other);
    target = std::move(moved);
    ASSERT_TRUE(AppendNth(&target, 4).ok());
    ASSERT_TRUE(AppendNth(&target, 5).ok());
    EXPECT_EQ(target.size(), 6u);
    EXPECT_EQ(target.path(), path);
    disk_end = target.DiskEnd();
  }
  EXPECT_EQ(FileBytes(path), FileBytes(plain_path));
  EXPECT_EQ(disk_end, FileBytes(path).size());

  auto reopened = ChunkLog::Open(path);
  auto plain = ChunkLog::Open(plain_path);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(reopened->size(), 6u);
  ASSERT_EQ(plain->size(), 6u);
  EXPECT_EQ(reopened->dropped_records(), 0u);
  EXPECT_EQ(reopened->quarantined_records(), 0u);
  auto serialize = [](const auto& value) {
    BinaryWriter w;
    value.Serialize(&w);
    return w.TakeBuffer();
  };
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_EQ(reopened->record_type(i), plain->record_type(i)) << i;
    EXPECT_EQ(reopened->RecordDiskSpan(i).offset,
              plain->RecordDiskSpan(i).offset);
    switch (reopened->record_type(i)) {
      case RecordType::kTransmission:
        EXPECT_EQ(serialize(*reopened->Read(i)), serialize(*plain->Read(i)));
        break;
      case RecordType::kGap:
        EXPECT_EQ(*reopened->ReadGap(i), 2u);
        break;
      case RecordType::kSnapshot:
        EXPECT_EQ(serialize(*reopened->ReadSnapshot(i)),
                  serialize(*plain->ReadSnapshot(i)));
        break;
      case RecordType::kCheckpoint:
        EXPECT_EQ(*reopened->ReadCheckpoint(i),
                  (std::vector<uint8_t>{7, 8, 9}));
        break;
    }
  }
  std::filesystem::remove(path);
  std::filesystem::remove(plain_path);
}

TEST(ChunkLog, ReadOnlyFileLoadsButRefusesAppends) {
  const std::string path = TempPath("sbr_log_readonly.log");
  std::filesystem::remove(path);
  {
    auto log = ChunkLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append(MakeTransmission(1)).ok());
  }
  std::filesystem::permissions(path, std::filesystem::perms::owner_read,
                               std::filesystem::perm_options::replace);
  auto log = ChunkLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log->size(), 1u);
  // Root may write anyway; otherwise the append is a typed refusal.
  if (::access(path.c_str(), W_OK) != 0) {
    EXPECT_EQ(log->Append(MakeTransmission(2)).code(), StatusCode::kNotFound);
  }
  std::filesystem::permissions(path, std::filesystem::perms::owner_all,
                               std::filesystem::perm_options::replace);
  std::filesystem::remove(path);
}

TEST(ChunkLog, ReadOnlyOpenLeavesTornTailOnDisk) {
  const std::string path = TempPath("sbr_log_ro_torn.log");
  std::filesystem::remove(path);
  {
    auto log = ChunkLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append(MakeTransmission(1)).ok());
    ASSERT_TRUE(log->Append(MakeTransmission(2)).ok());
  }
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 5);
  const std::vector<uint8_t> before = FileBytes(path);
  auto ro = ChunkLog::OpenReadOnly(path);
  ASSERT_TRUE(ro.ok());
  // Indexed exactly as Open indexes it...
  EXPECT_EQ(ro->size(), 1u);
  EXPECT_EQ(ro->dropped_records(), 1u);
  auto t = ro->Read(0);
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t->base_updates[0].values[0], 2.0);
  size_t replayed = 0;
  ASSERT_TRUE(ro->ForEach(0, [&](size_t, RecordType,
                                 std::span<const uint8_t>) {
                  ++replayed;
                  return Status::Ok();
                }).ok());
  EXPECT_EQ(replayed, 1u);
  // ...but the torn tail stays on disk, and appends fail.
  EXPECT_EQ(ro->Append(MakeTransmission(3)).code(), StatusCode::kNotFound);
  EXPECT_EQ(ro->AppendGap(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(ro->size(), 1u);
  EXPECT_EQ(FileBytes(path), before);
  // The station's Open still cuts the tail back.
  auto rw = ChunkLog::Open(path);
  ASSERT_TRUE(rw.ok());
  EXPECT_EQ(rw->size(), 1u);
  EXPECT_LT(std::filesystem::file_size(path), before.size());
  std::filesystem::remove(path);
}

TEST(ChunkLog, ReadOnlyOpenOfMissingPathCreatesNothing) {
  const std::string path = TempPath("sbr_log_ro_missing.log");
  std::filesystem::remove(path);
  auto ro = ChunkLog::OpenReadOnly(path);
  ASSERT_FALSE(ro.ok());
  EXPECT_EQ(ro.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ChunkLog, TornPreambleOpensAsAFreshLog) {
  // A crash between creating the file and completing its 8-byte preamble
  // leaves a prefix of it (often nothing at all): nothing was logged, so
  // the file starts over as a fresh log.
  const std::string path = TempPath("sbr_log_torn_preamble.log");
  std::vector<uint8_t> preamble;
  {
    std::filesystem::remove(path);
    auto log = ChunkLog::Open(path);
    ASSERT_TRUE(log.ok());
    preamble = FileBytes(path);
    ASSERT_EQ(preamble.size(), 8u);
  }
  for (size_t len : {0, 1, 7}) {
    SCOPED_TRACE(len);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(preamble.data()),
                static_cast<std::streamsize>(len));
    }
    auto log = ChunkLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_TRUE(log->empty());
    EXPECT_EQ(log->DiskEnd(), 8u);
    // Opening leaves the file as it is (an inspection changes nothing);
    // the first append writes the whole preamble ahead of its record.
    EXPECT_EQ(FileBytes(path),
              std::vector<uint8_t>(preamble.begin(), preamble.begin() + len));
    ASSERT_TRUE(log->Append(MakeTransmission(4)).ok());
    const std::vector<uint8_t> after = FileBytes(path);
    ASSERT_GT(after.size(), preamble.size());
    EXPECT_TRUE(std::equal(preamble.begin(), preamble.end(), after.begin()));
    EXPECT_EQ(after.size(), log->DiskEnd());
    auto reopened = ChunkLog::Open(path);
    ASSERT_TRUE(reopened.ok());
    ASSERT_EQ(reopened->size(), 1u);
    EXPECT_TRUE(reopened->Read(0).ok());
  }
  // Any other short file is not a torn preamble, and stays DataLoss.
  for (const std::vector<uint8_t>& junk :
       {std::vector<uint8_t>{0x4c, 0x52, 0x00},
        std::vector<uint8_t>{preamble.begin(), preamble.begin() + 7}}) {
    std::vector<uint8_t> bytes = junk;
    if (bytes.size() == 7) bytes[6] ^= 0x01;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_EQ(ChunkLog::Open(path).status().code(), StatusCode::kDataLoss);
  }
  std::filesystem::remove(path);
}

// ---------------------------------- the durable log keeps only an index

/// A transmission or snapshot re-serialized, as comparable text.
template <typename T>
std::string Bytes(const T& v) {
  BinaryWriter w;
  v.Serialize(&w);
  return std::string(w.buffer().begin(), w.buffer().end());
}

/// What reading record `i` returns, as comparable text: the status, then
/// the value (transmissions and snapshots re-serialized).
std::string ReadAs(const ChunkLog& log, size_t i) {
  switch (log.record_type(i)) {
    case RecordType::kTransmission: {
      auto t = log.Read(i);
      return t.ok() ? "T" + Bytes(*t) : t.status().ToString();
    }
    case RecordType::kGap: {
      auto g = log.ReadGap(i);
      return g.ok() ? "G" + std::to_string(*g) : g.status().ToString();
    }
    case RecordType::kSnapshot: {
      auto snap = log.ReadSnapshot(i);
      return snap.ok() ? "S" + Bytes(*snap) : snap.status().ToString();
    }
    case RecordType::kCheckpoint: {
      auto c = log.ReadCheckpoint(i);
      return c.ok() ? "C" + std::string(c->begin(), c->end())
                    : c.status().ToString();
    }
  }
  return "?";
}

/// What a ForEach pass from record `first` hands over, one entry per
/// record rendered as ReadAs renders a read; a pass that fails ends with
/// its status.
std::vector<std::string> PassAs(const ChunkLog& log, size_t first) {
  std::vector<std::string> out;
  const Status status = log.ForEach(
      first, [&](size_t i, RecordType type, std::span<const uint8_t> payload) {
        EXPECT_EQ(i, first + out.size());
        EXPECT_EQ(type, log.record_type(i));
        BinaryReader reader(payload);
        switch (type) {
          case RecordType::kTransmission: {
            auto t = core::Transmission::Deserialize(&reader);
            out.push_back(t.ok() ? "T" + Bytes(*t) : t.status().ToString());
            break;
          }
          case RecordType::kGap: {
            uint32_t g = 0;
            const Status got = reader.GetU32(&g);
            out.push_back(got.ok() ? "G" + std::to_string(g)
                                   : got.ToString());
            break;
          }
          case RecordType::kSnapshot: {
            auto snap = core::BaseSnapshot::Deserialize(&reader);
            out.push_back(snap.ok() ? "S" + Bytes(*snap)
                                    : snap.status().ToString());
            break;
          }
          case RecordType::kCheckpoint:
            out.push_back("C" + std::string(payload.begin(), payload.end()));
            break;
        }
        return Status::Ok();
      });
  if (!status.ok()) out.push_back(status.ToString());
  return out;
}

/// A payload of 4 bytes, like a one-chunk gap marker, that does not
/// parse as a transmission.
const std::vector<uint8_t> kJunkTransmission = {0xde, 0xad, 0xbe, 0xef};

/// Appends the index test's records: a transmission, a gap, a snapshot, a
/// checkpoint, a junk transmission (quarantined on reopen), a snapshot
/// that re-anchors the lineage, a transmission, a checkpoint and, when
/// `with_tail`, a last transmission (torn on disk before the reopen).
void AppendIndexRecords(ChunkLog* log, bool with_tail) {
  core::BaseSnapshot snap;
  snap.w = 4;
  snap.timeline_chunks = 3;
  snap.slots.push_back({0, {1.0, 2.0, 3.0, 4.0}});
  ASSERT_TRUE(log->Append(MakeTransmission(1)).ok());
  ASSERT_TRUE(log->AppendGap(2).ok());
  ASSERT_TRUE(log->AppendSnapshot(snap).ok());
  ASSERT_TRUE(log->AppendCheckpoint({7, 8, 9}).ok());
  ASSERT_TRUE(log->AppendSerialized(kJunkTransmission).ok());
  snap.timeline_chunks = 5;
  ASSERT_TRUE(log->AppendSnapshot(snap).ok());
  ASSERT_TRUE(log->Append(MakeTransmission(2)).ok());
  ASSERT_TRUE(log->AppendCheckpoint({1, 2}).ok());
  if (with_tail) {
    ASSERT_TRUE(log->Append(MakeTransmission(3)).ok());
  }
}

/// `durable` holds what `memory` does, record for record: the same
/// types, the same reads (one record at a time and through ForEach), the
/// same spans behind the durable file's 8-byte preamble, and the same
/// totals. Record `quarantined` (kNoneQuarantined for none) must read as
/// a one-chunk gap over the original record's span instead.
constexpr size_t kNoneQuarantined = static_cast<size_t>(-1);
void ExpectSameLog(const ChunkLog& durable, const ChunkLog& memory,
                   size_t quarantined) {
  constexpr size_t kPreamble = 8;
  ASSERT_EQ(durable.size(), memory.size());
  EXPECT_EQ(durable.TotalBytes(), memory.TotalBytes());
  EXPECT_EQ(durable.DiskEnd(), memory.DiskEnd() + kPreamble);
  EXPECT_EQ(durable.LastCheckpointIndex(), memory.LastCheckpointIndex());
  const std::vector<std::string> pass = PassAs(durable, 0);
  const std::vector<std::string> memory_pass = PassAs(memory, 0);
  ASSERT_EQ(pass.size(), durable.size());
  ASSERT_EQ(memory_pass.size(), memory.size());
  // A pass from the middle hands over the same tail.
  const size_t mid = durable.size() / 2;
  EXPECT_EQ(PassAs(durable, mid),
            std::vector<std::string>(pass.begin() + mid, pass.end()));
  for (size_t i = 0; i < memory.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const auto want_span = memory.RecordDiskSpan(i);
    EXPECT_EQ(durable.RecordDiskSpan(i).offset, want_span.offset + kPreamble);
    EXPECT_EQ(durable.RecordDiskSpan(i).length, want_span.length);
    const std::string got = ReadAs(durable, i);
    EXPECT_EQ(pass[i], got);
    EXPECT_EQ(memory_pass[i], ReadAs(memory, i));
    if (i == quarantined) {
      EXPECT_EQ(durable.record_type(i), RecordType::kGap);
      EXPECT_EQ(got, "G1");
      continue;
    }
    EXPECT_EQ(durable.record_type(i), memory.record_type(i));
    EXPECT_EQ(got, ReadAs(memory, i));
  }
}

TEST(ChunkLog, DurableIndexReadsLikeTheInMemoryLog) {
  const std::string path = TempPath("sbr_log_index.log");
  std::filesystem::remove(path);
  ChunkLog memory;
  AppendIndexRecords(&memory, /*with_tail=*/true);
  if (HasFatalFailure()) return;
  {
    auto durable = ChunkLog::Open(path);
    ASSERT_TRUE(durable.ok());
    AppendIndexRecords(&*durable, /*with_tail=*/true);
    if (HasFatalFailure()) return;
    // Before a reopen the junk record is an unparsable transmission in
    // both logs, read as the same DataLoss.
    EXPECT_EQ(durable->Read(4).status().code(), StatusCode::kDataLoss);
    ExpectSameLog(*durable, memory, kNoneQuarantined);
  }
  // Tear the last record, then reopen: the tail is dropped, the junk
  // record is quarantined, and the snapshot after it keeps the next
  // transmission readable.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);
  auto reopened = ChunkLog::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->dropped_records(), 1u);
  EXPECT_EQ(reopened->quarantined_records(), 1u);
  EXPECT_FALSE(reopened->recovered_lineage_broken());
  ChunkLog untorn;
  AppendIndexRecords(&untorn, /*with_tail=*/false);
  if (HasFatalFailure()) return;
  ExpectSameLog(*reopened, untorn, 4);
  std::filesystem::remove(path);
}

/// Every Read* of every record of `log`, and a ForEach pass from it, must
/// be DataLoss naming the record.
void ExpectEveryReadLost(const ChunkLog& log) {
  for (size_t i = 0; i < log.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const std::string want = "DATA_LOSS: record " + std::to_string(i) + " ";
    const std::string got = ReadAs(log, i);
    EXPECT_EQ(got.rfind(want, 0), 0u) << got;
    const std::vector<std::string> pass = PassAs(log, i);
    ASSERT_EQ(pass.size(), 1u);
    EXPECT_EQ(pass[0].rfind(want, 0), 0u) << pass[0];
  }
}

TEST(ChunkLog, ByteFlippedOnDiskAfterOpenReadsAsDataLoss) {
  const std::string path = TempPath("sbr_log_flip_after_open.log");
  std::filesystem::remove(path);
  auto log = ChunkLog::Open(path);
  ASSERT_TRUE(log.ok());
  AppendIndexRecords(&*log, /*with_tail=*/true);
  if (HasFatalFailure()) return;
  // One payload byte of every record changes under the open handle.
  for (size_t i = 0; i < log->size(); ++i) {
    const auto span = log->RecordDiskSpan(i);
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(span.offset + span.length - 1));
    char b;
    f.read(&b, 1);
    b ^= 0x01;
    f.seekp(static_cast<std::streamoff>(span.offset + span.length - 1));
    f.write(&b, 1);
  }
  ExpectEveryReadLost(*log);
  std::filesystem::remove(path);
}

TEST(ChunkLog, FileTruncatedUnderTheHandleReadsAsDataLoss) {
  const std::string path = TempPath("sbr_log_truncated_under.log");
  std::filesystem::remove(path);
  auto log = ChunkLog::Open(path);
  ASSERT_TRUE(log.ok());
  AppendIndexRecords(&*log, /*with_tail=*/true);
  if (HasFatalFailure()) return;
  // The file keeps its preamble and half of the first record's framing.
  std::filesystem::resize_file(path, 12);
  ExpectEveryReadLost(*log);
  std::filesystem::remove(path);
}

// ------------------------------------------ materialized reads

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

TEST(MaterializedReads, IngestAndQueryRange) {
  std::vector<std::vector<double>> truth;
  const auto stream = EncodeStream(&truth, 4, 64);
  CompressedHistory store(64);
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

TEST(MaterializedReads, ReconstructionTracksTruth) {
  std::vector<std::vector<double>> truth;
  const auto stream = EncodeStream(&truth, 3, 64);
  CompressedHistory store(64);
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

TEST(MaterializedReads, QueryBoundsChecked) {
  std::vector<std::vector<double>> truth;
  const auto stream = EncodeStream(&truth, 2, 64);
  CompressedHistory store(64);
  for (const auto& t : stream) ASSERT_TRUE(store.Ingest(t).ok());
  EXPECT_FALSE(store.QueryRange(5, 0, 10).ok());    // bad signal
  EXPECT_FALSE(store.QueryRange(0, 0, 1000).ok());  // past the end
  EXPECT_FALSE(store.QueryRange(0, 10, 5).ok());    // inverted
  EXPECT_FALSE(store.Chunk(2).ok());
  EXPECT_TRUE(store.QueryRange(0, 0, store.history_len()).ok());
}

TEST(MaterializedReads, GeometryChangeRejected) {
  std::vector<std::vector<double>> truth;
  const auto stream = EncodeStream(&truth, 1, 64);
  CompressedHistory store(64);
  ASSERT_TRUE(store.Ingest(stream[0]).ok());
  core::Transmission other = stream[0];
  other.num_signals = 3;
  EXPECT_FALSE(store.Ingest(other).ok());
}

// A rejected first chunk must fix no geometry: the next valid chunk is
// accepted by both timelines, which then answer alike.
TEST(MaterializedReads, RejectedFirstChunkFixesNoGeometry) {
  std::vector<std::vector<double>> truth;
  const auto stream = EncodeStream(&truth, 2, 64);
  core::Transmission empty = stream[0];
  empty.chunk_len = 0;
  DecodedHistory decoded(64);
  CompressedHistory compressed(64);
  const Status d = decoded.Ingest(empty);
  EXPECT_EQ(d.code(), StatusCode::kDataLoss);
  EXPECT_EQ(compressed.Ingest(empty).code(), d.code());
  EXPECT_EQ(decoded.num_chunks(), 0u);
  EXPECT_EQ(decoded.num_signals(), 0u);
  EXPECT_EQ(decoded.chunk_len(), 0u);

  for (const auto& t : stream) {
    ASSERT_TRUE(decoded.Ingest(t).ok());
    ASSERT_TRUE(compressed.Ingest(t).ok());
  }
  EXPECT_EQ(decoded.num_signals(), 2u);
  EXPECT_EQ(decoded.chunk_len(), 128u);
  auto a = decoded.QueryRange(1, 0, decoded.history_len());
  auto b = compressed.QueryRange(1, 0, compressed.history_len());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(MaterializedReads, FromLogReplaysEverything) {
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
  auto store = CompressedHistory::FromLog(*log, 64);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->num_chunks(), 4u);

  // Compare against a direct ingest: identical output (decoder state is a
  // pure function of the transmission sequence).
  CompressedHistory direct(64);
  for (const auto& t : stream) ASSERT_TRUE(direct.Ingest(t).ok());
  auto a = store->QueryRange(0, 0, store->history_len());
  auto b = direct.QueryRange(0, 0, direct.history_len());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  std::filesystem::remove(path);
}

TEST(MaterializedReads, GapsAdvanceTimelineAndAnswerDataLoss) {
  std::vector<std::vector<double>> truth;
  const auto stream = EncodeStream(&truth, 2, 64);
  CompressedHistory store(64);
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

TEST(MaterializedReads, FromLogReplaysGapsIdentically) {
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
  auto store = CompressedHistory::FromLog(*log, 64);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->num_chunks(), 4u);
  EXPECT_EQ(store->num_gaps(), 1u);
  EXPECT_TRUE(store->IsGap(1));

  CompressedHistory direct(64);
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
  DecodedHistory store(64);
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
  DecodedHistory store(64);
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

TEST_P(CompressedHistoryVariants, MatchesDecodedHistory) {
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
  DecodedHistory store(opts.m_base);
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

TEST(CompressedHistory, OversizedFirstChunkIsDataLossBeforeAnyAllocation) {
  // A CRC-valid first chunk may claim any geometry. The chunk's record
  // block is sized by num_signals, so 2^32 - 1 signals of one sample must
  // be refused by the decoder's size limit before that block is
  // allocated (about 17 GB), not end the process with std::bad_alloc.
  core::Transmission t;
  t.num_signals = 0xFFFFFFFFu;
  t.chunk_len = 1;
  t.w = 4;
  t.base_kind = core::BaseKind::kNone;
  t.intervals.push_back({0, -1, 1.0, 0.0});
  CompressedHistory history(64);
  EXPECT_EQ(history.Ingest(t).code(), StatusCode::kDataLoss);
  EXPECT_EQ(history.num_chunks(), 0u);
  // The rejected chunk fixed no geometry: a valid stream still ingests.
  std::vector<std::vector<double>> truth;
  const auto stream = EncodeStream(&truth, 1, 64);
  EXPECT_TRUE(history.Ingest(stream[0]).ok());
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

/// Materialized answers, bit for bit, including each failure's status.
template <typename History>
void ExpectSameMaterialized(const History& got, const History& want) {
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
  ExpectSameMaterialized(got, want);
}

void ExpectSameAnswers(const DecodedHistory& got, const DecodedHistory& want) {
  ExpectSameMaterialized(got, want);
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
    DecodedHistory base_h(64);
    for (size_t c = 0; c < k; ++c) {
      ASSERT_TRUE(base_c.Ingest(stream.txs[c]).ok());
      ASSERT_TRUE(base_h.Ingest(stream.txs[c]).ok());
    }
    CompressedHistory data_c = base_c;
    DecodedHistory data_h = base_h;
    CompressedHistory resync_c = base_c;
    DecodedHistory resync_h = base_h;
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
    DecodedHistory fresh_data_h(64);
    for (size_t c = 0; c < k + kMore; ++c) {
      ASSERT_TRUE(fresh_data_c.Ingest(stream.txs[c]).ok());
      ASSERT_TRUE(fresh_data_h.Ingest(stream.txs[c]).ok());
    }
    CompressedHistory fresh_resync_c(64);
    DecodedHistory fresh_resync_h(64);
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
    DecodedHistory prefix_h(64);
    for (size_t c = 0; c < k; ++c) {
      ASSERT_TRUE(prefix_c.Ingest(stream.txs[c]).ok());
      ASSERT_TRUE(prefix_h.Ingest(stream.txs[c]).ok());
    }
    ExpectSameAnswers(base_c, prefix_c);
    ExpectSameAnswers(base_h, prefix_h);
  }
}

// ---------------------------------- on-demand decode vs DecodedHistory

/// One pipeline stream per encoder variant, with a protocol loss (a gap
/// followed by a resync snapshot) and a degraded self-contained chunk, fed
/// to both the single timeline and the decode-at-ingest reference. Two
/// hand-built chunks follow, at the edges of the timeline's compact
/// records: their wire records arrive unsorted; row 0 is a single
/// record; row 1 holds a base-mapped record that ends exactly at the end
/// of the base signal and a last record that ends at the chunk end; the
/// second chunk repeats them as a quadratic chunk.
struct OraclePair {
  CompressedHistory timeline{96};
  DecodedHistory reference{96};
};

void BuildOraclePair(PipeVariant variant, OraclePair* out) {
  core::EncoderOptions opts;
  opts.total_band = 110;
  opts.m_base = 96;
  core::BaseKind kind = core::BaseKind::kStored;
  switch (variant) {
    case PipeVariant::kDefault:
      break;
    case PipeVariant::kDctFixed:
      opts.base_strategy = core::BaseStrategy::kDctFixed;
      opts.w = 12;
      kind = core::BaseKind::kDctFixed;
      break;
    case PipeVariant::kNoBase:
      opts.base_strategy = core::BaseStrategy::kNone;
      kind = core::BaseKind::kNone;
      break;
    case PipeVariant::kQuadratic:
      opts.quadratic = true;
      break;
    case PipeVariant::kCompact:
      opts.compact_wire = true;
      break;
  }
  core::SbrEncoder enc(opts);
  core::EncoderOptions degraded_opts = opts;
  degraded_opts.base_strategy = core::BaseStrategy::kNone;
  core::SbrEncoder degraded(degraded_opts);
  auto ingest = [out](const core::Transmission& t) {
    BinaryWriter w;
    t.Serialize(&w);
    BinaryReader r(w.buffer());
    auto parsed = core::Transmission::Deserialize(&r);
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE(out->timeline.Ingest(*parsed).ok());
    ASSERT_TRUE(out->reference.Ingest(*parsed).ok());
  };
  core::Transmission last;
  Rng rng(23);
  for (size_t c = 0; c < 8; ++c) {
    // A new frequency per chunk keeps the encoder inserting (and
    // evicting) base intervals, so chunks map onto different versions.
    std::vector<double> y(2 * 128);
    for (size_t i = 0; i < y.size(); ++i) {
      y[i] = std::sin(i * (0.05 + 0.09 * c) + c) * (2 + c % 3) +
             rng.Gaussian(0, 0.1);
    }
    // Chunk 5 travels as a degraded re-encode: no base reference at all.
    auto t = c == 5 ? degraded.EncodeChunk(y, 2) : enc.EncodeChunk(y, 2);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    if (c == 2) {
      // Lost for good; the resync snapshot carries the encoder's base
      // state after it.
      out->timeline.MarkGap(1);
      out->reference.MarkGap(1);
      core::BaseSnapshot snap;
      if (kind != core::BaseKind::kNone) {
        snap = SnapshotOf(enc);
        snap.base_kind = kind;
        if (kind != core::BaseKind::kStored) snap.slots.clear();
      }
      ASSERT_TRUE(out->timeline.ApplySnapshot(snap).ok());
      ASSERT_TRUE(out->reference.ApplySnapshot(snap).ok());
      continue;
    }
    // Through the wire, so compact-mode rounding is exercised.
    ingest(*t);
    if (testing::Test::HasFatalFailure()) return;
    last = *t;
  }
  // The edge chunks, against the base the stream ended with.
  size_t base_len = 0;
  if (kind == core::BaseKind::kStored) {
    base_len = enc.base_signal().values().size();
  } else if (kind == core::BaseKind::kDctFixed) {
    base_len = core::MakeDctFixedBase(last.w).size();
  }
  ASSERT_TRUE(kind == core::BaseKind::kNone || base_len >= 56) << base_len;
  const int32_t kLinear = -1;
  auto mapped = [&](size_t len, size_t shift) {
    return base_len >= len ? static_cast<int32_t>(shift) : kLinear;
  };
  const size_t tail = std::min<size_t>(40, base_len);  // ends at base end
  core::Transmission edge = last;
  edge.base_updates.clear();
  edge.intervals = {
      {200, mapped(56, 0), 0.75, -0.5},                         // to chunk end
      {0, mapped(128, base_len - 128), -1.25, 2.0},             // whole row 0
      {static_cast<uint32_t>(200 - tail), mapped(tail, base_len - tail),
       1.5, 0.25},                                              // to base end
      {128, kLinear, 0.01, 3.0}};
  if (tail == 0) edge.intervals.erase(edge.intervals.begin() + 2);
  ingest(edge);
  if (testing::Test::HasFatalFailure()) return;
  edge.quadratic = true;
  for (size_t k = 0; k < edge.intervals.size(); ++k) {
    edge.intervals[k].c = 0.001 * static_cast<double>(k + 1);
  }
  ingest(edge);
}

class OnDemandDecode : public testing::TestWithParam<PipeVariant> {};

TEST_P(OnDemandDecode, MaterializedReadsEqualDecodedHistoryBitwise) {
  OraclePair p;
  BuildOraclePair(GetParam(), &p);
  if (HasFatalFailure()) return;
  const CompressedHistory& got = p.timeline;
  const DecodedHistory& want = p.reference;
  ASSERT_EQ(got.num_chunks(), 10u);
  ASSERT_EQ(got.num_gaps(), 1u);
  if (GetParam() != PipeVariant::kNoBase &&
      GetParam() != PipeVariant::kDctFixed) {
    // The stream must exercise base changes, or a stale base version
    // would go unnoticed.
    EXPECT_GE(got.num_base_versions(), 3u);
  }
  const size_t len = got.history_len();
  ASSERT_EQ(len, want.history_len());

  for (size_t c = 0; c <= got.num_chunks(); ++c) {
    auto a = got.Chunk(c);
    auto b = want.Chunk(c);
    ASSERT_EQ(a.status().code(), b.status().code()) << c;
    if (!a.ok()) continue;
    ASSERT_EQ(a->rows(), b->rows());
    ASSERT_EQ(a->cols(), b->cols());
    for (size_t i = 0; i < a->rows(); ++i) {
      for (size_t j = 0; j < a->cols(); ++j) {
        ASSERT_EQ(Bits((*a)(i, j)), Bits((*b)(i, j))) << c << " " << i;
      }
    }
  }
  Rng rng(5);
  std::vector<std::pair<size_t, size_t>> ranges = {
      {0, len}, {0, 256}, {200, 300}, {3 * 128, len}, {len - 1, len},
      {100, 100}, {256, 384}};
  for (int i = 0; i < 200; ++i) {
    const size_t t0 =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(len)));
    const size_t t1 = std::min(
        len, t0 + static_cast<size_t>(rng.UniformInt(0, 400)));
    ranges.push_back({t0, t1});
  }
  for (size_t signal = 0; signal < 2; ++signal) {
    for (auto [t0, t1] : ranges) {
      auto a = got.QueryRange(signal, t0, t1);
      auto b = want.QueryRange(signal, t0, t1);
      ASSERT_EQ(a.status(), b.status()) << signal << " [" << t0 << ", "
                                        << t1 << ")";
      if (a.ok()) {
        ASSERT_EQ(a->size(), b->size());
        for (size_t i = 0; i < a->size(); ++i) {
          ASSERT_EQ(Bits((*a)[i]), Bits((*b)[i])) << t0 + i;
        }
      }
      auto ea = got.AggregateExact(signal, t0, t1);
      auto eb = want.AggregateExact(signal, t0, t1);
      ASSERT_EQ(ea.status().code(), eb.status().code());
      if (ea.ok()) {
        EXPECT_EQ(ea->count, eb->count);
        EXPECT_EQ(Bits(ea->min), Bits(eb->min));
        EXPECT_EQ(Bits(ea->max), Bits(eb->max));
        EXPECT_NEAR(ea->sum, eb->sum, 1e-9 * (std::abs(eb->sum) + 1.0));
      }
    }
  }
  // Out-of-range arguments get the reference's status codes.
  EXPECT_EQ(got.QueryRange(2, 0, 1).status().code(),
            want.QueryRange(2, 0, 1).status().code());
  EXPECT_EQ(got.QueryRange(0, 5, 4).status().code(),
            want.QueryRange(0, 5, 4).status().code());
  EXPECT_EQ(got.QueryPoint(0, len).status().code(),
            want.QueryPoint(0, len).status().code());
  EXPECT_EQ(got.AggregateExact(0, 0, len + 1).status().code(),
            want.AggregateExact(0, 0, len + 1).status().code());
}

TEST_P(OnDemandDecode, PointEqualsOneSampleReconstructBitwise) {
  OraclePair p;
  BuildOraclePair(GetParam(), &p);
  if (HasFatalFailure()) return;
  const CompressedHistory& h = p.timeline;
  for (size_t signal = 0; signal < 2; ++signal) {
    for (size_t t = 0; t < h.history_len(); ++t) {
      auto point = h.Value(signal, t);
      auto range = h.QueryRange(signal, t, t + 1);
      ASSERT_EQ(point.status().code(), range.status().code()) << t;
      if (!point.ok()) {
        EXPECT_EQ(point.status().code(), StatusCode::kDataLoss);
        continue;
      }
      ASSERT_EQ(Bits(*point), Bits((*range)[0])) << signal << " @" << t;
      ASSERT_TRUE(SameValue(h.QueryPoint(signal, t), point));
      ASSERT_TRUE(SameValue(p.reference.QueryPoint(signal, t), point));
    }
  }
  EXPECT_EQ(h.Value(0, h.history_len()).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(h.Value(0, static_cast<size_t>(-1)).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(h.Value(2, 0).status().code(), StatusCode::kOutOfRange);
}

INSTANTIATE_TEST_SUITE_P(Sweep, OnDemandDecode,
                         testing::Values(PipeVariant::kDefault,
                                         PipeVariant::kDctFixed,
                                         PipeVariant::kNoBase,
                                         PipeVariant::kQuadratic,
                                         PipeVariant::kCompact));

TEST(CompressedHistory, FrozenCopyAnswersButRefusesWrites) {
  OraclePair p;
  BuildOraclePair(PipeVariant::kDefault, &p);
  if (HasFatalFailure()) return;
  const CompressedHistory frozen = p.timeline.Frozen(p.timeline.view());
  ExpectSameAnswers(frozen, p.timeline);
  CompressedHistory copy = frozen;
  core::Transmission t = MakeTransmission(1);
  EXPECT_EQ(copy.Ingest(t).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(copy.ApplySnapshot(core::BaseSnapshot{}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(copy.num_chunks(), p.timeline.num_chunks());
}

}  // namespace
}  // namespace sbr::storage
