// Deterministic decoder fuzzing: serialized transmission, snapshot and
// frame streams are mutated (bit flips, byte stomps, truncations, splices,
// pure garbage) and fed to every byte-facing entry point — Transmission /
// BaseSnapshot / Frame deserialization, SbrDecoder::DecodeChunk /
// ApplySnapshot and BaseStation::ReceiveBytes. The contract under attack:
// no crash, no UB (the `fuzz` ctest label runs under the ASan+UBSan
// `sanitize` preset), no silent garbage — every outcome is either a clean
// success or a clean Status error. Seeds are fixed, so a failure here is
// reproducible by seed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/decoder.h"
#include "core/encoder.h"
#include "core/transmission.h"
#include "net/base_station.h"
#include "storage/query_service.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace sbr::core {
namespace {

// Corpus: valid wire images from real encoder runs across the wire-format
// feature axes (stored base, multi-rate lengths, quadratic coefficients,
// compact f32 precision, no-base degraded mode). Mutations of valid bytes
// reach much deeper than pure garbage, which mostly dies on the first
// length prefix.
std::vector<std::vector<uint8_t>> BuildTransmissionCorpus() {
  std::vector<std::vector<uint8_t>> corpus;
  Rng rng(7);

  auto encode = [&](EncoderOptions opts, size_t num_signals, size_t m) {
    SbrEncoder enc(opts);
    std::vector<double> y(num_signals * m);
    for (size_t c = 0; c < 2; ++c) {
      for (size_t i = 0; i < y.size(); ++i) {
        y[i] = std::sin(i * 0.11 + c) * 4 + rng.Gaussian(0, 0.3);
      }
      auto t = enc.EncodeChunk(y, num_signals);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      BinaryWriter w;
      t->Serialize(&w);
      corpus.push_back(w.TakeBuffer());
    }
  };

  {
    EncoderOptions opts;
    opts.total_band = 60;
    opts.m_base = 64;
    encode(opts, 2, 128);
  }
  {
    EncoderOptions opts;
    opts.total_band = 80;
    opts.m_base = 48;
    opts.quadratic = true;
    encode(opts, 3, 64);
  }
  {
    EncoderOptions opts;
    opts.total_band = 60;
    opts.m_base = 64;
    opts.compact_wire = true;
    encode(opts, 2, 128);
  }
  {
    EncoderOptions opts;
    opts.total_band = 40;
    opts.m_base = 32;
    opts.base_strategy = BaseStrategy::kNone;
    encode(opts, 1, 96);
  }
  return corpus;
}

// One deterministic mutation of `bytes`, chosen by the rng stream.
std::vector<uint8_t> Mutate(std::vector<uint8_t> bytes, Rng* rng) {
  if (bytes.empty()) return bytes;
  switch (rng->UniformInt(0, 4)) {
    case 0: {  // truncate
      bytes.resize(static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(bytes.size()) - 1)));
      break;
    }
    case 1: {  // flip 1-8 random bits
      const int64_t flips = rng->UniformInt(1, 8);
      for (int64_t f = 0; f < flips; ++f) {
        const size_t pos = static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
        bytes[pos] ^= static_cast<uint8_t>(1u << rng->UniformInt(0, 7));
      }
      break;
    }
    case 2: {  // stomp 1-16 random bytes
      const int64_t stomps = rng->UniformInt(1, 16);
      for (int64_t s = 0; s < stomps; ++s) {
        const size_t pos = static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
        bytes[pos] = static_cast<uint8_t>(rng->UniformInt(0, 255));
      }
      break;
    }
    case 3: {  // splice a duplicated interior range over another position
      const size_t len = static_cast<size_t>(
          rng->UniformInt(1, std::min<int64_t>(32, bytes.size())));
      const size_t src = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(bytes.size() - len)));
      const size_t dst = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(bytes.size() - len)));
      for (size_t i = 0; i < len; ++i) bytes[dst + i] = bytes[src + i];
      break;
    }
    default: {  // replace with pure garbage of a random size
      bytes.resize(static_cast<size_t>(rng->UniformInt(0, 256)));
      for (auto& b : bytes) b = static_cast<uint8_t>(rng->UniformInt(0, 255));
      break;
    }
  }
  return bytes;
}

TEST(DecoderFuzz, MutatedTransmissionsNeverCrashNorCorrupt) {
  const auto corpus = BuildTransmissionCorpus();
  ASSERT_FALSE(corpus.empty());
  Rng rng(2026);

  // One long-lived decoder accumulates whatever state the mutants smuggle
  // through (worst case for stateful corruption); fresh ones check the
  // stateless path.
  SbrDecoder persistent(DecoderOptions{/*m_base=*/64});

  for (size_t iter = 0; iter < 4000; ++iter) {
    const auto& seed_bytes =
        corpus[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(corpus.size()) - 1))];
    const std::vector<uint8_t> mutant = Mutate(seed_bytes, &rng);

    BinaryReader reader(mutant);
    auto t = Transmission::Deserialize(&reader);
    if (!t.ok()) continue;  // clean rejection is a pass
    // A parseable mutant must decode cleanly or fail cleanly; either way
    // the decoder object stays usable for the next round.
    auto decoded = persistent.DecodeChunk(*t);
    if (decoded.ok()) {
      EXPECT_EQ(decoded->size(), t->TotalSamples());
      for (double v : *decoded) {
        // Reconstruction from finite coefficients must stay finite unless
        // the mutant smuggled non-finite coefficients through the parse.
        (void)v;
      }
    }
    SbrDecoder fresh(DecoderOptions{/*m_base=*/64});
    (void)fresh.DecodeChunk(*t);
  }
}

TEST(DecoderFuzz, TruncatedTransmissionEveryPrefixLength) {
  const auto corpus = BuildTransmissionCorpus();
  for (const auto& bytes : corpus) {
    for (size_t len = 0; len < bytes.size(); ++len) {
      BinaryReader reader(std::span<const uint8_t>(bytes.data(), len));
      auto t = Transmission::Deserialize(&reader);
      // A strict prefix must never round-trip as a complete parse with
      // trailing bytes unread... it may parse if the cut landed exactly on
      // a record boundary of a shorter valid encoding, but it must never
      // crash, and a successful parse must have consumed the prefix.
      if (t.ok()) {
        EXPECT_TRUE(reader.AtEnd());
      }
    }
  }
}

TEST(DecoderFuzz, MutatedSnapshotsNeverCrash) {
  // A valid snapshot with a few slots, then the same mutation battery
  // against BaseSnapshot::Deserialize + SbrDecoder::ApplySnapshot.
  BaseSnapshot snap;
  snap.w = 8;
  snap.missing_chunks = 3;
  Rng rng(11);
  for (uint32_t slot = 0; slot < 4; ++slot) {
    BaseUpdate bu;
    bu.slot = slot;
    bu.values.resize(8);
    for (auto& v : bu.values) v = rng.Gaussian(0, 1);
    snap.slots.push_back(std::move(bu));
  }
  BinaryWriter w;
  snap.Serialize(&w);
  const std::vector<uint8_t> valid = w.TakeBuffer();

  SbrDecoder persistent(DecoderOptions{/*m_base=*/64});
  for (size_t iter = 0; iter < 3000; ++iter) {
    const std::vector<uint8_t> mutant = Mutate(valid, &rng);
    BinaryReader reader(mutant);
    auto parsed = BaseSnapshot::Deserialize(&reader);
    if (!parsed.ok()) continue;
    (void)persistent.ApplySnapshot(*parsed);
    SbrDecoder fresh(DecoderOptions{/*m_base=*/64});
    (void)fresh.ApplySnapshot(*parsed);
  }
}

TEST(DecoderFuzz, StationReceiveBytesSurvivesGarbageAndMutants) {
  // The outermost byte-facing surface: framed mutants straight into the
  // base station's receive path. The station must answer every buffer with
  // an ack (usually kCorrupt) or a clean error, and stay serviceable.
  const auto corpus = BuildTransmissionCorpus();
  Rng rng(4242);
  net::BaseStation station(/*m_base=*/64, /*log_dir=*/"",
                           /*reorder_window=*/4);

  uint64_t seq = 0;
  for (size_t iter = 0; iter < 3000; ++iter) {
    std::vector<uint8_t> wire;
    if (rng.NextDouble() < 0.7) {
      const auto& payload_bytes =
          corpus[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(corpus.size()) - 1))];
      BinaryReader r(payload_bytes);
      auto t = Transmission::Deserialize(&r);
      ASSERT_TRUE(t.ok());
      Frame f = MakeDataFrame(/*sensor_id=*/1, seq++, /*epoch=*/0, *t);
      BinaryWriter fw;
      f.Serialize(&fw);
      wire = Mutate(fw.TakeBuffer(), &rng);
    } else {
      wire.resize(static_cast<size_t>(rng.UniformInt(0, 128)));
      for (auto& b : wire) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    auto ack = station.ReceiveBytes(wire);
    if (ack.ok()) {
      // Any ack type is legal; the assertion is that one came back.
      SUCCEED();
    }
  }
  // The station survived the battery and still accepts a pristine frame.
  BinaryReader r(corpus[0]);
  auto t = Transmission::Deserialize(&r);
  ASSERT_TRUE(t.ok());
  Frame f = MakeDataFrame(/*sensor_id=*/99, /*seq=*/0, /*epoch=*/0, *t);
  BinaryWriter fw;
  f.Serialize(&fw);
  auto ack = station.ReceiveBytes(fw.buffer());
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->type, net::AckType::kAccept);
}

// ------------------------------------------------------ query surface

// Builds a small query service + standalone stores over the same stream:
// two clean chunks, a declared gap, one more clean chunk (2 signals x
// 128 samples per chunk).
struct QueryFuzzFixture {
  storage::QueryService service{[] {
    storage::QueryServiceOptions o;
    o.m_base = 64;
    return o;
  }()};
  storage::CompressedHistory compressed{64};
  storage::HistoryStore history{64};
  std::vector<Transmission> txs;

  void Build() {
    EncoderOptions opts;
    opts.total_band = 60;
    opts.m_base = 64;
    SbrEncoder enc(opts);
    Rng rng(31);
    std::vector<double> y(2 * 128);
    for (size_t c = 0; c < 3; ++c) {
      for (size_t i = 0; i < y.size(); ++i) {
        y[i] = std::cos(i * 0.07 + c) * 3 + rng.Gaussian(0, 0.2);
      }
      auto t = enc.EncodeChunk(y, 2);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      txs.push_back(std::move(*t));
    }
    ASSERT_TRUE(service.Ingest(0, txs[0]).ok());
    ASSERT_TRUE(compressed.Ingest(txs[0]).ok());
    ASSERT_TRUE(history.Ingest(txs[0]).ok());
    ASSERT_TRUE(service.Ingest(0, txs[1]).ok());
    ASSERT_TRUE(compressed.Ingest(txs[1]).ok());
    ASSERT_TRUE(history.Ingest(txs[1]).ok());
    ASSERT_TRUE(service.MarkGap(0).ok());
    compressed.MarkGap(1);
    history.MarkGap(1);
    ASSERT_TRUE(service.Ingest(0, txs[2]).ok());
    ASSERT_TRUE(compressed.Ingest(txs[2]).ok());
    ASSERT_TRUE(history.Ingest(txs[2]).ok());
  }
};

TEST(QueryFuzz, AdversarialArgumentsGetTypedStatusesNeverCrash) {
  QueryFuzzFixture f;
  f.Build();
  if (::testing::Test::HasFatalFailure()) return;
  const size_t len = f.compressed.history_len();  // 4 chunks x 128
  ASSERT_EQ(len, 4u * 128u);

  // Reversed range: typed OutOfRange everywhere.
  EXPECT_EQ(f.compressed.Aggregate(0, 10, 5).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(f.history.QueryRange(0, 10, 5).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(f.service.Aggregate(0, 0, 10, 5).status().code(),
            StatusCode::kOutOfRange);
  // Zero-length range: an empty reconstruction is well-defined, an empty
  // aggregate is not (avg of nothing) — pinned as OutOfRange.
  auto empty = f.history.QueryRange(0, 5, 5);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(f.compressed.Aggregate(0, 5, 5).status().code(),
            StatusCode::kOutOfRange);
  // Past-the-end and far-out-of-range.
  EXPECT_EQ(f.compressed.Aggregate(0, 0, len + 1).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(f.service.Reconstruct(0, 0, len - 1, len + 7).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(f.service.Point(0, 0, len).status().code(),
            StatusCode::kOutOfRange);
  // Signal index out of bounds.
  EXPECT_EQ(f.compressed.Aggregate(7, 0, 1).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(f.service.Aggregate(0, 7, 0, 1).status().code(),
            StatusCode::kOutOfRange);
  // Ranges with a sample inside the declared gap (chunk 2).
  EXPECT_EQ(f.service.Aggregate(0, 0, 0, len).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(f.service.Point(0, 0, 2 * 128).status().code(),
            StatusCode::kDataLoss);
  // Multi-rate chunks are rejected as Unimplemented by every ingest
  // surface, not mis-indexed.
  Transmission multi_rate = f.txs[0];
  multi_rate.signal_lengths = {128, 128};
  EXPECT_EQ(f.compressed.Ingest(multi_rate).code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(f.history.Ingest(multi_rate).code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(f.service.Ingest(0, multi_rate).code(),
            StatusCode::kUnimplemented);

  // Randomized argument fuzz: any (signal, t0, t1) combination answers
  // with ok or a typed error; nothing throws, nothing crashes.
  Rng rng(501);
  for (size_t iter = 0; iter < 3000; ++iter) {
    const size_t sig = static_cast<size_t>(rng.UniformInt(0, 5));
    const size_t t0 = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(3 * len)));
    const size_t t1 = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(3 * len)));
    for (const Status& s :
         {f.compressed.Aggregate(sig, t0, t1).status(),
          f.history.QueryRange(sig, t0, t1).status(),
          f.service.Aggregate(0, sig, t0, t1).status(),
          f.service.Reconstruct(0, sig, t0, t1).status(),
          f.service.Point(0, sig, t0).status()}) {
      EXPECT_TRUE(s.code() == StatusCode::kOk ||
                  s.code() == StatusCode::kOutOfRange ||
                  s.code() == StatusCode::kDataLoss)
          << s.ToString();
    }
  }
}

TEST(QueryFuzz, MutatedIngestKeepsServiceTimelinesAligned) {
  // Mutants of valid wire images straight into the query-service ingest
  // path: every outcome is a typed status, the service survives, and the
  // compressed and materialized timelines never drift apart — the
  // invariant the aggregate/reconstruction split depends on.
  const auto corpus = BuildTransmissionCorpus();
  ASSERT_FALSE(corpus.empty());
  Rng rng(909);
  storage::QueryServiceOptions opts;
  opts.m_base = 64;
  storage::QueryService service(opts);
  storage::CompressedHistory compressed(64);

  for (size_t iter = 0; iter < 2000; ++iter) {
    const auto& seed_bytes = corpus[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(corpus.size()) - 1))];
    const std::vector<uint8_t> mutant = Mutate(seed_bytes, &rng);
    BinaryReader reader(mutant);
    auto t = Transmission::Deserialize(&reader);
    if (!t.ok()) continue;
    (void)service.Ingest(1, *t);
    (void)compressed.Ingest(*t);

    auto snap = service.Snapshot(1);
    if (snap != nullptr) {
      ASSERT_EQ(snap->compressed.num_chunks(), snap->history.num_chunks());
      ASSERT_EQ(snap->compressed.chunk_len(), snap->history.chunk_len());
    }
  }
  // Still serviceable: a pristine stream on a fresh sensor answers.
  BinaryReader r(corpus[0]);
  auto t = Transmission::Deserialize(&r);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(service.Ingest(2, *t).ok());
  EXPECT_TRUE(service.Aggregate(2, 0, 0, t->chunk_len).ok());
}

TEST(QueryFuzz, MutatedIngestKeepsIndexAndScanPathsAligned) {
  // Whatever a mutated wire image smuggles past deserialization, the
  // moment-indexed engine and the legacy interval-scan engine must keep
  // telling the same story: identical ingest verdicts, identical
  // timelines, and aggregate answers that agree on status, count and the
  // exact min/max selections (sums re-associate; compare only when both
  // are finite — a mutant can legitimately cook up overflowing
  // coefficients).
  const auto corpus = BuildTransmissionCorpus();
  ASSERT_FALSE(corpus.empty());
  Rng rng(4711);
  storage::CompressedHistory indexed(64);
  storage::CompressedHistory legacy(64, storage::IndexOptions{false});

  for (size_t iter = 0; iter < 2000; ++iter) {
    const auto& seed_bytes = corpus[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(corpus.size()) - 1))];
    const std::vector<uint8_t> mutant = Mutate(seed_bytes, &rng);
    BinaryReader reader(mutant);
    auto t = Transmission::Deserialize(&reader);
    if (!t.ok()) continue;
    const Status a = indexed.Ingest(*t);
    const Status b = legacy.Ingest(*t);
    ASSERT_EQ(a.code(), b.code()) << "iter " << iter;
    ASSERT_EQ(indexed.num_chunks(), legacy.num_chunks());

    const size_t len = indexed.history_len();
    if (len == 0 || iter % 16 != 0) continue;
    size_t lo = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(len) - 1));
    size_t hi = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(len) - 1));
    if (lo > hi) std::swap(lo, hi);
    const size_t s = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(indexed.num_signals()) - 1));
    auto ia = indexed.Aggregate(s, lo, hi + 1);
    auto la = legacy.Aggregate(s, lo, hi + 1);
    ASSERT_EQ(ia.status().code(), la.status().code())
        << "iter " << iter << " [" << lo << "," << hi + 1 << ")";
    if (!ia.ok()) continue;
    ASSERT_EQ(ia->count, la->count);
    if (std::isfinite(ia->sum) && std::isfinite(la->sum)) {
      EXPECT_EQ(ia->min, la->min) << "iter " << iter;
      EXPECT_EQ(ia->max, la->max) << "iter " << iter;
      EXPECT_NEAR(ia->sum, la->sum,
                  1e-9 * (std::abs(la->sum) +
                          static_cast<double>(la->count) + 1.0))
          << "iter " << iter;
    }
  }
}

}  // namespace
}  // namespace sbr::core
