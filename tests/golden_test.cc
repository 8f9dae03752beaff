// Golden byte-identity suite: the serialized transmission stream for every
// pinned configuration (weather/stock x {SSE, relative, max-abs} plus the
// quadratic and low-memory-base variants) must match the recorded digests
// exactly. This is the contract the
// encode-pipeline refactors are held to: workspace reuse, incremental
// prefix sums and kernel unification are pure architecture changes, and
// any drift in the emitted bytes fails here before it can silently shift
// every number in EXPERIMENTS.md.
//
// Regenerate golden_data.inc with tests/golden_gen.cc only when the
// encoding semantics change intentionally.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "golden_common.h"
#include "obs/obs.h"

namespace sbr {
namespace {

const std::vector<golden::GoldenDigest>& Digests() {
  static const std::vector<golden::GoldenDigest> kDigests =
#include "golden_data.inc"
  ;
  return kDigests;
}

TEST(Golden, DigestTableCoversEveryCase) {
  std::map<std::string, golden::GoldenDigest> by_name;
  for (const auto& d : Digests()) by_name[d.name] = d;
  ASSERT_EQ(by_name.size(), golden::GoldenCases().size())
      << "golden_data.inc is stale; regenerate with golden_gen";
  for (const auto& c : golden::GoldenCases()) {
    EXPECT_TRUE(by_name.count(c.name)) << "missing digest for " << c.name;
  }
}

TEST(Golden, EncodedBytesMatchRecordedDigests) {
  std::map<std::string, golden::GoldenDigest> by_name;
  for (const auto& d : Digests()) by_name[d.name] = d;
  for (const auto& c : golden::GoldenCases()) {
    ASSERT_TRUE(by_name.count(c.name)) << c.name;
    const auto& expect = by_name[c.name];
    bool ok = false;
    const auto bytes = golden::EncodeGoldenStream(c, &ok);
    ASSERT_TRUE(ok) << c.name;
    EXPECT_EQ(bytes.size(), expect.bytes) << c.name;
    EXPECT_EQ(Crc32(bytes), expect.crc32) << c.name;
  }
}

TEST(Golden, ObservabilityEnabledDoesNotChangeBytes) {
  // The observability contract: metrics and spans recording at full tilt
  // never touches the emitted bytes. Same digests, every case, with the
  // runtime gate on; the test above is the gate-off half. Instrumentation
  // is always compiled in, so these two states are the whole contract.
  obs::EnabledScope enabled;
  std::map<std::string, golden::GoldenDigest> by_name;
  for (const auto& d : Digests()) by_name[d.name] = d;
  for (const auto& c : golden::GoldenCases()) {
    ASSERT_TRUE(by_name.count(c.name)) << c.name;
    const auto& expect = by_name[c.name];
    bool ok = false;
    const auto bytes = golden::EncodeGoldenStream(c, &ok);
    ASSERT_TRUE(ok) << c.name;
    EXPECT_EQ(bytes.size(), expect.bytes) << c.name << " (obs enabled)";
    EXPECT_EQ(Crc32(bytes), expect.crc32) << c.name << " (obs enabled)";
  }
}

}  // namespace
}  // namespace sbr
