// sbr_inspect: dump the structure of an SBR chunk log.
//
//   sbr_inspect <log> [--verbose]
//
// Prints per-record geometry, value accounting, base-signal activity and
// interval statistics — useful for debugging a deployment's bandwidth
// spending without decoding the data itself. The log is opened read-only:
// inspecting it never changes the file, a torn tail included.
#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

#include "core/transmission.h"
#include "storage/chunk_log.h"
#include "tool_common.h"

namespace {

// Prints one transmission record's line (and, verbose, its base updates
// and intervals in start order).
void PrintTransmission(size_t i, const sbr::core::Transmission& t,
                       bool verbose) {
  using namespace sbr;
  size_t fallback = 0;
  size_t min_len = t.TotalSamples(), max_len = 0;
  std::vector<core::IntervalRecord> sorted = t.intervals;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });
  for (size_t k = 0; k < sorted.size(); ++k) {
    if (sorted[k].shift < 0) ++fallback;
    const size_t end =
        k + 1 < sorted.size() ? sorted[k + 1].start : t.TotalSamples();
    const size_t len = end - sorted[k].start;
    min_len = std::min(min_len, len);
    max_len = std::max(max_len, len);
  }
  std::printf(
      "record %3zu: %ux%u W=%u %s%s| %4zu values | %zu base inserts | "
      "%4zu intervals (len %zu..%zu, %zu linear fall-backs)\n",
      i, t.num_signals, t.signal_lengths.empty() ? t.chunk_len : 0, t.w,
      t.base_kind == core::BaseKind::kStored
          ? "stored "
          : (t.base_kind == core::BaseKind::kDctFixed ? "dct-fixed "
                                                      : "no-base "),
      t.quadratic ? "quadratic " : "", t.ValueCount(), t.base_updates.size(),
      t.intervals.size(), min_len, max_len, fallback);
  if (verbose) {
    for (const auto& bu : t.base_updates) {
      std::printf("    base slot %u <- %zu values\n", bu.slot,
                  bu.values.size());
    }
    for (const auto& iv : sorted) {
      std::printf("    interval @%u shift=%d a=%.4g b=%.4g\n", iv.start,
                  iv.shift, iv.a, iv.b);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sbr;
  const auto args = tools::Args::Parse(argc, argv, {"verbose"});
  if (!args.Validate({"verbose"}) || args.positional().size() != 1) {
    std::fprintf(stderr, "usage: sbr_inspect <log> [--verbose]\n");
    return 2;
  }
  auto log = storage::ChunkLog::OpenReadOnly(args.positional()[0]);
  if (!log.ok()) {
    std::fprintf(stderr, "error: %s\n", log.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: %zu records, %zu bytes of payload\n",
              args.positional()[0].c_str(), log->size(), log->TotalBytes());
  if (log->dropped_records() > 0) {
    std::printf("warning: %zu corrupt/torn record(s) dropped on reload\n",
                log->dropped_records());
  }
  if (log->quarantined_records() > 0) {
    std::printf(
        "warning: %zu mid-log corrupt record(s) quarantined as DATA LOSS%s\n",
        log->quarantined_records(),
        log->recovered_lineage_broken()
            ? " (base lineage broken until the next snapshot)"
            : "");
  }

  size_t total_values = 0, total_samples = 0, total_inserts = 0;
  size_t gap_chunks = 0, snapshots = 0, degraded = 0;
  // Every record's bytes are read from the file at once. `done` counts
  // the records printed, so it is the index of a record that fails.
  size_t done = 0;
  core::Transmission tx;
  const Status status = log->ForEach(
      0, [&](size_t i, storage::RecordType type,
             std::span<const uint8_t> payload) -> Status {
        switch (type) {
          case storage::RecordType::kGap: {
            BinaryReader reader(payload);
            uint32_t chunks = 0;
            SBR_RETURN_IF_ERROR(reader.GetU32(&chunks));
            gap_chunks += chunks;
            std::printf("record %3zu: DATA LOSS — %u chunk(s) never arrived\n",
                        i, chunks);
            break;
          }
          case storage::RecordType::kSnapshot: {
            auto snap = core::BaseSnapshot::ParsePayload(payload);
            if (!snap.ok()) return snap.status();
            ++snapshots;
            std::printf(
                "record %3zu: base-signal snapshot | W=%u %zu slot(s) | %u "
                "missing chunk(s) reported\n",
                i, snap->w, snap->slots.size(), snap->missing_chunks);
            break;
          }
          case storage::RecordType::kCheckpoint:
            std::printf("record %3zu: recovery checkpoint | %zu bytes\n", i,
                        payload.size());
            break;
          case storage::RecordType::kTransmission:
            SBR_RETURN_IF_ERROR(core::Transmission::ParsePayload(payload, &tx));
            PrintTransmission(i, tx, args.Has("verbose"));
            if (tx.base_kind == core::BaseKind::kNone) ++degraded;
            total_values += tx.ValueCount();
            total_samples += tx.TotalSamples();
            total_inserts += tx.base_updates.size();
            break;
        }
        ++done;
        return Status::Ok();
      });
  if (!status.ok()) {
    std::fprintf(stderr, "record %zu: %s\n", done, status.ToString().c_str());
    return 1;
  }
  if (total_values > 0) {
    std::printf("total: %zu samples -> %zu values (%.1fx), %zu base "
                "inserts\n",
                total_samples, total_values,
                static_cast<double>(total_samples) /
                    static_cast<double>(total_values),
                total_inserts);
  }
  if (gap_chunks + snapshots + degraded > 0) {
    std::printf(
        "protocol: %zu lost chunk(s), %zu resync snapshot(s), %zu "
        "degraded self-contained chunk(s)\n",
        gap_chunks, snapshots, degraded);
  }
  return 0;
}
