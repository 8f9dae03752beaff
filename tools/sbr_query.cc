// sbr_query: query historical values from an SBR chunk log.
//
//   sbr_query <log> [flags]             reconstruct a range (legacy form)
//   sbr_query aggregate <log> [flags]   compressed-domain aggregates
//   sbr_query serve <log> [flags]       concurrent multi-reader drive
//
// Common flags:
//   --mbase N       base buffer capacity used at encode time (default 1024)
//   --signal I      signal row to query (default 0)
//   --from T        first sample index (default 0)
//   --to T          one past the last sample (default: end of history)
//
// Reconstruct-only flags:
//   --csv PATH      write the reconstructed range as CSV instead of stdout
//   --stats         print summary statistics instead of raw values
//
// aggregate-only flags:
//   --noindex       answer via the legacy interval scan (index disabled)
//   --exact         also print exact aggregates recomputed from decoded samples
//
// serve-only flags:
//   --threads N     concurrent reader threads (default 4)
//   --queries N     queries per thread (default 1000)
//   --seed S        query-mix seed (default 42)
//   --noindex       disable the moment index for every sensor
//
// The log is the complete state (base-signal updates travel inside the
// records): `aggregate` and `serve` replay it into a storage::QueryService
// and answer from published epoch snapshots — `aggregate` entirely in the
// compressed domain, `serve` with a randomized aggregate/range/point mix
// across threads, reporting the service counters at the end.
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "storage/chunk_log.h"
#include "storage/query_service.h"
#include "tool_common.h"
#include "util/csv.h"
#include "util/stats.h"

namespace {

using namespace sbr;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Opens the log and replays it into a fresh service as sensor 0.
int LoadService(const std::string& path, storage::QueryService* service) {
  auto log = storage::ChunkLog::Open(path);
  if (!log.ok()) return Fail(log.status());
  if (log->empty()) {
    std::fprintf(stderr, "log is empty\n");
    return 1;
  }
  if (auto s = storage::ReplayLog(*log, 0, service); !s.ok()) return Fail(s);
  return 0;
}

int RunReconstruct(const tools::Args& args) {
  if (!args.Validate({"mbase", "signal", "from", "to", "csv", "stats"})) {
    return 2;
  }
  auto log = storage::ChunkLog::Open(args.positional()[0]);
  if (!log.ok()) return Fail(log.status());
  if (log->empty()) {
    std::fprintf(stderr, "log is empty\n");
    return 1;
  }
  auto store = storage::CompressedHistory::FromLog(
      *log, static_cast<size_t>(args.GetInt("mbase", 1024)));
  if (!store.ok()) return Fail(store.status());

  const size_t signal = static_cast<size_t>(args.GetInt("signal", 0));
  const size_t from = static_cast<size_t>(args.GetInt("from", 0));
  const size_t to = static_cast<size_t>(
      args.GetInt("to", static_cast<long>(store->history_len())));
  auto range = store->QueryRange(signal, from, to);
  if (!range.ok()) return Fail(range.status());

  if (args.Has("stats")) {
    const MinMax mm = Extent(*range);
    std::printf("signal %zu, samples [%zu, %zu): n=%zu mean=%.6g "
                "stddev=%.6g min=%.6g max=%.6g\n",
                signal, from, to, range->size(), Mean(*range),
                std::sqrt(Variance(*range)), mm.min, mm.max);
    return 0;
  }

  const std::string csv_path = args.GetString("csv");
  if (!csv_path.empty()) {
    CsvTable table;
    table.columns = {"t", "value"};
    for (size_t i = 0; i < range->size(); ++i) {
      table.rows.push_back({static_cast<double>(from + i), (*range)[i]});
    }
    if (auto status = WriteCsv(csv_path, table); !status.ok()) {
      return Fail(status);
    }
    std::printf("wrote %zu rows to %s\n", range->size(), csv_path.c_str());
    return 0;
  }

  for (size_t i = 0; i < range->size(); ++i) {
    std::printf("%zu %.10g\n", from + i, (*range)[i]);
  }
  return 0;
}

int RunAggregate(const tools::Args& args) {
  if (!args.Validate({"mbase", "signal", "from", "to", "noindex", "exact"})) {
    return 2;
  }
  storage::QueryServiceOptions opts;
  opts.m_base = static_cast<size_t>(args.GetInt("mbase", 1024));
  opts.index.enabled = !args.Has("noindex");
  storage::QueryService service(opts);
  if (int rc = LoadService(args.positional()[1], &service); rc != 0) {
    return rc;
  }
  auto snap = service.Snapshot(0);
  const size_t signal = static_cast<size_t>(args.GetInt("signal", 0));
  const size_t from = static_cast<size_t>(args.GetInt("from", 0));
  const size_t to = static_cast<size_t>(args.GetInt(
      "to", static_cast<long>(snap ? snap->compressed.history_len() : 0)));
  auto agg = service.Aggregate(0, signal, from, to);
  if (!agg.ok()) return Fail(agg.status());
  std::printf("signal %zu, samples [%zu, %zu): epoch=%llu n=%zu sum=%.10g "
              "avg=%.10g variance=%.10g min=%.10g max=%.10g\n",
              signal, from, to,
              static_cast<unsigned long long>(service.epoch(0)), agg->count,
              agg->sum, agg->avg, agg->variance, agg->min, agg->max);
  if (args.Has("exact") && snap != nullptr) {
    // Second row: the exact recompute of the same range from decoded
    // samples — eyeballable compressed-vs-exact drift.
    auto exact = snap->history.AggregateExact(signal, from, to);
    if (!exact.ok()) return Fail(exact.status());
    std::printf("exact   %zu, samples [%zu, %zu): epoch=%llu n=%zu "
                "sum=%.10g avg=%.10g variance=%.10g min=%.10g max=%.10g\n",
                signal, from, to,
                static_cast<unsigned long long>(snap->epoch), exact->count,
                exact->sum, exact->avg, exact->variance, exact->min,
                exact->max);
  }
  return 0;
}

int RunServe(const tools::Args& args) {
  if (!args.Validate({"mbase", "threads", "queries", "seed", "noindex"})) {
    return 2;
  }
  storage::QueryServiceOptions opts;
  opts.m_base = static_cast<size_t>(args.GetInt("mbase", 1024));
  opts.index.enabled = !args.Has("noindex");
  storage::QueryService service(opts);
  if (int rc = LoadService(args.positional()[1], &service); rc != 0) {
    return rc;
  }
  auto snap = service.Snapshot(0);
  if (snap == nullptr || snap->compressed.history_len() == 0) {
    std::fprintf(stderr, "log produced no queryable history\n");
    return 1;
  }
  const size_t len = snap->compressed.history_len();
  const size_t num_signals = snap->compressed.num_signals();
  const size_t threads =
      std::max<long>(1, args.GetInt("threads", 4));
  const size_t per_thread =
      std::max<long>(1, args.GetInt("queries", 1000));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      std::mt19937_64 rng(seed + w);
      std::uniform_int_distribution<size_t> pick_t(0, len - 1);
      std::uniform_int_distribution<size_t> pick_s(0, num_signals - 1);
      for (size_t q = 0; q < per_thread; ++q) {
        size_t a = pick_t(rng), b = pick_t(rng);
        if (a > b) std::swap(a, b);
        const size_t sig = pick_s(rng);
        switch (q % 3) {
          case 0:
            (void)service.Aggregate(0, sig, a, b + 1);
            break;
          case 1:
            (void)service.Reconstruct(0, sig, a, b + 1);
            break;
          default:
            (void)service.Point(0, sig, a);
            break;
        }
      }
    });
  }
  for (auto& t : workers) t.join();

  const storage::QueryServiceCounters c = service.counters();
  std::printf("served %llu queries over %zu samples x %zu signals "
              "(epoch %llu, %zu threads)\n",
              static_cast<unsigned long long>(c.queries), len, num_signals,
              static_cast<unsigned long long>(service.epoch(0)), threads);
  std::printf("dataloss answers: %llu; publishes: %llu\n",
              static_cast<unsigned long long>(c.dataloss),
              static_cast<unsigned long long>(c.publishes));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args =
      tools::Args::Parse(argc, argv, {"stats", "noindex", "exact"});
  const auto& pos = args.positional();
  if (!pos.empty() && pos[0] == "aggregate") {
    if (pos.size() != 2) {
      std::fprintf(stderr, "usage: sbr_query aggregate <log> [flags]\n");
      return 2;
    }
    return RunAggregate(args);
  }
  if (!pos.empty() && pos[0] == "serve") {
    if (pos.size() != 2) {
      std::fprintf(stderr, "usage: sbr_query serve <log> [flags]\n");
      return 2;
    }
    return RunServe(args);
  }
  if (pos.size() != 1) {
    std::fprintf(stderr,
                 "usage: sbr_query [aggregate|serve] <log> [flags]\n");
    return 2;
  }
  return RunReconstruct(args);
}
