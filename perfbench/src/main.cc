// perfbench: the SBR pipeline benchmark binary. One invocation runs one
// workload:
//
//   perfbench --workload weather_field|station_ingest|history_query
//             --seed N --seconds S --trace 0|1 --out-dir DIR [--git-sha SHA]
//
// Set-up runs several times (median reported as setup_s). The untraced
// timed phase repeats the workload's fixed pass until the time budget is
// spent; exact metrics come from its first pass. With --trace 0 that is
// the whole timed phase and the end-to-end metrics are printed. With
// --trace 1 the budget is split: half untraced, half traced (obs enabled,
// the benchmark's spans around every public call), the exact metrics of
// the two halves must agree bit for bit, and the per-layer metrics are
// printed. The last line of stdout is the result object; the line before
// it is the same metrics stamped with seed, core count, build type and
// git SHA, followed by every timing as measured, before its scaling to
// reference host speed.
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string out_dir;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = true;
    } else if (key == "--trace") {
      args->trace = value == "1" ? 1 : 0;
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && args->seconds > 0 &&
         !args->workload.empty() && !args->out_dir.empty();
}

/// Everything one timed phase measured, over all of its passes.
struct Phase {
  PassResult total;
  ExactMetrics exact;  ///< from the first pass
  size_t passes = 0;
};

/// Repeats the workload's pass until `budget_s` of wall time is spent
/// (at least once). Returns false after a workload error.
bool RunPhase(Workload* workload, double budget_s, LayerTrace* trace,
              HostSpeed* speed, Checks* checks, Phase* phase) {
  const auto start = Clock::now();
  speed->Sample();
  do {
    PassResult pass;
    PassOptions options;
    options.exact = phase->passes == 0;
    options.between = [trace, speed] {
      return (trace != nullptr ? trace->Drain() : 0.0) + speed->MaybeSample();
    };
    const sbr::Status status = workload->RunPass(options, &pass, checks);
    if (!checks->ExpectOk(status, "workload pass")) return false;
    if (phase->passes == 0) phase->exact = pass.exact;
    phase->total.seconds += pass.seconds;
    phase->total.visible_values += pass.visible_values;
    phase->total.ingested_frames += pass.ingested_frames;
    phase->total.visible.Merge(pass.visible);
    phase->total.query.Merge(pass.query);
    ++phase->passes;
  } while (SecondsSince(start) < budget_s);
  speed->Sample();
  return true;
}

/// One reported metric. A timing is measured as `raw` and reported at
/// reference host speed, `raw * scale`; exact metrics have scale 1.
struct Metric {
  std::string name;
  double raw;
  std::string unit;
  double scale = 1.0;

  double value() const { return raw * scale; }
};

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The metrics as a JSON object: reported values, or with `raw` the
/// unscaled timings only.
std::string MetricsJson(const std::vector<Metric>& metrics, bool raw) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (raw && m.scale == 1.0) continue;
    if (out.size() > 1) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " +
           Number(raw ? m.raw : m.value()) + ", \"unit\": \"" + m.unit +
           "\"}";
  }
  return out + "}";
}

std::string StampJson(const Args& args, unsigned nproc) {
  return "\"workload\": \"" + args.workload + "\", \"seed\": " +
         std::to_string(args.seed) + ", \"seconds\": " + Number(args.seconds) +
         ", \"trace\": " + std::to_string(args.trace) +
         ", \"nproc\": " + std::to_string(nproc) +
         ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"git_sha\": \"" +
         args.git_sha + "\"";
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool SameBits(const ExactMetrics& a, const ExactMetrics& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, value] : a) {
    auto it = b.find(name);
    if (it == b.end() ||
        std::bit_cast<uint64_t>(value) != std::bit_cast<uint64_t>(it->second)) {
      std::fprintf(stderr, "perfbench: exact metric %s differs traced vs "
                           "untraced\n", name.c_str());
      return false;
    }
  }
  return true;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& dir) {
  if (name == "weather_field") return MakeWeatherField(dir);
  if (name == "station_ingest") return MakeStationIngest(dir);
  if (name == "history_query") return MakeHistoryQuery(dir);
  return nullptr;
}

void WriteTrace(const Args& args, unsigned nproc, const LayerTrace& layers) {
  const std::string dir = args.out_dir + "/traces";
  std::filesystem::create_directories(dir);
  const std::string chrome =
      sbr::obs::TraceCollector::ToChromeJson(layers.kept());
  std::ofstream out(dir + "/" + args.workload + "-seed" +
                    std::to_string(args.seed) + ".json");
  out << "{\"otherData\": {" << StampJson(args, nproc) << "}, "
      << chrome.substr(1) << "\n";
}

int Run(const Args& args) {
  const unsigned nproc = std::thread::hardware_concurrency();
  // The station keeps its log paths on the heap, so every run's paths have
  // the same length: heap_bytes_per_sample repeats bit for bit.
  char pid[16];
  std::snprintf(pid, sizeof(pid), "%010d", static_cast<int>(::getpid()));
  const std::string work_dir =
      args.out_dir + "/run-" + args.workload + "-" + pid;
  sbr::obs::SetEnabled(false);
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, work_dir + "/logs");
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  Checks checks;
  const bool reads = args.workload == "history_query";

  // Each timing is scaled by the host-speed samples taken around it.
  HostSpeed speed;
  std::vector<double> setup_s;
  bool ok = true;
  const size_t setup_mark = speed.mark();
  for (size_t r = 0; ok && r < workload->setup_repeats(); ++r) {
    speed.Sample();
    const auto start = Clock::now();
    ok = checks.ExpectOk(workload->Setup(args.seed), "set-up");
    setup_s.push_back(SecondsSince(start));
  }
  speed.Sample();
  const double f_setup = speed.factor(setup_mark, speed.mark());

  Phase untraced, traced;
  LayerTrace layers;
  auto& publish =
      sbr::obs::MetricsRegistry::Global().GetHistogram("query.publish_us");
  uint64_t publish_n = 0, publish_us = 0, dropped = 0;
  const bool traced_run = args.trace == 1;
  const size_t untraced_mark = speed.mark();
  ok = ok && RunPhase(workload.get(),
                      traced_run ? args.seconds / 2 : args.seconds, nullptr,
                      &speed, &checks, &untraced);
  const double f_untraced = speed.factor(untraced_mark, speed.mark());
  const size_t traced_mark = speed.mark();
  if (ok && traced_run) {
    const uint64_t n0 = publish.Count(), us0 = publish.Sum();
    const uint64_t dropped0 = sbr::obs::TraceCollector::Global().dropped();
    sbr::obs::TraceCollector::Global().Clear();
    sbr::obs::SetEnabled(true);
    ok = RunPhase(workload.get(), args.seconds / 2, &layers, &speed, &checks,
                  &traced);
    sbr::obs::SetEnabled(false);
    layers.Drain();
    publish_n = publish.Count() - n0;
    publish_us = publish.Sum() - us0;
    dropped = sbr::obs::TraceCollector::Global().dropped() - dropped0;
    checks.Expect(SameBits(untraced.exact, traced.exact),
                  "exact metrics identical traced and untraced");
    WriteTrace(args, nproc, layers);
  }
  const double f_traced = speed.factor(traced_mark, speed.mark());
  RecoveryResult recovery;
  const size_t recovery_mark = speed.mark();
  ok = ok && checks.ExpectOk(
                 workload->MeasureRecovery(&speed, &recovery, &checks),
                 "station restart");
  const double f_recovery = speed.factor(recovery_mark, speed.mark());
  ok = ok && checks.ExpectOk(workload->Verify(&checks), "oracle checks");
  std::filesystem::remove_all(work_dir);

  const PassResult& u = untraced.total;
  const PassResult& t = traced.total;
  auto exact = [&](const char* name) {
    auto it = untraced.exact.find(name);
    return it == untraced.exact.end() ? 0.0 : it->second;
  };
  // A chunk ingested twice shifts every later chunk of its sensor in time
  // while every query still answers OK; only this count shows it.
  checks.Expect(exact("net.timeline_excess_chunks") == 0.0,
                "every published timeline holds one slot per sensed chunk");
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"setup_s", Quantile(setup_s, 0.5), "s", f_setup},
        {"values_per_s", Ratio(u.visible_values, u.seconds), "values/s",
         1.0 / f_untraced},
        {"visible_ms_p50", u.visible.QuantileNs(0.5) * 1e-6, "ms", f_untraced},
        {"visible_ms_p90", u.visible.QuantileNs(0.9) * 1e-6, "ms", f_untraced},
        {"query_us_p50", u.query.QuantileNs(0.5) * 1e-3, "us", f_untraced},
        {"query_us_p90", u.query.QuantileNs(0.9) * 1e-3, "us", f_untraced},
        {"recovery_s", recovery.recovery_s, "s", f_recovery},
        {"air_bytes_per_value", exact("air_bytes_per_value"), "bytes"},
        {"energy_nj_per_value", exact("energy_nj_per_value"), "nJ"},
        {"sse_per_value", exact("sse_per_value"), "value_sq"},
        {"chunk_loss_share", exact("chunk_loss_share"), "ratio"},
        {"heap_bytes_per_sample", exact("heap_bytes_per_sample"), "bytes"},
    };
  } else {
    const LatencyRecorder& encode = layers.durations(span::kEncode);
    const LatencyRecorder& rx = layers.durations(span::kStationRx);
    const double encode_ns = static_cast<double>(encode.total_ns());
    const double rx_ns = static_cast<double>(rx.total_ns());
    const double rx_self_ns =
        rx_ns - static_cast<double>(layers.rx_station_decode_ns()) -
        static_cast<double>(publish_us) * 1e3;
    const double f = f_traced;
    // Slowdown under tracing: traced over untraced time per unit of work.
    const double overhead =
        reads ? Ratio(t.query.QuantileNs(0.5) * f_traced,
                      u.query.QuantileNs(0.5) * f_untraced)
              : Ratio(Ratio(u.visible_values, u.seconds) / f_untraced,
                      Ratio(t.visible_values, t.seconds) / f_traced);
    metrics = {
        {"core.encode_ms_p50", encode.QuantileNs(0.5) * 1e-6, "ms", f},
        {"core.get_base_share",
         Ratio(layers.encode_stage_ns("encode.get_base"), encode_ns), "ratio"},
        {"core.search_share",
         Ratio(layers.encode_stage_ns("encode.search"), encode_ns), "ratio"},
        {"core.approx_share",
         Ratio(layers.encode_stage_ns("encode.approx"), encode_ns), "ratio"},
        {"core.search_probes_per_chunk", exact("core.search_probes_per_chunk"),
         "count"},
        {"core.moment_hit_ratio", exact("core.moment_hit_ratio"), "ratio"},
        {"core.intervals_per_chunk", exact("core.intervals_per_chunk"),
         "count"},
        {"net.deliver_ms_p50",
         layers.durations(span::kDeliver).QuantileNs(0.5) * 1e-6, "ms", f},
        {"net.copies_per_chunk", exact("net.copies_per_chunk"), "count"},
        {"net.retransmissions_per_chunk",
         exact("net.retransmissions_per_chunk"), "count"},
        {"net.resyncs_per_chunk", exact("net.resyncs_per_chunk"), "count"},
        {"net.degraded_share", exact("net.degraded_share"), "ratio"},
        {"net.accept_ratio", exact("net.accept_ratio"), "ratio"},
        {"net.timeline_excess_chunks", exact("net.timeline_excess_chunks"),
         "count"},
        {"net.station_rx_us_p50", rx.QuantileNs(0.5) * 1e-3, "us", f},
        {"net.station_rx_self_share", Ratio(rx_self_ns, rx_ns), "ratio"},
        {"storage.decodes_per_chunk",
         Ratio(static_cast<double>(layers.decode().count()),
               static_cast<double>(t.ingested_frames)),
         "count"},
        {"storage.decode_us_p50", layers.decode().QuantileNs(0.5) * 1e-3, "us",
         f},
        {"storage.service_ingest_us_mean",
         Ratio(static_cast<double>(publish_us),
               static_cast<double>(publish_n)),
         "us", f},
        {"storage.log_bytes_per_value", exact("storage.log_bytes_per_value"),
         "bytes"},
        {"storage.log_open_s", recovery.log_open_s, "s", f_recovery},
        {"storage.replay_s", recovery.replay_s, "s", f_recovery},
        {"storage.aggregate_us_p50",
         layers.durations(span::kAggregate).QuantileNs(0.5) * 1e-3, "us", f},
        {"storage.point_us_p50",
         layers.durations(span::kPoint).QuantileNs(0.5) * 1e-3, "us", f},
        {"storage.reconstruct_us_p50",
         layers.durations(span::kReconstruct).QuantileNs(0.5) * 1e-3, "us", f},
        {"storage.cache_hit_ratio", exact("storage.cache_hit_ratio"), "ratio"},
        {"storage.cache_evictions", exact("storage.cache_evictions"), "count"},
        {"obs.trace_overhead", overhead, "ratio"},
        {"obs.spans_dropped", static_cast<double>(dropped), "count"},
        {"obs.attributed_share",
         Ratio(static_cast<double>(layers.attributed_ns()), t.seconds * 1e9),
         "ratio"},
    };
    checks.Expect(dropped == 0, "no span was dropped");
    checks.Expect(layers.attributed_ns() >= 0.9 * t.seconds * 1e9,
                  "layer spans cover at least 90% of the traced phase");
  }
  for (Metric& m : metrics) {
    if (!checks.Expect(std::isfinite(m.value()), "metric is finite")) {
      m.raw = 0.0;
    }
  }
  const bool correct = ok && checks.failed() == 0;
  const std::string body = MetricsJson(metrics, false);
  std::printf("{\"perfbench\": {%s, \"passes_untraced\": %zu, "
              "\"passes_traced\": %zu, \"visible_samples\": %llu, "
              "\"query_samples\": %llu, \"host_speed_samples\": %zu, "
              "\"host_speed_factor\": %s}, \"metrics\": %s, "
              "\"raw_timings\": %s}\n",
              StampJson(args, nproc).c_str(), untraced.passes, traced.passes,
              static_cast<unsigned long long>(u.visible.count()),
              static_cast<unsigned long long>(u.query.count()),
              speed.mark(), Number(f_untraced).c_str(), body.c_str(),
              MetricsJson(metrics, true).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()), body.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR [--git-sha SHA]\n");
    return 2;
  }
  return perfbench::Run(args);
}
