// Combined stage-report export: one JSON + one CSV artifact carrying the
// merged metrics snapshot and the per-stage span aggregation. This is the
// format the benches (bench_table2, bench_network) emit
// and the observability tests assert the schema of — keep the two in
// sync with DESIGN.md §5f.
//
// JSON schema:
//   {"metrics":[{"name","type","value","aux",("buckets")}...],
//    "stages":[{"name","count","total_us","avg_us"}...]}
// CSV schema (flat, one artifact for both sections):
//   kind,name,value,aux       -- kind in {counter,gauge,histogram}
//   kind,name,count,total_us  -- kind == stage
#ifndef SBR_OBS_EXPORT_H_
#define SBR_OBS_EXPORT_H_

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace sbr::obs {

/// Renders the combined report.
std::string StageReportJson(const MetricsSnapshot& metrics,
                            const std::vector<StageAggregate>& stages);
std::string StageReportCsv(const MetricsSnapshot& metrics,
                           const std::vector<StageAggregate>& stages);

/// Snapshots the global registry, drains the global trace collector and
/// writes <path_prefix>.json and <path_prefix>.csv. Returns false on I/O
/// failure. The drain consumes the buffered spans (a second call reports
/// only events recorded in between).
bool WriteStageReport(const std::string& path_prefix);

}  // namespace sbr::obs

#endif  // SBR_OBS_EXPORT_H_
