// The ring benchmark: closed-loop TPC-H clients against a live 3-node
// Data Cyclotron ring, every answer checked, with window deltas of the
// program's layer counters and (traced run) layer probes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ringbench {

/// Client layout of one workload. Readers sit on nodes 0, 1, ...; the writer
/// (if any) on the last node.
struct WorkloadSpec {
  const char* name = "";
  uint32_t readers = 0;
  bool writer = false;
};

const std::vector<WorkloadSpec>& Workloads();
std::optional<WorkloadSpec> FindWorkload(std::string_view name);

/// One benchmark invocation. The ring configuration (3 nodes, compression
/// on, plan_workers 4, dcsql timers, library defaults) is a constant in the
/// runner; only the smoke test shrinks `scale`.
struct Config {
  WorkloadSpec workload;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  double scale = 0.1;
  std::string trace_path;  ///< span file of the traced run ("" = not written)
};

// ---- seeded inputs ----------------------------------------------------------

/// Order in which `client` runs Q1/Q3/Q5/Q6/Q10 (workload::TpchSqlQueries)
/// on lap `lap`; lap 0 is the warm-up.
std::vector<int> LapOrder(uint64_t seed, uint32_t client, uint64_t lap);
/// The first `n` marker keys of the writer. Marker keys lie above the
/// generated key space, so marker rows never join an order.
std::vector<int64_t> WriterKeys(uint64_t seed, size_t n);

// ---- results ------------------------------------------------------------------

/// One reported figure. `note` names the base of a ratio or the sample count
/// behind a percentile; it is printed beside the value, not in the JSON.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

struct Report {
  bool correct = true;      ///< nothing failed: no error, refusal or mismatch
  uint64_t attempted = 0;   ///< reads + commits + the final count check
  uint64_t failed = 0;      ///< errors, refusals and mismatches
  std::string error;        ///< set when the run could not be carried out
  /// Percentiles without kMinTailSamples samples beyond them (reported as 0).
  std::vector<std::string> unsupported;
  std::vector<Metric> end_to_end;  ///< the untraced metrics (BENCHMARK.json)
  std::vector<Metric> per_layer;   ///< the traced metrics (BENCHMARK.json)
  /// The writer's figures and error_ratio, printed by every run. They are 0
  /// on read-only workloads, so they ride in per_layer, not end_to_end.
  std::vector<Metric> extra;
};

/// Generates the inputs, sets up the ring kSetups times, runs the
/// timed window and checks every answer. Never throws; a run that cannot be
/// carried out returns with `error` set.
Report Run(const Config& config);

}  // namespace ringbench
