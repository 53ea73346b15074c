// ringbench: one command that starts a live 3-node ring, runs one closed-loop
// TPC-H workload against it, checks every answer and prints the metrics.
//
//   ringbench --workload=tpch_serial --seed=1 --seconds=30 --trace=0
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace=0 reports the end-to-end metrics; --trace=1
// the per-layer ones, and writes the spans to --trace_out. Exit code 1 when any
// operation failed (error, refusal or mismatch), 2 on bad arguments, 3 when
// the run could not be carried out.
#include <cmath>
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "ring_bench.h"

namespace {

void PrintHuman(const std::vector<ringbench::Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("%-36s %16.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
}

void PrintJson(const ringbench::Report& rep,
               const std::vector<ringbench::Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              rep.correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  dcy::Flags flags(argc, argv);
  const std::string name = flags.GetString("workload", "");
  const auto workload = ringbench::FindWorkload(name);
  const double seconds = flags.GetDouble("seconds", 30);
  if (!workload || !(seconds > 0)) {
    std::fprintf(stderr,
                 "usage: ringbench --workload=<tpch_serial|tpch_concurrent|read_write> "
                 "--seed=N --seconds=S --trace=<0|1> [--trace_out=PATH]\n");
    return 2;
  }
  ringbench::Config config;
  config.workload = *workload;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  config.seconds = seconds;
  config.trace = flags.GetInt("trace", 0) != 0;
  config.trace_path = flags.GetString("trace_out", "");

  std::printf("# ringbench %s seed=%llu seconds=%g trace=%d: 3-node ring, "
              "TPC-H scale %g, compression on, plan_workers 4, %u reader(s)%s\n",
              workload->name, static_cast<unsigned long long>(config.seed), seconds,
              config.trace ? 1 : 0, config.scale, workload->readers,
              workload->writer ? " + 1 writer" : "");
  std::fflush(stdout);
  const ringbench::Report rep = ringbench::Run(config);
  if (!rep.error.empty()) {
    std::fprintf(stderr, "ringbench: %s\n", rep.error.c_str());
    return 3;
  }
  PrintHuman(rep.end_to_end);
  PrintHuman(config.trace ? rep.per_layer : rep.extra);
  if (!rep.correct) {
    PrintJson(rep, config.trace ? rep.per_layer : rep.end_to_end);
    return 1;
  }
  if (!rep.unsupported.empty()) {
    std::fprintf(stderr, "ringbench: too few samples for %s; run longer\n",
                 rep.unsupported.front().c_str());
    return 3;
  }
  PrintJson(rep, config.trace ? rep.per_layer : rep.end_to_end);
  return 0;
}
