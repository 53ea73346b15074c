// Tests of the benchmark's own code: the percentile sample-count rule,
// zero-base ratios, seeded inputs, the metric names against BENCHMARK.json,
// and a short smoke run of every workload with its answers checked.
//
//   cmake --build <dir> --target ringbench_test && ctest --test-dir <dir>
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "ring_bench.h"
#include "stats.h"
#include "workload/tpch_data.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                              \
  do {                                                                           \
    if (!(cond)) {                                                               \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                              \
    }                                                                            \
  } while (0)

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // descending: order must not matter
  return v;
}

void TestPercentileRule() {
  // p90 of 100 samples has exactly 10 beyond its rank.
  auto p90 = ringbench::Percentile(Range(100), 90);
  CHECK(p90.has_value() && *p90 == 90);
  CHECK(!ringbench::Percentile(Range(99), 90).has_value());
  auto p50 = ringbench::Percentile(Range(20), 50);
  CHECK(p50.has_value() && *p50 == 10);
  CHECK(!ringbench::Percentile(Range(19), 50).has_value());
  CHECK(!ringbench::Percentile({}, 50).has_value());
  CHECK(!ringbench::Percentile(Range(100), 0).has_value());
  CHECK(!ringbench::Percentile(Range(100), 100).has_value());
}

void TestMedianAndRatio() {
  CHECK(ringbench::Median({3, 1, 2}) == 2);
  CHECK(ringbench::Median({4, 1, 2, 3}) == 2.5);
  CHECK(ringbench::Median({}) == 0);
  CHECK(ringbench::Ratio(6, 3) == 2);
  CHECK(ringbench::Ratio(5, 0) == 0);
  CHECK(ringbench::Ratio(0, 0) == 0);
}

void TestSeededInputs() {
  std::vector<int> mix = dcy::workload::TpchSqlQueries();
  std::sort(mix.begin(), mix.end());
  bool seeds_differ = false, clients_differ = false;
  for (uint64_t lap = 0; lap < 20; ++lap) {
    const auto a = ringbench::LapOrder(11, 0, lap);
    CHECK(a == ringbench::LapOrder(11, 0, lap));
    auto sorted = a;
    std::sort(sorted.begin(), sorted.end());
    CHECK(sorted == mix);  // every lap runs the whole mix once
    seeds_differ |= a != ringbench::LapOrder(12, 0, lap);
    clients_differ |= a != ringbench::LapOrder(11, 1, lap);
  }
  CHECK(seeds_differ);
  CHECK(clients_differ);

  const auto keys = ringbench::WriterKeys(11, 64);
  CHECK(keys == ringbench::WriterKeys(11, 64));
  CHECK(keys != ringbench::WriterKeys(12, 64));
  // Marker keys stay above the generated key space, so no marker row joins
  // an order and the read answers stay checkable.
  const auto data = dcy::workload::GenerateTpchData(0.01, 11);
  const int64_t max_key =
      *std::max_element(data.lineitem.orderkey.begin(), data.lineitem.orderkey.end());
  for (int64_t k : keys) CHECK(k > max_key);
}

/// Metric names of one section of BENCHMARK.json, in file order.
std::vector<std::string> SectionNames(const std::string& json,
                                      const std::string& section) {
  std::vector<std::string> names;
  const size_t at = json.find("\"" + section + "\"");
  if (at == std::string::npos) return names;
  const size_t open = json.find('[', at);
  const size_t close = json.find(']', open);
  const std::string body = json.substr(open, close - open);
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
  for (std::sregex_iterator it(body.begin(), body.end(), name_re), end; it != end; ++it) {
    names.push_back((*it)[1]);
  }
  return names;
}

std::vector<std::string> Names(const std::vector<ringbench::Metric>& metrics) {
  std::vector<std::string> names;
  for (const auto& m : metrics) names.push_back(m.name);
  return names;
}

ringbench::Report Smoke(const char* workload, bool trace) {
  ringbench::Config config;
  config.workload = *ringbench::FindWorkload(workload);
  config.seed = 7;
  config.seconds = 1;
  config.trace = trace;
  config.scale = 0.01;
  return ringbench::Run(config);
}

void TestSmokeRuns() {
  std::ifstream f(RINGBENCH_SPEC);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string spec = ss.str();
  CHECK(!spec.empty());
  const auto spec_workloads = SectionNames(spec, "workloads");
  CHECK(!spec_workloads.empty());
  for (const auto& n : spec_workloads) CHECK(ringbench::FindWorkload(n).has_value());

  for (const auto& w : ringbench::Workloads()) {
    const ringbench::Report rep = Smoke(w.name, /*trace=*/false);
    std::fprintf(stderr, "smoke %s: attempted %llu failed %llu %s\n", w.name,
                 static_cast<unsigned long long>(rep.attempted),
                 static_cast<unsigned long long>(rep.failed), rep.error.c_str());
    CHECK(rep.error.empty());
    CHECK(rep.correct);
    CHECK(rep.failed == 0);
    CHECK(rep.attempted >= 100);
    CHECK(rep.unsupported.empty());
    CHECK(Names(rep.end_to_end) == SectionNames(spec, "end_to_end"));
    for (const auto& m : rep.end_to_end) CHECK(m.value > 0);  // never 0
  }
  // The traced run adds the probes and reports the per-layer set.
  const ringbench::Report traced = Smoke("read_write", /*trace=*/true);
  CHECK(traced.error.empty());
  CHECK(traced.correct && traced.failed == 0);
  CHECK(Names(traced.per_layer) == SectionNames(spec, "per_layer"));
  for (const auto& m : traced.per_layer) {
    if (m.name == "commits_per_s" || m.name == "bat.join_ms" ||
        m.name == "sql.compile_ms") {
      CHECK(m.value > 0);
    }
  }
}

}  // namespace

int main() {
  TestPercentileRule();
  TestMedianAndRatio();
  TestSeededInputs();
  TestSmokeRuns();
  if (g_failures == 0) std::printf("ringbench_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
