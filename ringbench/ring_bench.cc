#include "ring_bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "bat/encoding.h"
#include "common/random.h"
#include "common/units.h"
#include "exec/executor.h"
#include "probes.h"
#include "runtime/ring_cluster.h"
#include "runtime/session.h"
#include "stats.h"
#include "trace.h"
#include "workload/tpch_data.h"

namespace ringbench {

using namespace dcy;  // NOLINT

namespace {

using runtime::RingCluster;

constexpr uint32_t kNodes = 3;
/// Marker rows of the writer: keys above every generated l_orderkey and a
/// ship date outside every query window, so read answers stay checkable.
constexpr int64_t kMarkerBase = 900000000;
constexpr uint64_t kMarkerSpan = 100000000;
/// Smallest read count at which latency_p90_ms has kMinTailSamples beyond it.
constexpr uint64_t kMinWindowReads = 100;
/// Set-ups per run; setup_s reports their median and the last one serves
/// the timed window.
constexpr int kSetups = 3;
/// Longest wait for the compactors to fold the writer's tail.
constexpr auto kDrainTimeout = std::chrono::seconds(30);

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
double Millis(Clock::duration d) { return 1e3 * Seconds(d); }
Clock::duration FromSecs(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// The ring configuration every workload runs at: 3 nodes, plan_workers 4,
/// compression on (the library default), the timers dcsql sets, and library
/// defaults for everything else.
RingCluster::Options RingOptions() {
  RingCluster::Options o;
  o.num_nodes = kNodes;
  o.plan_workers = 4;
  o.node.load_all_period = FromMillis(2);
  o.node.maintenance_period = FromMillis(10);
  o.node.adapt_period = FromMillis(10);
  o.node.initial_rotation_estimate = FromMillis(5);
  return o;
}

/// Independent stream per (seed, purpose, index) so adding a client never
/// shifts another client's sequence.
Rng Stream(uint64_t seed, uint64_t purpose, uint64_t index) {
  SplitMix64 mix(seed ^ (purpose * 0x9E3779B97F4A7C15ULL));
  return Rng(mix.Next() ^ (index * 0xD1B54A32D192ED03ULL));
}

class KeyStream {
 public:
  explicit KeyStream(uint64_t seed) : rng_(Stream(seed, 2, 0)) {}
  int64_t Next() {
    return kMarkerBase + static_cast<int64_t>(rng_.UniformU64(0, kMarkerSpan - 1));
  }

 private:
  Rng rng_;
};

std::string InsertSql(int64_t key) {
  const long long qty = 1 + key % 5;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "insert into lineitem (l_orderkey, l_suppkey, l_quantity, "
                "l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus, "
                "l_shipdate) values "
                "(%lld, 1, %lld, %lld, 0.0, 0.0, 'Z', 'Z', 20990101);",
                static_cast<long long>(key), qty, qty * 1000);
  return buf;
}

std::string DeleteSql(int64_t key) {
  return "delete from lineitem where l_orderkey = " + std::to_string(key) + ";";
}

bool ValuesMatch(const bat::Value& got, const bat::Value& want) {
  if (want.type == bat::ValType::kStr) {
    return got.type == bat::ValType::kStr && got.s == want.s;
  }
  if (want.type == bat::ValType::kDbl) {
    const double g = got.AsDouble(), w = want.AsDouble();
    // Sums of ~1e5 cent-quantized terms: tolerate reassociation error.
    return std::fabs(g - w) <= 1e-6 * std::max(1.0, std::max(std::fabs(g), std::fabs(w)));
  }
  return got.AsInt64() == want.AsInt64();
}

/// Compares a live result with the reference; describes the first divergence.
bool Matches(const runtime::ResultSet& got, const workload::TpchAnswer& want,
             std::string* why) {
  if (got.num_columns() != want.names.size() || got.num_rows() != want.rows.size()) {
    *why = "shape " + std::to_string(got.num_rows()) + "x" +
           std::to_string(got.num_columns()) + ", want " +
           std::to_string(want.rows.size()) + "x" + std::to_string(want.names.size());
    return false;
  }
  for (size_t r = 0; r < want.rows.size(); ++r) {
    for (size_t c = 0; c < want.names.size(); ++c) {
      const bat::Value g = got.ValueAt(r, c);
      if (!ValuesMatch(g, want.rows[r][c])) {
        *why = "row " + std::to_string(r) + " " + want.names[c] + ": got " +
               g.ToString() + ", want " + want.rows[r][c].ToString();
        return false;
      }
    }
  }
  return true;
}

/// Inputs made from the seed before any timing starts.
struct Inputs {
  workload::TpchData data;
  std::map<int, std::string> sql;
  std::map<int, workload::TpchAnswer> answers;
};

/// What one client saw. Written only by its own thread; read after join.
struct ClientLog {
  std::vector<double> read_ms, insert_ms, delete_ms;  // timed window only
  double queued_s = 0, exec_s = 0, pin_s = 0;         // window reads, summed
  uint64_t attempted = 0, failed = 0;
  int64_t net_rows = 0;  ///< marker rows inserted minus deleted on the current ring
  /// Busy time and reads of untraced [0] and traced [1] window laps.
  double busy_s[2] = {0, 0};
  uint64_t reads_in[2] = {0, 0};
  Clock::time_point last_done{};
  std::string first_error;

  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
};

/// Spans of one query: root, prepare, execute, and execute's children from
/// QueryTiming (queued, exec, and the summed pin wait inside exec).
void RecordQuerySpans(Trace* trace, const char* root, uint32_t lane, Clock::time_point t0,
                      Clock::time_point t1, Clock::time_point t2,
                      const runtime::QueryResult& r) {
  const uint64_t q = r.query_id;
  const uint64_t id = trace->Record(root, 0, lane, q, t0, t2);
  trace->Record("prepare", id, lane, q, t0, t1);
  const uint64_t ex = trace->Record("execute", id, lane, q, t1, t2);
  const auto queued_end = t1 + FromSecs(r.timing.queued_seconds);
  trace->Record("queued", ex, lane, q, t1, queued_end);
  const uint64_t run = trace->Record("exec", ex, lane, q, queued_end,
                                     queued_end + FromSecs(r.timing.exec_seconds));
  trace->Record("pin_blocked_summed", run, lane, q, queued_end,
                queued_end + FromSecs(r.timing.pin_blocked_seconds));
}

struct Client {
  uint32_t index = 0;  ///< 0-based; readers first, then the writer
  bool writer = false;
  std::optional<runtime::Session> session;  ///< on the current ring
  ClientLog log;
};

class Runner {
 public:
  Runner(const Config& config, const Inputs& inputs, Trace* trace)
      : config_(config), in_(inputs), trace_(trace), keys_(config.seed) {}

  /// One read query: Prepare (a plan-cache hit after set-up), Execute,
  /// validate. `window` records latency; `traced` records spans. True when
  /// the answer matched.
  bool Read(Client* c, int q, bool window, bool traced) {
    ClientLog& log = c->log;
    ++log.attempted;
    const auto t0 = Clock::now();
    auto prepared = c->session->Prepare(in_.sql.at(q));
    const auto t1 = Clock::now();
    const std::string name = "Q" + std::to_string(q);
    if (!prepared.ok()) {
      log.Fail(name + ": " + prepared.status().ToString());
      return false;
    }
    auto r = c->session->Execute(*prepared);
    const auto t2 = Clock::now();
    log.last_done = t2;
    if (!r.ok()) {
      log.Fail(name + ": " + r.status().ToString());
      return false;
    }
    std::string why;
    if (!Matches(r->result, in_.answers.at(q), &why)) {
      log.Fail(name + " mismatch: " + why);
      return false;
    }
    if (traced) RecordQuerySpans(trace_, "read", c->index + 1, t0, t1, t2, *r);
    if (!window) return true;
    log.read_ms.push_back(Millis(t2 - t0));
    log.queued_s += r->timing.queued_seconds;
    log.exec_s += r->timing.exec_seconds;
    log.pin_s += r->timing.pin_blocked_seconds;
    log.busy_s[traced ? 1 : 0] += Seconds(t2 - t0);
    ++log.reads_in[traced ? 1 : 0];
    return true;
  }

  /// One commit; true when it affected exactly one row.
  bool Commit(Client* c, const std::string& text, const char* span, bool window,
              bool traced, std::vector<double>* samples) {
    ClientLog& log = c->log;
    ++log.attempted;
    const auto t0 = Clock::now();
    auto prepared = c->session->Prepare(text);
    const auto t1 = Clock::now();
    if (!prepared.ok()) {
      log.Fail(std::string(span) + ": " + prepared.status().ToString());
      return false;
    }
    auto r = c->session->Execute(*prepared);
    const auto t2 = Clock::now();
    log.last_done = t2;
    if (!r.ok()) {
      log.Fail(std::string(span) + ": " + r.status().ToString());
      return false;
    }
    const mal::Datum& rows = r->result.scalar();
    if (!std::holds_alternative<int64_t>(rows) || std::get<int64_t>(rows) != 1) {
      log.Fail(std::string(span) + ": affected-row count is not 1");
      return false;
    }
    if (traced) RecordQuerySpans(trace_, span, c->index + 1, t0, t1, t2, *r);
    if (window) samples->push_back(Millis(t2 - t0));
    return true;
  }

  /// Insert a marker row, then delete it, so the table size stays flat.
  void WritePair(Client* c, int64_t key, bool window, bool traced) {
    if (!Commit(c, InsertSql(key), "commit.insert", window, traced, &c->log.insert_ms)) {
      return;
    }
    ++c->log.net_rows;
    if (Commit(c, DeleteSql(key), "commit.delete", window, traced, &c->log.delete_ms)) {
      --c->log.net_rows;
    }
  }

  /// Warm-up (lap 0, untimed) or the timed window (laps 1.. until the
  /// window ends). In the traced run, odd window laps record spans and even
  /// ones do not, so one run measures the tracing overhead on the same host
  /// state.
  void Drive(Client* c, bool window) {
    if (c->writer) {
      // The key stream is shared by every set-up; only the writer draws.
      do {
        WritePair(c, keys_.Next(), window, trace_->enabled());
        if (c->log.failed > 0) any_failed_ = true;
      } while (window && !WindowOver());
      return;
    }
    for (uint64_t lap = window ? 1 : 0;; ++lap) {
      const bool traced = trace_->enabled() && (!window || lap % 2 == 1);
      for (int q : LapOrder(config_.seed, c->index, lap)) {
        if (window && WindowOver()) return;
        if (Read(c, q, window, traced)) {
          if (window) window_reads_.fetch_add(1, std::memory_order_relaxed);
        } else {
          any_failed_ = true;
        }
      }
      if (!window) return;
    }
  }

  /// Runs the warm-up lap, or the timed window of `seconds`, on every client
  /// in its own thread, and joins them.
  void DriveAll(std::vector<Client>* clients, bool window, double seconds = 0) {
    window_reads_ = 0;
    deadline_ = Clock::now() + FromSecs(seconds);
    std::vector<std::thread> threads;
    threads.reserve(clients->size());
    for (Client& c : *clients) {
      threads.emplace_back([this, &c, window] { Drive(&c, window); });
    }
    for (auto& t : threads) t.join();
  }

 private:
  /// The window lasts `seconds` and at least until kMinWindowReads reads
  /// succeeded, so latency_p90_ms always meets the tail rule. A failed
  /// operation fails the run, so after one the deadline alone ends it.
  bool WindowOver() const {
    return Clock::now() >= deadline_ &&
           (window_reads_.load(std::memory_order_relaxed) >= kMinWindowReads ||
            any_failed_.load(std::memory_order_relaxed));
  }

  const Config& config_;
  const Inputs& in_;
  Trace* trace_;
  KeyStream keys_;
  Clock::time_point deadline_{};
  std::atomic<uint64_t> window_reads_{0};  ///< successful window reads
  std::atomic<bool> any_failed_{false};
};

/// Monotonic counters of every layer, summed over nodes.
struct Counters {
  core::DcNodeMetrics node;
  RingCluster::ResilienceMetrics res;
  RingCluster::BandwidthMetrics bw;
  write::WriteMetrics writes;
  storage::MemoryMetrics mem;
  exec::ExecutorMetrics exec;
  RingCluster::PlanCacheStats plan;
  double cpu_s = 0;
};

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Counters Snapshot(const RingCluster& ring) {
  Counters c;
  for (core::NodeId n = 0; n < ring.num_nodes(); ++n) {
    const core::DcNodeMetrics m = ring.NodeMetrics(n);
    c.node.pins_total += m.pins_total;
    c.node.pins_blocked += m.pins_blocked;
    c.node.bats_loaded += m.bats_loaded;
    c.node.bats_presumed_lost += m.bats_presumed_lost;
    c.node.request_msgs_sent += m.request_msgs_sent;
    c.node.requests_absorbed += m.requests_absorbed;
    c.node.resends += m.resends;
  }
  c.res = ring.Resilience();
  c.bw = ring.Bandwidth();
  c.writes = ring.Writes();
  c.mem = ring.Memory();
  c.exec = exec::Executor::Default().metrics();
  c.plan = ring.plan_cache_stats();
  c.cpu_s = CpuSeconds();
  return c;
}

double D(uint64_t after, uint64_t before) {
  return static_cast<double>(after) - static_cast<double>(before);
}

/// Waits until every pending delta is folded, or the timeout passes.
bool DrainCompactors(const RingCluster& ring) {
  const auto deadline = Clock::now() + kDrainTimeout;
  while (ring.Writes().pending_deltas != 0) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

/// Instructions and algebra.leftjoin calls of a compiled plan.
void CountPlan(const mal::Program& p, double* instructions, double* leftjoins) {
  *instructions += static_cast<double>(p.instructions.size());
  for (const auto& ins : p.instructions) {
    if (ins.module == "algebra" && ins.fn == "leftjoin") *leftjoins += 1;
  }
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {"tpch_serial", 1, false},
      {"tpch_concurrent", 3, false},
      {"read_write", 2, true},
  };
  return kAll;
}

std::optional<WorkloadSpec> FindWorkload(std::string_view name) {
  for (const auto& w : Workloads()) {
    if (name == w.name) return w;
  }
  return std::nullopt;
}

std::vector<int> LapOrder(uint64_t seed, uint32_t client, uint64_t lap) {
  std::vector<int> order = workload::TpchSqlQueries();
  Rng rng = Stream(seed, 1, (static_cast<uint64_t>(client) << 40) ^ lap);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformU64(0, i - 1)]);
  }
  return order;
}

std::vector<int64_t> WriterKeys(uint64_t seed, size_t n) {
  KeyStream keys(seed);
  std::vector<int64_t> out(n);
  for (auto& k : out) k = keys.Next();
  return out;
}

Report Run(const Config& config) {
  Report rep;
  bat::enc::SetWireCompression(true);

  // Inputs and reference answers, before any timing.
  Inputs in;
  in.data = workload::GenerateTpchData(config.scale, config.seed);
  for (int q : workload::TpchSqlQueries()) {
    in.sql[q] = workload::TpchQuerySql(q);
    in.answers[q] = workload::TpchReferenceAnswer(in.data, q);
  }
  const int64_t base_rows = static_cast<int64_t>(in.data.lineitem.rows());

  Trace trace(config.trace);
  Runner runner(config, in, &trace);
  const WorkloadSpec& spec = config.workload;
  std::vector<Client> clients(spec.readers + (spec.writer ? 1 : 0));
  for (uint32_t i = 0; i < clients.size(); ++i) {
    clients[i].index = i;
    clients[i].writer = spec.writer && i == spec.readers;
  }

  // Set-up: ring construction, LoadBat, Start, every Prepare, warm-up lap.
  // Repeated; all but the last ring are torn down again.
  std::unique_ptr<RingCluster> ring;
  std::vector<double> setup_s, warmup_s;
  for (int s = 0; s < kSetups; ++s) {
    if (ring) {
      ring->Stop();
      ring.reset();
    }
    auto bats = workload::TpchBats(in.data);
    const auto t0 = Clock::now();
    ring = std::make_unique<RingCluster>(RingOptions());
    core::NodeId owner = 0;
    for (auto& [name, b] : bats) {
      const Status st = ring->LoadBat(owner, name, std::move(b));
      if (!st.ok()) {
        rep.error = "LoadBat " + name + ": " + st.ToString();
        return rep;
      }
      owner = (owner + 1) % kNodes;
    }
    ring->Start();
    for (Client& c : clients) {
      // Readers on nodes 0, 1, ...; the writer on the last node.
      auto session = ring->OpenSession(c.writer ? kNodes - 1 : c.index % kNodes);
      if (!session.ok()) {
        rep.error = "OpenSession: " + session.status().ToString();
        return rep;
      }
      c.session = *session;
      c.log.net_rows = 0;
      if (c.writer) continue;
      for (int q : workload::TpchSqlQueries()) {
        const auto p0 = Clock::now();
        auto p = c.session->Prepare(in.sql.at(q));
        trace.Record("setup.prepare", 0, c.index + 1, 0, p0, Clock::now());
        if (!p.ok()) {
          rep.error = "Prepare Q" + std::to_string(q) + ": " + p.status().ToString();
          return rep;
        }
      }
    }
    const auto t1 = Clock::now();
    runner.DriveAll(&clients, /*window=*/false);
    const auto t2 = Clock::now();
    setup_s.push_back(Seconds(t2 - t0));
    warmup_s.push_back(Seconds(t2 - t1));
  }

  // The timed window.
  const Counters before = Snapshot(*ring);
  const auto start = Clock::now();
  runner.DriveAll(&clients, /*window=*/true, config.seconds);
  Clock::time_point end = start;
  for (const Client& c : clients) end = std::max(end, c.log.last_done);
  const Counters after = Snapshot(*ring);
  const double window_s = Seconds(end - start);

  // Final table size against the writer's bookkeeping, once the compactors
  // have folded every pending delta.
  ClientLog checks;
  if (!DrainCompactors(*ring)) {
    checks.Fail("compactors did not drain pending deltas");
  }
  int64_t net_rows = 0;
  for (const Client& c : clients) net_rows += c.log.net_rows;
  {
    ++checks.attempted;
    auto count = clients.front().session->Execute("select count(*) from lineitem;");
    if (!count.ok()) {
      checks.Fail("final count: " + count.status().ToString());
    } else if (count->result.ValueAt(0, 0).AsInt64() != base_rows + net_rows) {
      checks.Fail("final lineitem count " + count->result.ValueAt(0, 0).ToString() +
                      ", want " + std::to_string(base_rows + net_rows));
    }
  }

  // Plan shape of the read mix (cache hits on the prepared plans).
  double plan_ins = 0, plan_lj = 0;
  for (int q : workload::TpchSqlQueries()) {
    auto p = ring->Prepare(in.sql.at(q), runtime::PrepareOptions{});
    if (p.ok()) CountPlan((*p)->program(), &plan_ins, &plan_lj);
  }
  const sql::Schema schema = ring->SqlSchema();
  const storage::MemoryMetrics mem_end = ring->Memory();
  ring->Stop();

  ProbeResults probes;
  if (config.trace) {
    std::vector<std::string> statements;
    for (int q : workload::TpchSqlQueries()) statements.push_back(in.sql.at(q));
    statements.push_back(InsertSql(kMarkerBase));
    statements.push_back(DeleteSql(kMarkerBase));
    probes = RunLayerProbes(in.data, schema, statements, &trace);
    if (!probes.error.empty()) rep.error = probes.error;
    if (!config.trace_path.empty() && !trace.WriteChromeJson(config.trace_path)) {
      std::fprintf(stderr, "ringbench: could not write %s\n", config.trace_path.c_str());
    }
  }
  ring.reset();

  // ---- tallies ---------------------------------------------------------------
  std::vector<double> read_ms, insert_ms, delete_ms;
  double queued_s = 0, exec_s = 0, pin_s = 0, busy[2] = {0, 0}, reads_in[2] = {0, 0};
  std::vector<const ClientLog*> logs = {&checks};
  for (const Client& c : clients) logs.push_back(&c.log);
  for (const ClientLog* l : logs) {
    read_ms.insert(read_ms.end(), l->read_ms.begin(), l->read_ms.end());
    insert_ms.insert(insert_ms.end(), l->insert_ms.begin(), l->insert_ms.end());
    delete_ms.insert(delete_ms.end(), l->delete_ms.begin(), l->delete_ms.end());
    queued_s += l->queued_s;
    exec_s += l->exec_s;
    pin_s += l->pin_s;
    for (int k = 0; k < 2; ++k) {
      busy[k] += l->busy_s[k];
      reads_in[k] += static_cast<double>(l->reads_in[k]);
    }
    rep.attempted += l->attempted;
    rep.failed += l->failed;
    if (!l->first_error.empty()) {
      std::fprintf(stderr, "ringbench: %s\n", l->first_error.c_str());
    }
  }
  // Nothing is injected on this ring, so every error, refusal or timeout is
  // a program fault and fails the run like a mismatch does.
  rep.correct = rep.failed == 0;

  const double reads = static_cast<double>(read_ms.size());
  const double commits = static_cast<double>(insert_ms.size() + delete_ms.size());
  const double ops = reads + commits;
  auto n = [](size_t count, const char* what) {
    return "n=" + std::to_string(count) + " " + what;
  };
  auto pct = [&](const char* name, const std::vector<double>& v, int p, const char* what,
                 bool required) {
    const auto value = Percentile(v, p);
    if (!value && required) rep.unsupported.push_back(name);
    return Metric{name, value.value_or(0.0), "ms", n(v.size(), what)};
  };

  rep.end_to_end = {
      {"qps", Ratio(reads, window_s), "1/s",
       n(read_ms.size(), "reads") + " in " + std::to_string(window_s) + " s"},
      pct("latency_p50_ms", read_ms, 50, "reads", true),
      pct("latency_p90_ms", read_ms, 90, "reads", true),
      {"setup_s", Median(setup_s), "s", "median of " + n(setup_s.size(), "set-ups")},
      {"peak_rss_mb", PeakRssMb(), "MB", "process high-water mark"},
  };
  const std::vector<Metric> writer = {
      {"commits_per_s", Ratio(commits, window_s), "1/s",
       "per window second, " + n(insert_ms.size() + delete_ms.size(), "commits")},
      pct("insert_p50_ms", insert_ms, 50, "inserts", false),
      pct("delete_p50_ms", delete_ms, 50, "deletes", false),
      {"error_ratio",
       Ratio(static_cast<double>(rep.failed), static_cast<double>(rep.attempted)),
       "ratio", "per operation attempted, " + n(rep.attempted, "operations")},
  };

  // Window deltas of the program's counters.
  const Counters& a = after;
  const Counters& b = before;
  const double hops = D(a.bw.hops, b.bw.hops);
  const double hop_bytes = D(a.bw.hop_bytes, b.bw.hop_bytes);
  const double tasks = D(a.exec.tasks_executed, b.exec.tasks_executed);
  const double pins = D(a.node.pins_total, b.node.pins_total);
  const double request_msgs = D(a.node.request_msgs_sent, b.node.request_msgs_sent);
  const double plan_hits = D(a.plan.hits, b.plan.hits);
  const double plan_lookups = plan_hits + D(a.plan.misses, b.plan.misses);
  const double merges = D(a.writes.merges, b.writes.merges);
  const double merge_hits = D(a.writes.merge_cache_hits, b.writes.merge_cache_hits);
  const double merge_s = a.writes.merge_seconds - b.writes.merge_seconds;
  const double qps_untraced = Ratio(reads_in[0], busy[0]);
  const double qps_traced = Ratio(reads_in[1], busy[1]);
  const double plans = static_cast<double>(workload::TpchSqlQueries().size());
  const double mb = 1024.0 * 1024.0;
  const char* per_op = "per read or commit";
  rep.per_layer = {
      {"runtime.exec_ms", 1e3 * Ratio(exec_s, reads), "ms", "per read"},
      {"runtime.pin_blocked_ms", 1e3 * Ratio(pin_s, reads), "ms",
       "per read, overlapping waits summed"},
      {"runtime.queued_ms", 1e3 * Ratio(queued_s, reads), "ms", "per read"},
      {"runtime.cpu_ms_per_op", 1e3 * Ratio(a.cpu_s - b.cpu_s, ops), "ms",
       "process CPU per read or commit"},
      {"runtime.plan_cache_hit_ratio", Ratio(plan_hits, plan_lookups), "ratio",
       "per Prepare lookup"},
      {"runtime.warmup_s", Median(warmup_s), "s", "median over set-ups"},
      {"sql.compile_ms", probes.compile_ms, "ms", "per statement text, probe"},
      {"opt.optimize_ms", probes.optimize_ms, "ms", "per statement text, probe"},
      {"mal.plan_instructions", Ratio(plan_ins, plans), "count", "per read plan"},
      {"mal.leftjoins_per_plan", Ratio(plan_lj, plans), "count", "per read plan"},
      {"exec.tasks_per_query", Ratio(tasks, ops), "count", per_op},
      {"exec.steal_ratio", Ratio(D(a.exec.tasks_stolen, b.exec.tasks_stolen), tasks),
       "ratio", "per task executed"},
      {"exec.blocking_sections_per_query",
       Ratio(D(a.exec.blocking_sections, b.exec.blocking_sections), ops), "count",
       per_op},
      {"bat.select_ms", probes.select_ms, "ms", "lineitem.l_shipdate range, probe"},
      {"bat.leftjoin_ms", probes.leftjoin_ms, "ms", "lineitem projection, probe"},
      {"bat.join_ms", probes.join_ms, "ms", "lineitem x orders on orderkey, probe"},
      {"bat.serialize_mb_per_s", probes.serialize_mb_per_s, "MB/s", "frame MB, probe"},
      {"bat.deserialize_mb_per_s", probes.deserialize_mb_per_s, "MB/s",
       "frame MB, probe"},
      {"bat.crc_mb_per_s", probes.crc_mb_per_s, "MB/s", "frame MB, probe"},
      {"bat.encoded_vs_raw",
       Ratio(D(a.bw.wire_bytes, b.bw.wire_bytes), D(a.bw.raw_bytes, b.bw.raw_bytes)),
       "ratio", "wire bytes per uncompressed byte encoded"},
      {"core.pins_per_query", Ratio(pins, ops), "count", per_op},
      {"core.blocked_pin_ratio", Ratio(D(a.node.pins_blocked, b.node.pins_blocked), pins),
       "ratio", "per pin"},
      {"core.loads_per_query", Ratio(D(a.node.bats_loaded, b.node.bats_loaded), ops),
       "count", per_op},
      {"core.bats_presumed_lost", D(a.node.bats_presumed_lost, b.node.bats_presumed_lost),
       "count", "in the window"},
      {"core.request_msgs_per_query", Ratio(request_msgs, ops), "count", per_op},
      {"core.requests_absorbed_ratio",
       Ratio(D(a.node.requests_absorbed, b.node.requests_absorbed), request_msgs),
       "ratio", "per request message sent"},
      {"core.resends_per_query", Ratio(D(a.node.resends, b.node.resends), ops), "count",
       per_op},
      {"net.retransmits_per_hop", Ratio(D(a.res.retransmits, b.res.retransmits), hops),
       "count", "per payload hop"},
      {"net.acks_per_hop", Ratio(D(a.res.acks_sent, b.res.acks_sent), hops), "count",
       "per payload hop"},
      {"net.duplicates_per_hop",
       Ratio(D(a.res.frames_duplicate, b.res.frames_duplicate), hops), "count",
       "per payload hop"},
      {"rdma.hops_per_query", Ratio(hops, ops), "count", per_op},
      {"rdma.bytes_per_query", Ratio(hop_bytes, ops), "B",
       "payload bytes received per read or commit (the load)"},
      {"rdma.bytes_per_hop", Ratio(hop_bytes, hops), "B", "per payload hop"},
      {"storage.resident_mb", static_cast<double>(mem_end.resident_bytes) / mb, "MB",
       "all nodes, end of window"},
      {"storage.evictions", D(a.mem.evictions, b.mem.evictions), "count",
       "in the window"},
      {"write.merges_per_read", Ratio(merges, reads), "count", "per read"},
      {"write.merge_cache_hit_ratio", Ratio(merge_hits, merges + merge_hits), "ratio",
       "per merged-view lookup"},
      {"write.merge_ms_per_read", 1e3 * Ratio(merge_s, reads), "ms", "per read"},
      {"write.compactions_per_s",
       Ratio(D(a.writes.compactions, b.writes.compactions), window_s), "1/s",
       "per window second"},
      {"write.deltas_per_commit",
       Ratio(D(a.writes.deltas_published, b.writes.deltas_published), commits), "count",
       "per commit"},
      {"write.delta_bytes_per_commit",
       Ratio(D(a.writes.delta_bytes_on_ring, b.writes.delta_bytes_on_ring), commits), "B",
       "per commit"},
      {"write.pending_deltas_end", static_cast<double>(a.writes.pending_deltas), "count",
       "end of window"},
      {"trace.overhead_pct", 100.0 * (1.0 - Ratio(qps_traced, qps_untraced)), "%",
       "traced laps' qps against untraced laps' qps in the same run"},
  };
  rep.per_layer.insert(rep.per_layer.end(), writer.begin(), writer.end());
  rep.extra = writer;
  return rep;
}

}  // namespace ringbench
