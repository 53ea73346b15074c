// End-to-end tests of the live multi-threaded ring: real MAL plans rewritten
// by the DcOptimizer, real BAT payloads circulating over the RDMA-emulating
// channels, results identical to single-node execution.
// Queries run through the session path (OpenSession + Execute: plan cache
// + admission queue); the session API's own contracts are covered in
// session_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bat/operators.h"
#include "exec/executor.h"
#include "runtime/ring_cluster.h"
#include "runtime/session.h"
#include "workload/tpch_data.h"

namespace dcy::runtime {
namespace {

constexpr const char* kTable1Plan = R"(
function user.s1_2():void;
    X1 := sql.bind("sys","t","id",0);
    X6 := sql.bind("sys","c","t_id",0);
    X9 := bat.reverse(X6);
    X10 := algebra.join(X1, X9);
    X13 := algebra.markT(X10,0@0);
    X14 := bat.reverse(X13);
    X15 := algebra.join(X14, X1);
    X16 := sql.resultSet(1,1,X15);
    sql.rsCol(X16,"sys.c","t_id","int",32,0,X15);
    X22 := io.stdout();
    sql.exportResult(X22,X16);
end s1_2;
)";

RingCluster::Options FastOptions(uint32_t nodes = 3) {
  RingCluster::Options opts;
  opts.num_nodes = nodes;
  opts.node.load_all_period = FromMillis(2);
  opts.node.maintenance_period = FromMillis(10);
  opts.node.adapt_period = FromMillis(10);
  opts.node.initial_rotation_estimate = FromMillis(5);
  opts.node.min_resend_timeout = FromMillis(20);
  return opts;
}

class RuntimeRing : public ::testing::Test {
 protected:
  void SetUpCluster(RingCluster::Options opts) {
    cluster = std::make_unique<RingCluster>(opts);
    // sys.t(id) on node 1, sys.c(t_id) on node 2: both remote for node 0.
    ASSERT_TRUE(cluster
                    ->LoadBat(1 % opts.num_nodes, "sys.t.id",
                              bat::Bat::MakeColumn(bat::MakeIntColumn({1, 2, 3, 4})))
                    .ok());
    ASSERT_TRUE(cluster
                    ->LoadBat(2 % opts.num_nodes, "sys.c.t_id",
                              bat::Bat::MakeColumn(bat::MakeIntColumn({2, 3, 3, 5})))
                    .ok());
    cluster->Start();
  }

  /// One blocking query on `node` through a fresh session.
  Result<QueryResult> ExecuteOn(core::NodeId node, const std::string& text) {
    DCY_ASSIGN_OR_RETURN(Session session, cluster->OpenSession(node));
    return session.Execute(text);
  }

  void ExpectTable1Result(const QueryResult& outcome) {
    const std::string text = outcome.result.ToText();
    EXPECT_NE(text.find("sys.c.t_id"), std::string::npos);
    // Rows {2, 3, 3} in some order.
    EXPECT_NE(text.find("2"), std::string::npos);
    EXPECT_NE(text.find("3"), std::string::npos);
    EXPECT_EQ(text.find("5"), std::string::npos);
  }

  std::unique_ptr<RingCluster> cluster;
};

TEST_F(RuntimeRing, ExecutesPaperPlanOverTheRing) {
  SetUpCluster(FastOptions());
  auto outcome = ExecuteOn(0, kTable1Plan);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ExpectTable1Result(*outcome);

  // Both fragments were remote: the ring must actually have moved data.
  EXPECT_GT(cluster->TotalDataBytesMoved(), 0u);
  const auto m0 = cluster->NodeMetrics(0);
  EXPECT_GE(m0.requests_registered, 2u);
  EXPECT_GE(m0.deliveries + m0.pins_local_hit, 2u);
}

TEST_F(RuntimeRing, LocalExecutionOnOwnerNeedsNoRing) {
  SetUpCluster(FastOptions());
  // Node 1 owns sys.t.id; a plan touching only that BAT pins locally.
  auto outcome = ExecuteOn(1, R"(
X1 := sql.bind("sys","t","id",0);
X2 := aggr.sum(X1);
)");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(std::get<int64_t>(outcome->result.scalar()), 10);  // 1+2+3+4
  EXPECT_EQ(cluster->NodeMetrics(1).pins_blocked, 0u);
}

TEST_F(RuntimeRing, EveryNodeCanRunTheSameQuery) {
  SetUpCluster(FastOptions(4));
  for (core::NodeId n = 0; n < 4; ++n) {
    auto outcome = ExecuteOn(n, kTable1Plan);
    ASSERT_TRUE(outcome.ok()) << "node " << n << ": " << outcome.status().ToString();
    ExpectTable1Result(*outcome);
  }
}

TEST_F(RuntimeRing, ConcurrentQueriesFromMultipleNodes) {
  SetUpCluster(FastOptions(4));
  constexpr int kQueriesPerNode = 5;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (core::NodeId n = 0; n < 4; ++n) {
    clients.emplace_back([&, n] {
      for (int q = 0; q < kQueriesPerNode; ++q) {
        auto outcome = ExecuteOn(n, kTable1Plan);
        if (!outcome.ok() ||
            outcome->result.ToText().find("sys.c.t_id") == std::string::npos) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(RuntimeRing, SteadyStateQueryTrafficCreatesZeroThreads) {
  SetUpCluster(FastOptions());
  // Warm-up: the first query may lazily construct the shared executor (its
  // fixed pool spawns exactly once per process).
  ASSERT_TRUE(ExecuteOn(0, kTable1Plan).ok());
  const auto warm = exec::Executor::Default().metrics();

  // Concurrent load from every node: plans run as tasks on the shared pool,
  // not on per-query thread pools.
  constexpr int kQueriesPerNode = 4;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (core::NodeId n = 0; n < 3; ++n) {
    clients.emplace_back([&, n] {
      for (int q = 0; q < kQueriesPerNode; ++q) {
        if (!ExecuteOn(n, kTable1Plan).ok()) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  const auto after = exec::Executor::Default().metrics();
  EXPECT_EQ(after.threads_created, warm.threads_created)
      << "steady-state queries must not spawn threads";
  EXPECT_GT(after.tasks_executed, warm.tasks_executed)
      << "plans should have executed as shared-pool tasks";
}

TEST_F(RuntimeRing, ExecPolicyRidesOptionsIntoTheProcessPolicy) {
  // RAII restore: Start() overwrites the process policy below, and an early
  // ASSERT return must not leak it into later tests.
  exec::ScopedExecPolicy restore(exec::GetExecPolicy());
  auto opts = FastOptions();
  opts.exec_policy.workers = 2;
  opts.exec_policy.morsel_rows = 4096;
  opts.exec_policy.min_parallel_rows = 8192;
  SetUpCluster(opts);
  const auto policy = exec::GetExecPolicy();
  EXPECT_EQ(policy.workers, 2u);
  EXPECT_EQ(policy.morsel_rows, 4096u);
  EXPECT_EQ(policy.min_parallel_rows, 8192u);
  // Queries still work under the custom policy.
  auto outcome = ExecuteOn(0, kTable1Plan);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ExpectTable1Result(*outcome);
}

TEST_F(RuntimeRing, MissingFragmentFailsTheQuery) {
  SetUpCluster(FastOptions());
  auto outcome = ExecuteOn(0, R"(
X1 := sql.bind("sys","ghost","col",0);
X2 := aggr.count(X1);
)");
  EXPECT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsNotFound());
}

TEST_F(RuntimeRing, ResultsMatchAcrossTransferModes) {
  for (auto mode : {rdma::TransferMode::kZeroCopy, rdma::TransferMode::kNicOffload,
                    rdma::TransferMode::kLegacy}) {
    auto opts = FastOptions();
    opts.mode = mode;
    SetUpCluster(opts);
    auto outcome = ExecuteOn(0, kTable1Plan);
    ASSERT_TRUE(outcome.ok())
        << rdma::TransferModeName(mode) << ": " << outcome.status().ToString();
    ExpectTable1Result(*outcome);
    cluster->Stop();
  }
}

TEST_F(RuntimeRing, RepeatedQueriesReuseTheHotSet) {
  SetUpCluster(FastOptions());
  ASSERT_TRUE(ExecuteOn(0, kTable1Plan).ok());
  const auto first = cluster->NodeMetrics(1);  // owner of sys.t.id
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ExecuteOn(0, kTable1Plan).ok());
  const auto later = cluster->NodeMetrics(1);
  // The fragment stays hot between queries: few (if any) additional loads.
  EXPECT_LE(later.bats_loaded - first.bats_loaded, 3u);
}

bool SameValue(const bat::Value& got, const bat::Value& want) {
  if (want.type == bat::ValType::kStr) {
    return got.type == bat::ValType::kStr && got.s == want.s;
  }
  if (want.type == bat::ValType::kDbl) {
    const double g = got.AsDouble(), w = want.AsDouble();
    return std::fabs(g - w) <= 1e-6 * std::max({1.0, std::fabs(g), std::fabs(w)});
  }
  return got.AsInt64() == want.AsInt64();
}

// On a fault-free ring every frame arrives intact, so retransmits can only
// come from a timer that fires before a slow-but-healthy peer's ACK is read.
// Each spurious copy re-sends a whole window and costs the receiver a CRC
// pass; the retransmit timer must adapt instead of flooding the ring. Scale
// 0.05 makes payloads large enough (about a millisecond of CRC per hop)
// that a fixed 2 ms timer re-sends every hop once or twice. The counters
// are checked in optimized builds only: unoptimized and sanitizer builds
// spend 10-20x longer per hop on the service thread, and the first queries
// stall each owner for the best part of a second while it encodes its
// fragments. No retransmit timer can tell that from loss, and a stall past
// the attempt budget flaps the link. The answers are checked in every build.
TEST(RuntimeRingTpch, FaultFreeRingBarelyRetransmits) {
  const workload::TpchData data = workload::GenerateTpchData(0.05);
  RingCluster::Options opts = FastOptions();
  opts.plan_workers = 2;
  RingCluster ring(opts);
  core::NodeId owner = 0;
  for (auto& [name, b] : workload::TpchBats(data)) {
    ASSERT_TRUE(ring.LoadBat(owner, name, std::move(b)).ok());
    owner = (owner + 1) % opts.num_nodes;
  }
  ring.Start();
  auto session = ring.OpenSession(0);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (int q : workload::TpchSqlQueries()) {
    const workload::TpchAnswer want = workload::TpchReferenceAnswer(data, q);
    auto got = session->Execute(workload::TpchQuerySql(q));
    ASSERT_TRUE(got.ok()) << "Q" << q << ": " << got.status().ToString();
    const ResultSet& rs = got->result;
    ASSERT_EQ(rs.num_columns(), want.names.size()) << "Q" << q;
    ASSERT_EQ(rs.num_rows(), want.rows.size()) << "Q" << q;
    for (size_t r = 0; r < want.rows.size(); ++r) {
      for (size_t c = 0; c < want.names.size(); ++c) {
        EXPECT_TRUE(SameValue(rs.ValueAt(r, c), want.rows[r][c]))
            << "Q" << q << " row " << r << " column " << want.names[c] << ": got "
            << rs.ValueAt(r, c).ToString() << ", want " << want.rows[r][c].ToString();
      }
    }
  }
  const RingCluster::ResilienceMetrics res = ring.Resilience();
  const uint64_t hops = ring.Bandwidth().hops;
  ring.Stop();
  ASSERT_GT(hops, 0u);
#ifdef NDEBUG
  EXPECT_LE(static_cast<double>(res.retransmits), 0.25 * static_cast<double>(hops))
      << res.retransmits << " retransmits over " << hops << " hops";
  EXPECT_EQ(res.link_resets, 0u);
#else
  std::printf("unoptimized build, not checked: %llu retransmits over %llu hops, "
              "%llu link resets\n",
              static_cast<unsigned long long>(res.retransmits),
              static_cast<unsigned long long>(hops),
              static_cast<unsigned long long>(res.link_resets));
#endif
}

}  // namespace
}  // namespace dcy::runtime
