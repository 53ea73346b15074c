// DcOptimizer tests: the headline is the literal reproduction of the
// paper's Table 1 -> Table 2 rewrite.
#include <gtest/gtest.h>

#include "mal/program.h"
#include "opt/dc_optimizer.h"

namespace dcy::opt {
namespace {

using mal::AlphaEquivalent;
using mal::ParseProgram;
using mal::Program;

constexpr const char* kTable1 = R"(
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

// The paper's Table 2 — the expected DcOptimizer output, verbatim.
constexpr const char* kTable2 = R"(
function user.s1_2():void;
    X2 := datacyclotron.request("sys","t","id",0);
    X3 := datacyclotron.request("sys","c","t_id",0);
    X6 := datacyclotron.pin(X3);
    X9 := bat.reverse(X6);
    X1 := datacyclotron.pin(X2);
    X10 := algebra.join(X1, X9);
    X13 := algebra.markT(X10,0@0);
    X14 := bat.reverse(X13);
    X15 := algebra.join(X14, X1);
    X16 := sql.resultSet(1,1,X15);
    sql.rsCol(X16,"sys.c","t_id","int",32,0,X15);
    X22 := io.stdout();
    sql.exportResult(X22,X16);
    datacyclotron.unpin(X6);
    datacyclotron.unpin(X1);
end s1_2;
)";

TEST(DcOptimizerTest, ReproducesPaperTable2) {
  auto input = ParseProgram(kTable1);
  auto expected = ParseProgram(kTable2);
  ASSERT_TRUE(input.ok() && expected.ok());

  auto rewritten = DcOptimize(*input);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();

  std::string why;
  EXPECT_TRUE(AlphaEquivalent(*expected, *rewritten, &why))
      << "rewritten plan differs from the paper's Table 2: " << why << "\n"
      << rewritten->ToString();
}

TEST(DcOptimizerTest, PinInjectedBeforeFirstUseOnly) {
  auto input = *ParseProgram(R"(
X1 := sql.bind("s","t","a",0);
X2 := bat.reverse(X1);
X3 := algebra.join(X2, X1);
)");
  auto out = *DcOptimize(input);
  // request, pin, reverse, join, unpin.
  ASSERT_EQ(out.instructions.size(), 5u);
  EXPECT_EQ(out.instructions[0].FullName(), "datacyclotron.request");
  EXPECT_EQ(out.instructions[1].FullName(), "datacyclotron.pin");
  EXPECT_EQ(out.instructions[1].ret, "X1");  // pin reuses the bind's variable
  EXPECT_EQ(out.instructions[2].FullName(), "bat.reverse");
  EXPECT_EQ(out.instructions[3].FullName(), "algebra.join");
  EXPECT_EQ(out.instructions[4].FullName(), "datacyclotron.unpin");
  EXPECT_EQ(out.instructions[4].args[0].var, "X1");
}

TEST(DcOptimizerTest, AfterLastUsePlacement) {
  auto input = *ParseProgram(R"(
X1 := sql.bind("s","t","a",0);
X2 := sql.bind("s","t","b",0);
X3 := bat.reverse(X1);
X4 := algebra.join(X3, X2);
X5 := aggr.count(X4);
)");
  DcOptimizerOptions opts;
  opts.unpin_placement = DcOptimizerOptions::UnpinPlacement::kAfterLastUse;
  auto out = *DcOptimize(input, opts);
  // X1's last use is the reverse; its unpin must come right after it and
  // before the join.
  std::vector<std::string> calls;
  for (const auto& ins : out.instructions) calls.push_back(ins.FullName());
  const std::vector<std::string> expected = {
      "datacyclotron.request", "datacyclotron.request",
      "datacyclotron.pin",     "bat.reverse",
      "datacyclotron.unpin",  // X1 released before the join runs
      "datacyclotron.pin",     "algebra.join",
      "datacyclotron.unpin",   "aggr.count",
  };
  EXPECT_EQ(calls, expected) << out.ToString();
}

TEST(DcOptimizerTest, PlanWithoutBindsUnchanged) {
  auto input = *ParseProgram("X1 := io.stdout();");
  auto out = *DcOptimize(input);
  EXPECT_TRUE(AlphaEquivalent(input, out));
}

TEST(DcOptimizerTest, RequestsKeepBindArgumentsAndOrder) {
  auto input = *ParseProgram(R"(
X1 := sql.bind("s1","t1","c1",0);
X2 := sql.bind("s2","t2","c2",1);
X3 := algebra.join(X1, X2);
)");
  auto out = *DcOptimize(input);
  EXPECT_EQ(out.instructions[0].FullName(), "datacyclotron.request");
  EXPECT_EQ(std::get<std::string>(out.instructions[0].args[1].literal), "t1");
  EXPECT_EQ(out.instructions[1].FullName(), "datacyclotron.request");
  EXPECT_EQ(std::get<std::string>(out.instructions[1].args[1].literal), "t2");
  EXPECT_EQ(std::get<int64_t>(out.instructions[1].args[3].literal), 1);
}

TEST(DcOptimizerTest, FreshVariablesDoNotCollide) {
  auto input = *ParseProgram(R"(
X1 := sql.bind("s","t","a",0);
X99 := bat.reverse(X1);
)");
  auto out = *DcOptimize(input);
  // The fresh request variable must be above the plan's max (X99).
  EXPECT_EQ(out.instructions[0].ret, "X100");
}

TEST(DcOptimizerTest, UnusedBindStillRequestedAndUnpinnedNever) {
  auto input = *ParseProgram(R"(
X1 := sql.bind("s","t","a",0);
X2 := io.stdout();
)");
  auto out = *DcOptimize(input);
  // A bind nobody uses: request emitted (prefetch), but no pin/unpin pair.
  int pins = 0, unpins = 0, requests = 0;
  for (const auto& ins : out.instructions) {
    if (ins.FullName() == "datacyclotron.pin") ++pins;
    if (ins.FullName() == "datacyclotron.unpin") ++unpins;
    if (ins.FullName() == "datacyclotron.request") ++requests;
  }
  EXPECT_EQ(requests, 1);
  EXPECT_EQ(pins, 0);
  EXPECT_EQ(unpins, 0);
}

TEST(DcOptimizerTest, IdempotentOnRewrittenPlans) {
  auto input = *ParseProgram(kTable1);
  auto once = *DcOptimize(input);
  auto twice = *DcOptimize(once);
  EXPECT_TRUE(AlphaEquivalent(once, twice));
}

TEST(PlanCacheKeyTest, StableAndDiscriminating) {
  const std::string text = kTable1;
  // Deterministic: same inputs, same key.
  EXPECT_EQ(PlanCacheKey(text), PlanCacheKey(text));
  // The optimizer options and the text both discriminate.
  DcOptimizerOptions after_last_use;
  after_last_use.unpin_placement = DcOptimizerOptions::UnpinPlacement::kAfterLastUse;
  EXPECT_NE(PlanCacheKey(text), PlanCacheKey(text, after_last_use));
  EXPECT_NE(PlanCacheKey(text), PlanCacheKey(text + " "));
}

}  // namespace
}  // namespace dcy::opt
