#include "opt/dc_optimizer.h"

#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "common/logging.h"

namespace dcy::opt {

using mal::Arg;
using mal::Instruction;
using mal::Program;

Result<Program> DcOptimize(const Program& program, const DcOptimizerOptions& options) {
  // Pass 1: find the binds, in plan order.
  struct BindInfo {
    std::string bound_var;    // original bind output (becomes the pin output)
    std::string request_var;  // fresh handle variable
    Instruction request;      // rewritten request call
    size_t first_use = SIZE_MAX;
    size_t last_use = 0;
    bool pinned = false;
  };
  std::vector<BindInfo> binds;
  std::map<std::string, size_t> bind_of_var;

  int next_var = program.MaxVarNumber() + 1;
  for (size_t i = 0; i < program.instructions.size(); ++i) {
    const Instruction& ins = program.instructions[i];
    if (ins.FullName() != "sql.bind") continue;
    if (ins.ret.empty()) {
      return Status::InvalidArgument("sql.bind without a return variable");
    }
    if (bind_of_var.count(ins.ret) > 0) {
      return Status::InvalidArgument("variable " + ins.ret + " bound twice");
    }
    BindInfo info;
    info.bound_var = ins.ret;
    info.request_var = "X" + std::to_string(next_var++);
    info.request.ret = info.request_var;
    info.request.module = "datacyclotron";
    info.request.fn = "request";
    info.request.args = ins.args;  // same (schema, table, column, kind)
    bind_of_var[ins.ret] = binds.size();
    binds.push_back(std::move(info));
  }
  if (binds.empty()) return program;  // nothing to do

  // Pass 2: locate first/last uses of every bound variable.
  for (size_t i = 0; i < program.instructions.size(); ++i) {
    const Instruction& ins = program.instructions[i];
    if (ins.FullName() == "sql.bind") continue;
    for (const Arg& a : ins.args) {
      if (!a.is_var()) continue;
      auto it = bind_of_var.find(a.var);
      if (it == bind_of_var.end()) continue;
      BindInfo& info = binds[it->second];
      info.first_use = std::min(info.first_use, i);
      info.last_use = std::max(info.last_use, i);
    }
  }

  // Pass 3: emit — requests hoisted to the top in bind order, then the body
  // with pins before first uses (and unpins after last uses if requested).
  Program out;
  out.name = program.name;
  std::vector<std::string> unpin_order;  // pin order, for the plan-end unpins

  for (const BindInfo& info : binds) out.instructions.push_back(info.request);

  for (size_t i = 0; i < program.instructions.size(); ++i) {
    const Instruction& ins = program.instructions[i];
    if (ins.FullName() == "sql.bind") continue;
    // Inject pins for any bound variable first used here.
    for (BindInfo& info : binds) {
      if (info.first_use == i && !info.pinned) {
        Instruction pin;
        pin.ret = info.bound_var;
        pin.module = "datacyclotron";
        pin.fn = "pin";
        pin.args.push_back(Arg::Var(info.request_var));
        out.instructions.push_back(std::move(pin));
        info.pinned = true;
        unpin_order.push_back(info.bound_var);
      }
    }
    out.instructions.push_back(ins);
    if (options.unpin_placement == DcOptimizerOptions::UnpinPlacement::kAfterLastUse) {
      for (const BindInfo& info : binds) {
        if (info.last_use == i && info.pinned) {
          Instruction unpin;
          unpin.module = "datacyclotron";
          unpin.fn = "unpin";
          unpin.args.push_back(Arg::Var(info.bound_var));
          out.instructions.push_back(std::move(unpin));
        }
      }
    }
  }

  if (options.unpin_placement == DcOptimizerOptions::UnpinPlacement::kPlanEnd) {
    for (const std::string& var : unpin_order) {
      Instruction unpin;
      unpin.module = "datacyclotron";
      unpin.fn = "unpin";
      unpin.args.push_back(Arg::Var(var));
      out.instructions.push_back(std::move(unpin));
    }
  }
  return out;
}

std::string PlanCacheKey(const std::string& text, const DcOptimizerOptions& options,
                         const char* dialect) {
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;  // FNV prime
  };
  for (const char* d = dialect; *d != '\0'; ++d) mix(static_cast<uint8_t>(*d));
  mix(0);  // dialect/text separator: ("ab", "c") never collides with ("a", "bc")
  for (char c : text) mix(static_cast<uint8_t>(c));
  mix(static_cast<uint8_t>(options.unpin_placement));
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%s-%zu-%016llx", dialect, text.size(),
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace dcy::opt
