// The Data Cyclotron plan rewriter (paper §4.1, Tables 1-2):
//   * every sql.bind is replaced by a datacyclotron.request hoisted to the
//     top of the plan (a fresh variable holds the request handle),
//   * a datacyclotron.pin is injected immediately before the first use of
//     each bound variable (the pin reuses the original variable name, so
//     the rest of the plan is untouched),
//   * a datacyclotron.unpin is injected after the last use — by default at
//     the end of the plan, exactly as the paper's Table 2 does (results may
//     alias the pinned fragments until exported).
#pragma once

#include "common/status.h"
#include "mal/program.h"

namespace dcy::opt {

struct DcOptimizerOptions {
  /// Where to place unpin() calls:
  enum class UnpinPlacement {
    kPlanEnd,        ///< before `end`, as in the paper's Table 2 (default)
    kAfterLastUse,   ///< immediately after the last instruction using the BAT
  };
  UnpinPlacement unpin_placement = UnpinPlacement::kPlanEnd;
};

/// Rewrites `program`; plans without sql.bind calls are returned unchanged.
Result<mal::Program> DcOptimize(const mal::Program& program,
                                const DcOptimizerOptions& options = {});

/// \brief Stable cache key for a prepared plan: identifies the
/// (text, dialect, optimizer-options) tuple that fully determines
/// the compiled program, so runtimes can reuse one parse + DcOptimize across
/// executions and sessions. Conservative: texts differing only in
/// whitespace/comments hash to different keys (a cache miss, never a wrong
/// plan). 64-bit FNV-1a plus the input length. `dialect` names the source
/// language ("mal", "sql", ...) and is mixed into both the hash and the
/// key prefix, so identical text submitted in two languages can never share
/// one cache slot.
std::string PlanCacheKey(const std::string& text, const DcOptimizerOptions& options = {},
                         const char* dialect = "mal");

}  // namespace dcy::opt
