// Layer probes of the traced run: direct, repeated calls into bat, sql and
// opt on the run's own TPC-H data and statement texts. They run after the
// timed window with the ring stopped, so they never contend with it.
#pragma once

#include <string>
#include <vector>

#include "sql/schema.h"
#include "trace.h"
#include "workload/tpch_data.h"

namespace ringbench {

struct ProbeResults {
  double select_ms = 0;    ///< range select on lineitem.l_shipdate
  double leftjoin_ms = 0;  ///< projection of l_extendedprice through that select
  double join_ms = 0;      ///< lineitem.l_orderkey join orders.o_orderkey
  double serialize_mb_per_s = 0;    ///< wire frames of lineitem + orders
  double deserialize_mb_per_s = 0;
  double crc_mb_per_s = 0;
  double compile_ms = 0;   ///< sql::Compile, mean over the statement texts
  double optimize_ms = 0;  ///< opt::DcOptimize of those programs
  std::string error;       ///< a probe call failed (the run is then in error)
};

/// Each figure is the median of a few repeats. Spans go to `trace` on the
/// probe lane.
ProbeResults RunLayerProbes(const dcy::workload::TpchData& data,
                            const dcy::sql::Schema& schema,
                            const std::vector<std::string>& statements, Trace* trace);

}  // namespace ringbench
