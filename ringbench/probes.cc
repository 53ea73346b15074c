#include "probes.h"

#include <map>

#include "bat/operators.h"
#include "bat/serialize.h"
#include "opt/dc_optimizer.h"
#include "sql/compiler.h"
#include "stats.h"

namespace ringbench {

using namespace dcy;  // NOLINT

namespace {

constexpr int kRepeats = 5;
constexpr uint32_t kProbeLane = 100;

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

/// Median wall time of `kRepeats` calls of `fn`, one span per call. `fn`
/// returns false on failure, which stops the probe.
template <typename Fn>
double TimeMedian(const char* span, Trace* trace, bool* ok, Fn fn) {
  std::vector<double> secs;
  for (int r = 0; r < kRepeats && *ok; ++r) {
    const auto t0 = Clock::now();
    *ok = fn();
    const auto t1 = Clock::now();
    trace->Record(span, 0, kProbeLane, 0, t0, t1);
    secs.push_back(Seconds(t1 - t0));
  }
  return Median(std::move(secs));
}

}  // namespace

ProbeResults RunLayerProbes(const workload::TpchData& data, const sql::Schema& schema,
                            const std::vector<std::string>& statements, Trace* trace) {
  ProbeResults out;
  std::map<std::string, bat::BatPtr> bats;
  for (auto& [name, b] : workload::TpchBats(data)) bats.emplace(name, std::move(b));
  const bat::BatPtr shipdate = bats.at("sys.lineitem.l_shipdate");
  const bat::BatPtr price = bats.at("sys.lineitem.l_extendedprice");
  const bat::BatPtr l_orderkey = bats.at("sys.lineitem.l_orderkey");
  const bat::BatPtr o_orderkey = bats.at("sys.orders.o_orderkey");

  bool ok = true;
  // Q1's window keeps ~98% of lineitem, so the projection below gathers a
  // full-size fragment, as the SQL plans' leftjoin(pos, col) does.
  const bat::Value lo = bat::Value::MakeLng(19920101);
  const bat::Value hi = bat::Value::MakeLng(19980902);
  bat::BatPtr selected;
  const double select_s = TimeMedian("probe.bat.select", trace, &ok, [&] {
    auto r = bat::SelectRange(shipdate, lo, hi);
    if (!r.ok()) return false;
    selected = *r;
    return true;
  });
  bat::BatPtr pos;
  if (ok) pos = bat::Reverse(bat::MarkT(selected, 0));
  const double leftjoin_s = TimeMedian("probe.bat.leftjoin", trace, &ok,
                                       [&] { return bat::LeftJoin(pos, price).ok(); });
  const bat::BatPtr orders_rev = bat::Reverse(o_orderkey);
  const double join_s = TimeMedian("probe.bat.join", trace, &ok, [&] {
    return bat::Join(l_orderkey, orders_rev).ok();
  });

  // Wire path of every lineitem and orders fragment: encode, decode, CRC.
  std::vector<bat::BatPtr> frames_of;
  for (auto& [name, b] : bats) {
    if (name.rfind("sys.lineitem.", 0) == 0 || name.rfind("sys.orders.", 0) == 0) {
      frames_of.push_back(b);
    }
  }
  std::vector<std::string> frames(frames_of.size());
  const double ser_s = TimeMedian("probe.bat.serialize", trace, &ok, [&] {
    for (size_t i = 0; i < frames_of.size(); ++i) {
      bat::SerializeInto(*frames_of[i], &frames[i]);
    }
    return true;
  });
  double frame_mb = 0;
  for (const auto& f : frames) frame_mb += static_cast<double>(f.size());
  frame_mb /= 1024.0 * 1024.0;
  const double de_s = TimeMedian("probe.bat.deserialize", trace, &ok, [&] {
    for (const auto& f : frames) {
      if (!bat::Deserialize(f).ok()) return false;
    }
    return true;
  });
  volatile uint32_t crc_sink = 0;
  const double crc_s = TimeMedian("probe.bat.crc", trace, &ok, [&] {
    uint32_t acc = 0;
    for (const auto& f : frames) acc ^= bat::Crc32(f.data(), f.size());
    crc_sink = acc;
    return true;
  });

  // Front end: compile and optimize each statement text afresh.
  double compile_s = 0, optimize_s = 0;
  for (const std::string& text : statements) {
    mal::Program program;
    compile_s += TimeMedian("probe.sql.compile", trace, &ok, [&] {
      auto r = sql::Compile(text, schema);
      if (!r.ok()) return false;
      program = std::move(*r);
      return true;
    });
    optimize_s += TimeMedian("probe.opt.optimize", trace, &ok,
                             [&] { return opt::DcOptimize(program).ok(); });
  }
  if (!ok) {
    out.error = "a layer probe call failed";
    return out;
  }
  const double n = static_cast<double>(statements.size());
  out.select_ms = 1e3 * select_s;
  out.leftjoin_ms = 1e3 * leftjoin_s;
  out.join_ms = 1e3 * join_s;
  out.serialize_mb_per_s = Ratio(frame_mb, ser_s);
  out.deserialize_mb_per_s = Ratio(frame_mb, de_s);
  out.crc_mb_per_s = Ratio(frame_mb, crc_s);
  out.compile_ms = 1e3 * Ratio(compile_s, n);
  out.optimize_ms = 1e3 * Ratio(optimize_s, n);
  return out;
}

}  // namespace ringbench
