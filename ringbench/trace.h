// In-memory span log of the traced run. Spans are recorded from the
// benchmark's own code around its calls into the program (Prepare, Execute,
// commits, layer probes) and written out once, at the end, in the Chrome
// trace-event format (load it in Perfetto or chrome://tracing).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ringbench {

using Clock = std::chrono::steady_clock;

class Trace {
 public:
  /// A disabled trace records nothing and costs one branch per call.
  explicit Trace(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (0 when disabled). `thread`
  /// is the client (or probe) lane, `query` the engine's query id (0 if none),
  /// `parent` the id of the enclosing span (0 for a root).
  uint64_t Record(const char* name, uint64_t parent, uint32_t thread, uint64_t query,
                  Clock::time_point start, Clock::time_point end);

  /// Writes every span as a complete ("X") trace event. False on I/O error.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;
    uint32_t thread;
    uint64_t query;
    double start_us;
    double dur_us;
  };

  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace ringbench
