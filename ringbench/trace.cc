#include "trace.h"

#include <cstdio>
#include <memory>

namespace ringbench {

namespace {
double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
}  // namespace

uint64_t Trace::Record(const char* name, uint64_t parent, uint32_t thread, uint64_t query,
                       Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = spans_.size() + 1;
  spans_.push_back({name, id, parent, thread, query, Micros(start - epoch_),
                    Micros(end - start)});
  return id;
}

bool Trace::WriteChromeJson(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("{\"traceEvents\":[\n", f.get());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(),
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"query\":%llu}}%s\n",
                 s.name, s.thread, s.start_us, s.dur_us,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f.get());
  return std::ferror(f.get()) == 0;
}

}  // namespace ringbench
