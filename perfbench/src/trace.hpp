// Span recorder for the traced run: spans are opened by the benchmark
// around its own calls into each library layer, kept in memory, and
// written once at the end as Chrome trace-event JSON (Perfetto and
// chrome://tracing open it directly).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Trace {
 public:
  /// A disabled trace records nothing; every call is a cheap no-op.
  explicit Trace(bool enabled);

  /// Record a finished span. `cat` is the layer (flow, power, mapper, ...);
  /// `args` is a pre-rendered JSON object body ("" for none). Thread-safe;
  /// the span lands on the calling thread's track.
  void add(const std::string& name, const std::string& cat,
           Clock::time_point start, double seconds,
           const std::string& args = "");

  /// Write every span as {"traceEvents": [...]} to `path`.
  void write(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    std::string cat;
    double ts_us = 0.0;
    double dur_us = 0.0;
    int tid = 0;
    std::string args;
  };

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;  // guards events_ and tids_
  std::vector<Event> events_;
  std::map<std::thread::id, int> tids_;
};

/// RAII span: records [construction, destruction) into `trace`.
class Span {
 public:
  Span(Trace& trace, std::string name, std::string cat)
      : trace_(trace), name_(std::move(name)), cat_(std::move(cat)) {}
  ~Span() { trace_.add(name_, cat_, start_, seconds_since(start_)); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Trace& trace_;
  std::string name_;
  std::string cat_;
  Clock::time_point start_ = Clock::now();
};

/// JSON string literal (quotes and escapes included).
std::string json_quote(const std::string& s);

}  // namespace perfbench
