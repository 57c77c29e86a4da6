#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

Trace::Trace(bool enabled) : enabled_(enabled) {}

void Trace::add(const std::string& name, const std::string& cat,
                Clock::time_point start, double seconds,
                const std::string& args) {
  if (!enabled_) return;
  Event ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_us = std::chrono::duration<double, std::micro>(start - origin_).count();
  ev.dur_us = seconds * 1e6;
  ev.args = args;
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] =
      tids_.emplace(std::this_thread::get_id(), static_cast<int>(tids_.size()));
  ev.tid = it->second;
  events_.push_back(std::move(ev));
}

void Trace::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace '" + path + "'");
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[128];
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& ev = events_[i];
    std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f", ev.ts_us,
                  ev.dur_us);
    os << "{\"ph\": \"X\", \"pid\": 1, \"tid\": " << ev.tid
       << ", \"name\": " << json_quote(ev.name)
       << ", \"cat\": " << json_quote(ev.cat) << ", " << buf;
    if (!ev.args.empty()) os << ", \"args\": {" << ev.args << "}";
    os << (i + 1 < events_.size() ? "},\n" : "}\n");
  }
  os << "]}\n";
  if (!os) throw std::runtime_error("short write to trace '" + path + "'");
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
