// hlp_perfbench — the repository benchmark.
//
//   hlp_perfbench --workload <cold_bind|seed_sweep|table3_warm> --seed <n>
//                 --seconds <s> --trace <0|1> --out-dir <dir>
//                 [--toy] [--corrupt] [--git-sha <sha>]
//
// One process runs one workload: set-up (repeated; its median is
// setup_s), then as many whole timed passes as come nearest to --seconds
// (their median is wall_s), with the correctness checks between and after passes,
// outside every timed region. --trace 1 adds one traced pass plus the
// layer replays and reports the per-layer metrics instead of the
// end-to-end ones. The last stdout line is the JSON result; a fuller
// record and (traced) a Chrome trace land in --out-dir. See README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;
  bool corrupt = false;
  std::string out_dir;
  std::string git_sha = "unknown";
};

/// Set-ups per run: at least kMinSetups, then more while all of them
/// together took less than kSetupBudgetS (a cheap set-up repeats many times,
/// so its median is steady), at most kMaxSetups. setup_s is their median.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 5000;
constexpr double kSetupBudgetS = 1.0;
/// Passes stop once this much of the process's life has gone, whatever
/// --seconds asks, so a run always ends well inside its time limit.
constexpr double kPassDeadlineS = 110.0;

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1")
        throw std::invalid_argument("--trace must be 0 or 1");
      o.trace = v == "1";
    } else if (a == "--out-dir") {
      o.out_dir = value();
      have_out = true;
    } else if (a == "--git-sha") {
      o.git_sha = value();
    } else if (a == "--toy") {
      o.toy = true;
    } else if (a == "--corrupt") {
      o.corrupt = true;
    } else {
      throw std::invalid_argument("unknown option '" + a + "'");
    }
  }
  if (!have_workload || !have_seed || !have_out)
    throw std::invalid_argument("--workload, --seed and --out-dir are required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

/// Unset every HLP_* variable: each one changes what is measured (SA and
/// store files, thread counts, SIMD and settle engines, SA mode, vector
/// counts, distributed dispatch, generator debug output). Returns the
/// names removed.
std::vector<std::string> pin_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e; ++e) {
    const std::string entry = *e;
    if (entry.rfind("HLP_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const auto& name : names) ::unsetenv(name.c_str());
  return names;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? NAN : n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool process_alive(long pid) {
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

/// A pid-qualified scratch directory under <out>/tmp, removed when this
/// object dies — also when a check throws. Stale directories of processes
/// that no longer exist are swept on creation.
class ScratchDir {
 public:
  ScratchDir(const std::string& out_dir, const std::string& workload) {
    const fs::path tmp = fs::path(out_dir) / "tmp";
    fs::create_directories(tmp);
    for (const auto& entry : fs::directory_iterator(tmp)) {
      const std::string name = entry.path().filename().string();
      if (name.size() > 1 && name[0] == 'p') {
        const long pid = std::strtol(name.c_str() + 1, nullptr, 10);
        if (pid > 0 && !process_alive(pid)) fs::remove_all(entry.path());
      }
    }
    path_ = (tmp / ("p" + std::to_string(::getpid()) + "-" + workload)).string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + num(v[i]);
  return s + "]";
}

std::string json_list(const std::vector<std::string>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    s += (i ? ", " : "") + json_quote(v[i]);
  return s + "]";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    s += (i ? ", " : "") + json_quote(metrics[i].name) + ": {\"value\": " +
         num(metrics[i].value) + ", \"unit\": " + json_quote(metrics[i].unit) +
         "}";
  return s + "}";
}

std::string fingerprint_json(const Options& o,
                             const std::vector<std::string>& simd_modes) {
  __builtin_cpu_init();
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"avx2\": " << (__builtin_cpu_supports("avx2") ? "true" : "false")
     << ", \"avx512f\": "
     << (__builtin_cpu_supports("avx512f") ? "true" : "false")
     << ", \"avx512vpopcntdq\": "
     << (__builtin_cpu_supports("avx512vpopcntdq") ? "true" : "false")
     << ", \"compiler\": " << json_quote(__VERSION__)
     << ", \"build_type\": " << json_quote(PERFBENCH_BUILD_TYPE)
     << ", \"git_sha\": " << json_quote(o.git_sha)
     << ", \"simd_modes\": " << json_list(simd_modes) << "}";
  return os.str();
}

int run(const Options& o) {
  const auto process_start = Clock::now();
  const std::vector<std::string> unset = pin_environment();
  fs::create_directories(o.out_dir);
  ScratchDir scratch(o.out_dir, o.workload);
  std::unique_ptr<Workload> wl =
      make_workload(o.workload, o.seed, o.toy, scratch.path());
  Trace trace(o.trace);
  Tally tally;

  // ---- set-up, repeated --------------------------------------------------
  std::vector<double> setups;
  for (double spent = 0.0; setups.size() < kMinSetups ||
                           (spent < kSetupBudgetS && setups.size() < kMaxSetups);) {
    const auto t0 = Clock::now();
    wl->setup();
    setups.push_back(seconds_since(t0));
    spent += setups.back();
    trace.add("setup", "bench", t0, setups.back());
  }
  // Set-up may have written stores: flush them now, so their writeback does
  // not run under the timed passes.
  ::sync();

  // ---- timed passes, each checked outside its timed region ---------------
  std::vector<double> walls;
  std::vector<std::string> simd_modes;
  std::vector<JobNumbers> first_numbers;
  std::vector<JobNumbers> reference;
  double measured = 0.0;
  for (bool last = false; !last;) {
    Pass pass = wl->run_pass({});
    walls.push_back(pass.wall_s);
    measured += pass.wall_s;
    // Whole passes only: stop at the pass count whose total lands nearest
    // to --seconds.
    last = measured + 0.5 * pass.wall_s >= o.seconds ||
           seconds_since(process_start) > kPassDeadlineS;
    if (walls.size() == 1) simd_modes = resolved_simd_modes(pass);
    if (o.corrupt && walls.size() == 1) corrupt(pass);
    // Every later pass must reproduce the first bit for bit.
    std::vector<JobNumbers> numbers = check_pass(
        *wl, pass, first_numbers.empty() ? nullptr : &first_numbers, tally);
    if (first_numbers.empty()) first_numbers = std::move(numbers);
    if (last) {
      check_scalar(*wl, pass, tally);
      for (const JobResult& r : wl->reference_results(pass)) {
        tally.attempt();
        if (!r.ok) tally.fail("reference " + r.job.benchmark + ": " + r.error);
        reference.push_back(numbers_of(r));
      }
    }
  }

  std::vector<JobNumbers> all_numbers = first_numbers;
  all_numbers.insert(all_numbers.end(), reference.begin(), reference.end());
  const Quality q = quality_of(all_numbers);
  const std::uint64_t digest = digest_of(all_numbers);
  const double wall_median = median(walls);

  // ---- traced run --------------------------------------------------------
  std::vector<Metric> layers;
  double traced_wall = NAN;
  std::string trace_path;
  if (o.trace) {
    Pass pass;
    {
      Span root(trace, "run " + o.workload, "flow");
      pass = wl->run_pass(job_span_recorder(*wl, trace));
    }
    traced_wall = pass.wall_s;
    check_pass(*wl, pass, &first_numbers, tally);
    layers = layer_metrics(*wl, pass, trace, tally, scratch.path());
    trace_path = (fs::path(o.out_dir) /
                  (o.workload + "-seed" + std::to_string(o.seed) + ".trace.json"))
                     .string();
    trace.write(trace_path);
  }

  // ---- report ------------------------------------------------------------
  const double failed_frac =
      tally.attempted() ? static_cast<double>(tally.failed()) /
                              static_cast<double>(tally.attempted())
                        : 1.0;
  const std::vector<Metric> end_to_end = {
      {"wall_s", wall_median, "s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"power_mw", q.power_mw, "mW"},
      {"luts", q.luts, "LUTs"},
      {"power_pct_of_lopass", q.power_pct_of_lopass, "%"},
  };
  const std::vector<Metric> record_only = {
      {"failed_frac", failed_frac, "ratio"},
      {"clock_ns", q.clock_ns, "ns"},
      {"power_vs_lopass_pct", q.power_pct_of_lopass - 100.0, "%"},
  };

  std::cout << "workload " << o.workload << " seed " << o.seed << ": "
            << walls.size() << " timed pass(es), " << setups.size()
            << " set-ups, results digest " << hex64(digest) << "\n";
  for (const std::vector<Metric>* group :
       {&end_to_end, &record_only, &std::as_const(layers)})
    for (const Metric& m : *group)
      std::cout << "  " << m.name << " = " << num(m.value) << " " << m.unit
                << "\n";
  if (o.trace)
    std::cout << "  tracing overhead = " << num(traced_wall - wall_median)
              << " s (traced pass " << num(traced_wall)
              << " s minus untraced median)\n  trace written to "
              << trace_path << "\n";
  for (const auto& msg : tally.messages())
    std::cout << "  CHECK FAILED: " << msg << "\n";

  std::ostringstream record;
  record << "{\n  \"workload\": " << json_quote(o.workload)
         << ",\n  \"seed\": " << o.seed << ",\n  \"seconds\": " << num(o.seconds)
         << ",\n  \"trace\": " << (o.trace ? "true" : "false")
         << ",\n  \"toy\": " << (o.toy ? "true" : "false")
         << ",\n  \"fingerprint\": " << fingerprint_json(o, simd_modes)
         << ",\n  \"env_unset\": " << json_list(unset)
         << ",\n  \"setup_runs_s\": " << json_list(setups)
         << ",\n  \"pass_walls_s\": " << json_list(walls)
         << ",\n  \"digest\": " << json_quote(hex64(digest))
         << ",\n  \"attempted\": " << tally.attempted()
         << ",\n  \"failed\": " << tally.failed()
         << ",\n  \"failures\": " << json_list(tally.messages())
         << ",\n  \"end_to_end\": " << metrics_json(end_to_end)
         << ",\n  \"record_only\": " << metrics_json(record_only)
         << ",\n  \"per_layer\": " << metrics_json(layers)
         << ",\n  \"process_s\": " << num(seconds_since(process_start))
         << ",\n  \"tracing\": {\"traced_wall_s\": " << num(traced_wall)
         << ", \"overhead_s\": " << num(traced_wall - wall_median)
         << ", \"file\": " << json_quote(trace_path) << "}\n}\n";
  const fs::path record_path =
      fs::path(o.out_dir) / (o.workload + "-seed" + std::to_string(o.seed) +
                             (o.trace ? "-trace1" : "-trace0") + ".json");
  std::ofstream record_file(record_path);
  record_file << record.str();
  if (!record_file.flush())
    throw std::runtime_error("cannot write record '" + record_path.string() + "'");

  std::cout << "{\"correct\": " << (tally.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted()
            << ", \"failed\": " << tally.failed()
            << ", \"metrics\": " << metrics_json(o.trace ? layers : end_to_end)
            << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "hlp_perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
