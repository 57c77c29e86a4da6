// hlp_worker — the worker-process half of the distributed runner
// (src/flow/distributed.hpp, docs/distributed.md).
//
//   hlp_worker [--sa-out <prefix>] [--sa-in <prefix>]
//              [--jobs <n>] [--coalesce 0|1] [--store <dir>]
//
// A long-lived serve loop that reads framed unit requests from stdin and
// writes framed unit responses to stdout (flow/job_io.hpp, protocol v2)
// until a `quit` line or EOF. Each unit runs through one ordinary
// in-process ExperimentRunner (seed coalescing and word-parallel
// simulation included) that lives for the whole session, so
// FlowContexts, StageCaches and SA tables stay warm across units — later
// units of the same design reuse the schedule/binding/map artifacts the
// first one computed. Stdout belongs to the protocol; diagnostics go to
// stderr.
//
// At exit the switching-activity tables the session produced are
// persisted once to "<sa-out prefix>.w<width>[.<mode>]" (atomically; see
// flow::sa_cache_file_suffix) for the parent to merge with
// SaCache::merge_from; "--sa-in" preloads tables from a shared warm-start
// prefix first, so a worker starts as warm as the parent. The SA mode
// itself arrives pre-resolved in each manifest row (`sa=`), so a worker's
// own HLP_SA_MODE never influences which backend runs.
//
// "--store <dir>" points the worker at the fleet's shared artifact store
// (src/store/artifact_store.hpp): stage artifacts computed here persist
// for every other worker and future runs. Like the SA mode, the store is
// the PARENT's decision — the worker always overrides its own HLP_STORE
// with the flag's value (absent flag = no store), so a fleet behaves the
// same whatever environment its workers inherit.
//
// Exit status: 0 when the session ran — including jobs that failed, which
// report through their serialized JobResult::error, exactly like the
// in-process runner — nonzero only for infrastructure errors (bad usage,
// a broken protocol stream, an unwritable SA shard), with the reason on
// stderr. The DistributedRunner parent turns a nonzero exit, a signal
// death, a timeout or a truncated response into per-unit errors, with
// bounded requeue first.
//
// The binary is deliberately transport-agnostic: the parent runs it via
// fork/exec on one machine, but the serve loop works over any byte
// stream for multi-machine sharding.
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "flow/experiment.hpp"
#include "flow/job_io.hpp"

namespace {

struct Options {
  std::string sa_out;
  std::string sa_in;
  std::string store;
  int jobs = 1;
  bool coalesce = true;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hlp_worker: " << why << "\n"
            << "usage: hlp_worker [--sa-out <prefix>] [--sa-in <prefix>]\n"
            << "                  [--jobs <n>] [--coalesce 0|1] "
               "[--store <dir>]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("flag '" + flag + "' needs a value");
    const std::string value = argv[++i];
    if (flag == "--sa-out") {
      opt.sa_out = value;
    } else if (flag == "--sa-in") {
      opt.sa_in = value;
    } else if (flag == "--store") {
      opt.store = value;
    } else if (flag == "--jobs") {
      char* end = nullptr;
      errno = 0;
      const long v = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || errno == ERANGE || v < 1 ||
          v > INT_MAX)
        usage("--jobs '" + value + "' must be an integer >= 1");
      opt.jobs = static_cast<int>(v);
    } else if (flag == "--coalesce") {
      if (value != "0" && value != "1") usage("--coalesce must be 0 or 1");
      opt.coalesce = value == "1";
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  return opt;
}

// Preload the shared warm-start table for every (width, SA mode) pair in
// `jobs` that has not been preloaded yet. The mode arrives pre-resolved in
// the manifest (`sa=`), so the worker opens exactly the table the parent
// would — never consulting its own HLP_SA_MODE. Must run before the first
// job of a pair computes anything, which is why it runs per unit.
void preload_sa(hlp::flow::ExperimentRunner& runner, const std::string& sa_in,
                const std::vector<hlp::flow::ManifestJob>& jobs,
                std::set<std::pair<int, hlp::SaMode>>& preloaded) {
  if (sa_in.empty()) return;
  for (const hlp::flow::ManifestJob& mj : jobs) {
    const hlp::SaMode mode = hlp::effective_sa_mode(mj.job.sa);
    if (!preloaded.insert({mj.job.width, mode}).second) continue;
    const std::string file =
        sa_in + hlp::flow::sa_cache_file_suffix(mj.job.width, mode);
    if (std::ifstream probe(file); probe.good())
      runner.sa_cache(mj.job.width, mode).load_file(file);
  }
}

int serve(const Options& opt) {
  using namespace hlp;
  flow::ExperimentRunner runner(opt.jobs);
  runner.set_coalescing(opt.coalesce);
  // The store is the parent's call: always override the environment with
  // the flag (empty = none), so a worker never opens its own HLP_STORE.
  runner.set_store_dir(opt.store);
  // No persistence path while serving: run() must not flush the SA tables
  // after every unit (and must not inherit HLP_SA_CACHE from the parent's
  // environment) — the shard is written once, at exit.
  runner.set_sa_cache_path("");
  std::set<std::pair<int, hlp::SaMode>> preloaded;

  std::size_t units = 0, jobs_run = 0, failed = 0;
  while (true) {
    const flow::UnitRequest req = flow::load_unit_request(std::cin);
    if (req.quit) break;
    preload_sa(runner, opt.sa_in, req.jobs, preloaded);

    std::vector<flow::Job> jobs;
    jobs.reserve(req.jobs.size());
    for (const flow::ManifestJob& mj : req.jobs) jobs.push_back(mj.job);
    const std::vector<flow::JobResult> results = runner.run(jobs);

    std::vector<flow::ManifestResult> out;
    out.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
      out.push_back({req.jobs[i].index, results[i]});
    flow::save_unit_response(std::cout, req.id, out);
    std::cout.flush();
    HLP_REQUIRE(std::cout.good(),
                "write of unit " << req.id << " response failed");

    ++units;
    jobs_run += results.size();
    for (const auto& r : results) failed += r.ok ? 0 : 1;
  }

  // Flush the SA shard exactly once, after the whole session: every unit
  // served (across all designs and widths) contributed to the same warm
  // tables.
  if (!opt.sa_out.empty()) {
    runner.set_sa_cache_path(opt.sa_out);
    runner.persist_sa_caches();
  }
  std::cerr << "hlp_worker: served " << units << " unit(s), " << jobs_run
            << " job(s), " << failed << " failed\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    return serve(opt);
  } catch (const std::exception& e) {
    std::cerr << "hlp_worker: " << e.what() << "\n";
    return 1;
  }
}
