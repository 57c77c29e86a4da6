// The benchmark's three workloads. Each is a closed loop: one timed pass is
// one ExperimentRunner::run() over a fixed grid (cold_bind: one run() per
// design, each on a fresh runner), with 2 pool threads, 8-bit width and the
// list scheduler. Every stimulus seed derives from the workload seed.
//
//   cold_bind    the 7 paper designs, hlpower alpha=0.5, schedule-minimum
//                allocation, 200 vectors, each on a fresh runner with no
//                SA file and no store (hlpower_cli --bench <d>). The cold
//                SA-table fill dominates.
//   seed_sweep   7 designs x {lopass, hlpower 0.5} at the Table 2
//                constraints, 64 stimulus seeds per point at 200 vectors.
//                Set-up fills the SA tables, the lopass memo and the
//                StageCache with one short job per point, so the timed pass
//                is the seed-coalesced lane simulator plus the runner.
//   table3_warm  7 designs x {lopass, hlpower 0.5, hlpower 1.0} at the
//                Table 2 constraints and 1000 vectors, simulated on avx2
//                frames, run by a fresh runner against an artifact store
//                that set-up populated cold; every timed job is a store hit.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cdfg/cdfg.hpp"
#include "flow/experiment.hpp"

namespace perfbench {

using hlp::flow::ExperimentRunner;
using hlp::flow::Job;
using hlp::flow::JobResult;

/// Worker threads of every runner the benchmark creates.
inline constexpr int kThreads = 2;

/// Result of one timed pass.
struct Pass {
  std::vector<JobResult> results;  // grid order
  double wall_s = 0.0;
  /// Runners of this pass (kept alive for checks and replays); job i ran
  /// on runners[runner_of[i]].
  std::vector<std::shared_ptr<ExperimentRunner>> runners;
  std::vector<std::size_t> runner_of;
};

class Workload {
 public:
  /// Sees every job as it completes, with its grid index.
  using Callback = std::function<void(std::size_t, const JobResult&)>;

  virtual ~Workload() = default;

  const std::vector<Job>& jobs() const { return jobs_; }

  /// One set-up: generates the CDFGs and performs the warm-up the workload
  /// names. Replaces the state of any previous set-up.
  virtual void setup() = 0;

  /// One timed pass over the grid. `cb` may be empty.
  virtual Pass run_pass(const Callback& cb) = 0;

  /// The runner holding job i's warm contexts and SA table (layer replays
  /// and scalar reruns read it).
  virtual ExperimentRunner& warm_runner(const Pass& pass, std::size_t i) = 0;

  /// The artifact store the timed passes read ("" when none).
  virtual std::string store_dir() const { return ""; }

  /// Extra jobs run once after the timed passes, outside any timing, whose
  /// results join the quality metrics (cold_bind's lopass reference).
  virtual std::vector<JobResult> reference_results(const Pass& /*last*/) {
    return {};
  }

  /// table3_warm: the set-up populate's result per grid index, which every
  /// timed store hit must reproduce.
  virtual const std::vector<JobResult>* populate_results() const {
    return nullptr;
  }

 protected:
  explicit Workload(std::vector<std::string> designs)
      : designs_(std::move(designs)) {}

  /// Regenerates every design's CDFG (part of each set-up).
  void generate_graphs();
  /// A runner resolving designs to the pre-generated CDFGs, with SA-table
  /// persistence and the artifact store off.
  std::shared_ptr<ExperimentRunner> fresh_runner() const;

  std::vector<std::string> designs_;
  std::vector<Job> jobs_;
  std::shared_ptr<const std::map<std::string, hlp::Cdfg>> graphs_;
};

/// Build a workload. `toy` shrinks it to two small designs and a handful of
/// vectors (self-test size). `scratch` is a private directory the workload
/// may create stores under.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool toy,
                                        const std::string& scratch);

}  // namespace perfbench
