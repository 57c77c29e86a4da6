// Correctness checks, run outside every timed phase. Each job a run
// attempts is checked; a job that fails any check counts once in `failed`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "binding/binding.hpp"
#include "cdfg/cdfg.hpp"
#include "sched/schedule.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Attempted and failed jobs, with the first few failure messages.
class Tally {
 public:
  void attempt(std::size_t n = 1) { attempted_ += n; }
  void fail(const std::string& why);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// The numbers a job reports: what the quality metrics and the digest are
/// computed from.
struct JobNumbers {
  std::string design;
  std::string binder;
  double alpha = 0.0;
  std::uint64_t seed = 0;
  double power_mw = 0.0;
  int luts = 0;
  double clock_ns = 0.0;
  std::uint64_t transitions = 0;
  std::uint64_t functional = 0;

  bool operator==(const JobNumbers&) const = default;
};

JobNumbers numbers_of(const JobResult& r);

/// FNV-1a 64 over every job's numbers written as hexfloat, in grid order.
std::uint64_t digest_of(const std::vector<JobNumbers>& jobs);

/// The quality metrics: geometric means over designs of HLPower
/// (alpha=0.5) power, LUTs and clock (each point's power averaged over its
/// stimulus seeds), and the mean over designs of 100 * P_hlpower / P_lopass
/// (NaN when no LOPASS point ran).
struct Quality {
  double power_mw = 0.0;
  double luts = 0.0;
  double clock_ns = 0.0;
  double power_pct_of_lopass = 0.0;
};
Quality quality_of(const std::vector<JobNumbers>& jobs);

/// Same FU assignment, FU kinds and operand flips.
bool same_binding(const hlp::FuBinding& x, const hlp::FuBinding& y);

/// Binding legality, written independently of the binders: every op sits
/// on an FU of its kind, no two ops of one control step share an FU, and
/// each kind's FU count is within `rc`. Returns "" when legal, else the
/// first violation.
std::string binding_violation(const hlp::Cdfg& g, const hlp::Schedule& s,
                              const hlp::ResourceConstraint& rc,
                              const hlp::FuBinding& fus);

/// Per-job checks of one pass: the job returned ok, its binding is legal,
/// its numbers equal `expected` (the first pass's, when given), and — when
/// the workload has a set-up populate — it was a full store hit reproducing
/// the populate's LUTs, clock and FU binding. Returns each job's numbers
/// (grid order).
std::vector<JobNumbers> check_pass(Workload& wl, const Pass& pass,
                                   const std::vector<JobNumbers>* expected,
                                   Tally& tally);

/// Rerun a fixed sample of the pass's jobs (the first job of every wang
/// point) on the scalar reference simulator; toggles, functional
/// transitions and dynamic power must be bit-equal.
void check_scalar(Workload& wl, const Pass& pass, Tally& tally);

/// Flip the kind of the FU op 0 sits on — a result the legality check must
/// reject (self-test only).
void corrupt(Pass& pass);

}  // namespace perfbench
