#include "explore/pareto.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "power/sa_mode.hpp"

namespace hlp::explore {

namespace {

// Strict-weak order on objective vectors; id last so equal vectors (which
// never coexist inside one frontier, but do during sorting of arbitrary
// point sets in tests) still order deterministically.
bool point_less(const ParetoPoint& a, const ParetoPoint& b) {
  return std::tie(a.power_mw, a.lut_area, a.clock_period_ns, a.id) <
         std::tie(b.power_mw, b.lut_area, b.clock_period_ns, b.id);
}

bool same_vector(const ParetoPoint& a, const ParetoPoint& b) {
  return a.power_mw == b.power_mw && a.lut_area == b.lut_area &&
         a.clock_period_ns == b.clock_period_ns;
}

}  // namespace

bool dominates(const ParetoPoint& a, const ParetoPoint& b) {
  if (a.power_mw > b.power_mw || a.lut_area > b.lut_area ||
      a.clock_period_ns > b.clock_period_ns)
    return false;
  return a.power_mw < b.power_mw || a.lut_area < b.lut_area ||
         a.clock_period_ns < b.clock_period_ns;
}

std::string job_identity(const flow::Job& job) {
  std::ostringstream id;
  // Every axis of the runner's context and group keys plus the stimulus
  // seed; hexfloat doubles so distinct knob values never alias. The SA
  // mode is serialised RESOLVED for the same reason the job manifest
  // resolves it: a job deferring to HLP_SA_MODE and its manifest round
  // trip (sa= pinned) must be the same identity.
  id << job.benchmark << '|' << job.scheduler << '|' << job.rc.adders << 'x'
     << job.rc.multipliers << '|' << job.width << '|' << job.reg_seed << '|'
     << job.sched_spec.min_latency << '|' << job.sched_spec.latency_slack
     << '|' << sa_mode_name(effective_sa_mode(job.sa)) << '|'
     << job.binder.name << '|' << std::hexfloat << job.binder.alpha << '|'
     << job.binder.beta_add << '|' << job.binder.beta_mult << '|'
     << job.binder.refine << '|' << job.num_vectors << '|'
     << static_cast<int>(job.sim_engine) << '|'
     << static_cast<int>(job.simd) << '|' << job.seed;
  return id.str();
}

ParetoPoint point_from_result(const flow::JobResult& result) {
  ParetoPoint p;
  p.power_mw = result.outcome.flow.report.dynamic_power_mw;
  p.lut_area = result.outcome.flow.mapped.num_luts;
  p.clock_period_ns = result.outcome.flow.clock_period_ns;
  p.id = job_identity(result.job);
  p.label = result.job.label.empty()
                ? result.job.benchmark + "/" + result.job.binder.name
                : result.job.label;
  return p;
}

InsertOutcome ParetoFrontier::offer(const flow::JobResult& result) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++offered_;
    if (!result.ok) {
      // Failures carry no objectives. Skipping them preserves order
      // independence: a job fails deterministically (same error on every
      // executor), so every arrival order skips the same set.
      ++skipped_;
      return InsertOutcome::kDominated;
    }
  }
  return insert(point_from_result(result));
}

InsertOutcome ParetoFrontier::insert(const ParetoPoint& p) {
  std::lock_guard<std::mutex> lock(mu_);
  // Equal-vector tie: exactly one point per objective vector survives,
  // the lexicographically smallest id. At most one equal-vector point can
  // be present, so resolve and return before any dominance scan.
  for (auto it = pts_.begin(); it != pts_.end(); ++it) {
    if (!same_vector(*it, p)) continue;
    if (it->id == p.id) return InsertOutcome::kDuplicate;
    if (it->id < p.id) return InsertOutcome::kDominated;
    *it = p;
    return InsertOutcome::kInserted;
  }
  for (const ParetoPoint& q : pts_) {
    if (dominates(q, p)) return InsertOutcome::kDominated;
  }
  pts_.erase(std::remove_if(pts_.begin(), pts_.end(),
                            [&](const ParetoPoint& q) {
                              return dominates(p, q);
                            }),
             pts_.end());
  pts_.push_back(p);
  return InsertOutcome::kInserted;
}

std::vector<ParetoPoint> ParetoFrontier::points() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ParetoPoint> out = pts_;
  std::sort(out.begin(), out.end(), point_less);
  return out;
}

std::size_t ParetoFrontier::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pts_.size();
}

std::uint64_t ParetoFrontier::offered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return offered_;
}

std::uint64_t ParetoFrontier::skipped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return skipped_;
}

}  // namespace hlp::explore
