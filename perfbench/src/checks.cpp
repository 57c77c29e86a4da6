#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "flow/flow_context.hpp"

namespace perfbench {
namespace {

std::string job_label(const Job& job) {
  std::ostringstream os;
  os << job.benchmark << "/" << job.binder.name << "@" << job.binder.alpha
     << " seed " << job.seed;
  return os.str();
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return v.empty() ? NAN : std::exp(log_sum / static_cast<double>(v.size()));
}

const std::vector<std::string> kCachedSpan = {"bind-fus", "refine",
                                              "elaborate", "map", "time"};

/// "" when `r` is a full store hit that reproduces the populate result.
std::string store_hit_violation(const JobResult& r, const JobResult& pop) {
  const std::set<std::string> cached(r.outcome.cached_stages.begin(),
                                     r.outcome.cached_stages.end());
  for (const auto& stage : kCachedSpan)
    if (!cached.count(stage)) return "stage '" + stage + "' was not cached";
  const auto& a = r.outcome;
  const auto& b = pop.outcome;
  if (a.flow.mapped.num_luts != b.flow.mapped.num_luts)
    return "LUTs differ from the set-up populate";
  if (a.flow.clock_period_ns != b.flow.clock_period_ns)
    return "clock differs from the set-up populate";
  if (!same_binding(a.fus, b.fus))
    return "FU binding differs from the set-up populate";
  return "";
}

}  // namespace

void Tally::fail(const std::string& why) {
  ++failed_;
  if (messages_.size() < 20) messages_.push_back(why);
}

JobNumbers numbers_of(const JobResult& r) {
  JobNumbers n;
  n.design = r.job.benchmark;
  n.binder = r.job.binder.name;
  n.alpha = r.job.binder.alpha;
  n.seed = r.job.seed;
  n.power_mw = r.outcome.flow.report.dynamic_power_mw;
  n.luts = r.outcome.flow.mapped.num_luts;
  n.clock_ns = r.outcome.flow.clock_period_ns;
  n.transitions = r.outcome.flow.sim.total_transitions;
  n.functional = r.outcome.flow.sim.functional_transitions;
  return n;
}

std::uint64_t digest_of(const std::vector<JobNumbers>& jobs) {
  std::uint64_t h = 1469598103934665603ull;
  char line[512];
  for (const JobNumbers& j : jobs) {
    const int len = std::snprintf(
        line, sizeof line, "%s|%s|%a|%llu|%a|%d|%a|%llu|%llu\n",
        j.design.c_str(), j.binder.c_str(), j.alpha,
        static_cast<unsigned long long>(j.seed), j.power_mw, j.luts,
        j.clock_ns, static_cast<unsigned long long>(j.transitions),
        static_cast<unsigned long long>(j.functional));
    for (int i = 0; i < len && i < static_cast<int>(sizeof line); ++i) {
      h ^= static_cast<unsigned char>(line[i]);
      h *= 1099511628211ull;
    }
  }
  return h;
}

Quality quality_of(const std::vector<JobNumbers>& jobs) {
  struct Point {
    double power_sum = 0.0;
    int seeds = 0;
    int luts = 0;
    double clock_ns = 0.0;
    double mean_power() const { return power_sum / seeds; }
  };
  // (design, binder, alpha) -> point; std::map keeps designs in a fixed
  // order, so the float sums are reproducible.
  std::map<std::tuple<std::string, std::string, double>, Point> points;
  for (const JobNumbers& j : jobs) {
    Point& p = points[{j.design, j.binder, j.alpha}];
    p.power_sum += j.power_mw;
    ++p.seeds;
    p.luts = j.luts;
    p.clock_ns = j.clock_ns;
  }
  std::vector<double> power, luts, clock;
  double pct_sum = 0.0;
  int pct_designs = 0;
  for (const auto& [key, p] : points) {
    const auto& [design, binder, alpha] = key;
    if (binder != "hlpower" || alpha != 0.5) continue;
    power.push_back(p.mean_power());
    luts.push_back(p.luts);
    clock.push_back(p.clock_ns);
    const auto lopass = points.find({design, "lopass", 0.5});
    if (lopass != points.end()) {
      pct_sum += 100.0 * p.mean_power() / lopass->second.mean_power();
      ++pct_designs;
    }
  }
  Quality q;
  q.power_mw = geomean(power);
  q.luts = geomean(luts);
  q.clock_ns = geomean(clock);
  q.power_pct_of_lopass = pct_designs ? pct_sum / pct_designs : NAN;
  return q;
}

bool same_binding(const hlp::FuBinding& x, const hlp::FuBinding& y) {
  return x.fu_of_op == y.fu_of_op && x.kind_of_fu == y.kind_of_fu &&
         x.flipped == y.flipped;
}

std::string binding_violation(const hlp::Cdfg& g, const hlp::Schedule& s,
                              const hlp::ResourceConstraint& rc,
                              const hlp::FuBinding& fus) {
  if (static_cast<int>(fus.fu_of_op.size()) != g.num_ops())
    return "binding covers " + std::to_string(fus.fu_of_op.size()) +
           " ops, the CDFG has " + std::to_string(g.num_ops());
  std::map<hlp::OpKind, int> fus_of_kind;
  for (const hlp::OpKind kind : fus.kind_of_fu) ++fus_of_kind[kind];
  for (const auto& [kind, count] : fus_of_kind)
    if (count > rc.limit(kind))
      return std::to_string(count) + " " + hlp::to_string(kind) +
             " FUs exceed the constraint " + std::to_string(rc.limit(kind));
  std::set<std::pair<int, int>> busy;  // (FU, control step)
  for (int op = 0; op < g.num_ops(); ++op) {
    const int fu = fus.fu_of_op[op];
    if (fu < 0 || fu >= static_cast<int>(fus.kind_of_fu.size()))
      return "op " + std::to_string(op) + " has no FU";
    if (fus.kind_of_fu[fu] != g.op(op).kind)
      return "op " + std::to_string(op) + " sits on an FU of another kind";
    if (!busy.insert({fu, s.cstep(op)}).second)
      return "FU " + std::to_string(fu) + " runs two ops in step " +
             std::to_string(s.cstep(op));
  }
  return "";
}

std::vector<JobNumbers> check_pass(Workload& wl, const Pass& pass,
                                   const std::vector<JobNumbers>* expected,
                                   Tally& tally) {
  const std::vector<JobResult>* populate = wl.populate_results();
  std::vector<JobNumbers> numbers;
  numbers.reserve(pass.results.size());
  for (std::size_t i = 0; i < pass.results.size(); ++i) {
    const JobResult& r = pass.results[i];
    numbers.push_back(numbers_of(r));
    tally.attempt();
    if (!r.ok) {
      tally.fail(job_label(r.job) + ": " + r.error);
      continue;
    }
    hlp::flow::FlowContext& ctx =
        pass.runners[pass.runner_of[i]]->context_for(r.job);
    std::string why =
        binding_violation(ctx.cdfg(), ctx.schedule(), ctx.rc(), r.outcome.fus);
    if (why.empty() && expected && !(numbers.back() == expected->at(i)))
      why = "numbers differ from the first pass";
    if (why.empty() && populate)
      why = store_hit_violation(r, populate->at(i));
    if (!why.empty()) tally.fail(job_label(r.job) + ": " + why);
  }
  return numbers;
}

void check_scalar(Workload& wl, const Pass& pass, Tally& tally) {
  std::set<std::tuple<std::string, std::string, double>> seen;
  for (std::size_t i = 0; i < pass.results.size(); ++i) {
    const JobResult& ref = pass.results[i];
    const Job& job = ref.job;
    if (job.benchmark != "wang") continue;
    if (!seen.insert({job.benchmark, job.binder.name, job.binder.alpha}).second)
      continue;
    Job scalar = job;
    scalar.sim_engine = hlp::SimEngine::kScalar;
    const JobResult r = wl.warm_runner(pass, i).run({scalar}).front();
    tally.attempt();
    const auto& a = r.outcome.flow;
    const auto& b = ref.outcome.flow;
    if (!r.ok || !ref.ok)
      tally.fail(job_label(job) + " scalar rerun: " + r.error + ref.error);
    else if (a.sim.toggles != b.sim.toggles ||
             a.sim.functional_transitions != b.sim.functional_transitions ||
             a.report.dynamic_power_mw != b.report.dynamic_power_mw)
      tally.fail(job_label(job) + ": scalar simulator disagrees");
  }
}

void corrupt(Pass& pass) {
  for (JobResult& r : pass.results) {
    auto& fus = r.outcome.fus;
    if (!r.ok || fus.fu_of_op.empty()) continue;
    hlp::OpKind& kind = fus.kind_of_fu.at(fus.fu_of_op[0]);
    kind = kind == hlp::OpKind::kAdd ? hlp::OpKind::kMult : hlp::OpKind::kAdd;
    return;
  }
}

}  // namespace perfbench
