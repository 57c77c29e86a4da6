#include "workloads.hpp"

#include <filesystem>
#include <stdexcept>

#include "cdfg/benchmarks.hpp"
#include "sim/simd_mode.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using hlp::flow::BinderSpec;

const std::vector<std::string> kAllDesigns = {"chem", "dir",   "honda", "mcm",
                                              "pr",   "steam", "wang"};
const std::vector<std::string> kToyDesigns = {"pr", "wang"};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Stimulus seed k of `design`, derived from the workload seed. Every
/// binder of one design sees the same stimuli (the paper's controlled
/// comparison).
std::uint64_t stimulus_seed(std::uint64_t seed, const std::string& design,
                            std::uint64_t k) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a of the design name
  for (const char c : design) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return splitmix64(splitmix64(seed) ^ h ^ splitmix64(k));
}

/// The resource constraints of the paper's Table 2.
hlp::ResourceConstraint table2_rc(const std::string& design) {
  static const std::map<std::string, hlp::ResourceConstraint> kRc = {
      {"chem", {9, 7}}, {"dir", {3, 2}},  {"honda", {4, 4}}, {"mcm", {4, 2}},
      {"pr", {2, 2}},   {"steam", {7, 6}}, {"wang", {2, 2}}};
  return kRc.at(design);
}

BinderSpec binder(const std::string& name, double alpha = 0.5) {
  BinderSpec spec;
  spec.name = name;
  spec.alpha = alpha;
  return spec;
}

Job make_job(const std::string& design, const BinderSpec& spec,
             hlp::ResourceConstraint rc, int vectors, std::uint64_t seed) {
  Job job;
  job.benchmark = design;
  job.binder = spec;
  job.rc = rc;
  job.num_vectors = vectors;
  job.seed = seed;
  return job;
}

void require_ok(const std::vector<JobResult>& results, const char* what) {
  for (const JobResult& r : results)
    if (!r.ok)
      throw std::runtime_error(std::string(what) + ": job " +
                               r.job.benchmark + "/" + r.job.binder.name +
                               " failed: " + r.error);
}

class ColdBind final : public Workload {
 public:
  ColdBind(std::uint64_t seed, bool toy)
      : Workload(toy ? kToyDesigns : kAllDesigns) {
    for (const auto& d : designs_)
      jobs_.push_back(make_job(d, binder("hlpower"), {0, 0}, toy ? 40 : 200,
                               stimulus_seed(seed, d, 0)));
  }

  void setup() override { generate_graphs(); }

  Pass run_pass(const Callback& cb) override {
    Pass pass;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      auto runner = fresh_runner();
      if (cb)
        runner->set_result_callback(
            [&cb, i](std::size_t, const JobResult& r) { cb(i, r); });
      pass.results.push_back(runner->run({jobs_[i]}).front());
      runner->set_result_callback({});  // the runner outlives `cb`
      pass.runner_of.push_back(pass.runners.size());
      pass.runners.push_back(std::move(runner));
    }
    pass.wall_s = seconds_since(t0);
    return pass;
  }

  ExperimentRunner& warm_runner(const Pass& pass, std::size_t i) override {
    return *pass.runners.at(pass.runner_of.at(i));
  }

  std::vector<JobResult> reference_results(const Pass& last) override {
    // LOPASS on the same contexts and stimuli: the baseline the power
    // comparison needs, run outside the timed phase.
    std::vector<JobResult> out;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      Job job = jobs_[i];
      job.binder = binder("lopass");
      out.push_back(warm_runner(last, i).run({job}).front());
    }
    return out;
  }
};

class SeedSweep final : public Workload {
 public:
  SeedSweep(std::uint64_t seed, bool toy)
      : Workload(toy ? kToyDesigns : kAllDesigns),
        warm_vectors_(toy ? 4 : 8) {
    const int seeds = toy ? 4 : 64;
    for (const auto& d : designs_)
      for (const auto& spec : {binder("lopass"), binder("hlpower")})
        for (int k = 0; k < seeds; ++k)
          jobs_.push_back(make_job(d, spec, table2_rc(d), toy ? 40 : 200,
                                   stimulus_seed(seed, d, k)));
    for (std::size_t i = 0; i < jobs_.size(); i += seeds) {
      Job warm = jobs_[i];
      warm.num_vectors = warm_vectors_;
      warm_jobs_.push_back(warm);
    }
  }

  void setup() override {
    generate_graphs();
    runner_ = fresh_runner();
    require_ok(runner_->run(warm_jobs_), "seed_sweep set-up");
  }

  Pass run_pass(const Callback& cb) override {
    Pass pass;
    runner_->set_result_callback(cb);
    const auto t0 = Clock::now();
    pass.results = runner_->run(jobs_);
    pass.wall_s = seconds_since(t0);
    runner_->set_result_callback({});
    pass.runners = {runner_};
    pass.runner_of.assign(jobs_.size(), 0);
    return pass;
  }

  ExperimentRunner& warm_runner(const Pass&, std::size_t) override {
    return *runner_;
  }

 private:
  int warm_vectors_;
  std::vector<Job> warm_jobs_;
  std::shared_ptr<ExperimentRunner> runner_;
};

class Table3Warm final : public Workload {
 public:
  Table3Warm(std::uint64_t seed, bool toy, std::string scratch)
      : Workload(toy ? kToyDesigns : kAllDesigns),
        scratch_(std::move(scratch)) {
    for (const auto& d : designs_)
      for (const auto& spec :
           {binder("lopass"), binder("hlpower", 0.5), binder("hlpower", 1.0)})
        jobs_.push_back(make_job(d, spec, table2_rc(d), toy ? 40 : 1000,
                                 stimulus_seed(seed, d, 0)));
    // Frames on avx2 words, not the avx512 that auto picks (cold_bind keeps
    // avx512): in alternating runs on a shared host, avx512 frames ranged
    // over 25% of the median and avx2 frames over 7%.
    if (hlp::simd_mode_supported(hlp::SimdMode::kAvx2))
      for (Job& job : jobs_) job.simd = hlp::SimdMode::kAvx2;
  }

  void setup() override {
    generate_graphs();
    // Every set-up populates a fresh store cold.
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
    dir_ = scratch_ + "/store" + std::to_string(setups_++);
    populate_ = fresh_runner();
    populate_->set_store_dir(dir_);
    std::vector<Job> populate = jobs_;
    for (Job& job : populate) job.num_vectors = kPopulateVectors;
    populate_results_ = populate_->run(populate);
    require_ok(populate_results_, "table3_warm set-up");
  }

  Pass run_pass(const Callback& cb) override {
    Pass pass;
    const auto t0 = Clock::now();
    auto runner = fresh_runner();
    runner->set_store_dir(dir_);
    runner->set_result_callback(cb);
    pass.results = runner->run(jobs_);
    pass.wall_s = seconds_since(t0);
    runner->set_result_callback({});  // the runner outlives `cb`
    pass.runners = {std::move(runner)};
    pass.runner_of.assign(jobs_.size(), 0);
    return pass;
  }

  ExperimentRunner& warm_runner(const Pass&, std::size_t) override {
    return *populate_;
  }

  std::string store_dir() const override { return dir_; }

  const std::vector<JobResult>* populate_results() const override {
    return &populate_results_;
  }

 private:
  static constexpr int kPopulateVectors = 8;
  std::string scratch_;
  std::string dir_;
  int setups_ = 0;
  std::shared_ptr<ExperimentRunner> populate_;
  std::vector<JobResult> populate_results_;
};

}  // namespace

void Workload::generate_graphs() {
  auto graphs = std::make_shared<std::map<std::string, hlp::Cdfg>>();
  for (const auto& d : designs_)
    graphs->emplace(d, hlp::make_paper_benchmark(d));
  graphs_ = std::move(graphs);
}

std::shared_ptr<ExperimentRunner> Workload::fresh_runner() const {
  auto graphs = graphs_;
  auto runner = std::make_shared<ExperimentRunner>(
      kThreads, [graphs](const std::string& name) { return graphs->at(name); });
  runner->set_sa_cache_path("");
  runner->set_store_dir("");
  runner->set_coalescing(true);
  return runner;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool toy,
                                        const std::string& scratch) {
  if (name == "cold_bind") return std::make_unique<ColdBind>(seed, toy);
  if (name == "seed_sweep") return std::make_unique<SeedSweep>(seed, toy);
  if (name == "table3_warm")
    return std::make_unique<Table3Warm>(seed, toy, scratch);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
