// Property tests for ExperimentRunner seed coalescing: for randomized job
// grids (mixed benchmarks, binders, 1-200 seeds, group sizes that are not
// multiples of 64), the coalesced runner must produce JobResults that are
// bit-identical to a runner with coalescing disabled, in the same order,
// with failures still captured per job. Also the streaming result
// callback's contract: once per job, on a fully populated slot, and in
// ascending grid order within a coalesced unit.
#include <gtest/gtest.h>

#include <mutex>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "flow/experiment.hpp"
#include "flow/job_io.hpp"
#include "flow/pipeline.hpp"

namespace hlp {
namespace {

constexpr int kWidth = 4;

flow::Job small_job() {
  flow::Job base;
  base.width = kWidth;
  base.num_vectors = 6;
  return base;
}

// Bit-identical comparison of two job results: exact equality on every
// integer statistic and on every derived double (same inputs through the
// same deterministic arithmetic must give the same bits, not just close).
void expect_identical(const flow::JobResult& a, const flow::JobResult& b) {
  EXPECT_EQ(a.job.benchmark, b.job.benchmark);
  EXPECT_EQ(a.job.seed, b.job.seed);
  EXPECT_EQ(a.job.binder.name, b.job.binder.name);
  ASSERT_EQ(a.ok, b.ok) << a.error << " vs " << b.error;
  if (!a.ok) {
    EXPECT_EQ(a.error, b.error);
    return;
  }
  EXPECT_EQ(a.outcome.fus.fu_of_op, b.outcome.fus.fu_of_op);
  EXPECT_EQ(a.outcome.refined, b.outcome.refined);
  EXPECT_EQ(a.outcome.flow.mapped.num_luts, b.outcome.flow.mapped.num_luts);
  EXPECT_EQ(a.outcome.flow.clock_period_ns, b.outcome.flow.clock_period_ns);
  EXPECT_EQ(a.outcome.flow.sim.num_cycles, b.outcome.flow.sim.num_cycles);
  EXPECT_EQ(a.outcome.flow.sim.toggles, b.outcome.flow.sim.toggles);
  EXPECT_EQ(a.outcome.flow.sim.total_transitions,
            b.outcome.flow.sim.total_transitions);
  EXPECT_EQ(a.outcome.flow.sim.functional_transitions,
            b.outcome.flow.sim.functional_transitions);
  EXPECT_EQ(a.outcome.flow.report.dynamic_power_mw,
            b.outcome.flow.report.dynamic_power_mw);
  EXPECT_EQ(a.outcome.flow.report.toggle_rate_mps,
            b.outcome.flow.report.toggle_rate_mps);
  EXPECT_EQ(a.outcome.flow.report.glitch_fraction,
            b.outcome.flow.report.glitch_fraction);
  EXPECT_EQ(a.outcome.flow.mux_stats.mux_length,
            b.outcome.flow.mux_stats.mux_length);
}

void expect_all_identical(const std::vector<flow::JobResult>& coalesced,
                          const std::vector<flow::JobResult>& independent) {
  ASSERT_EQ(coalesced.size(), independent.size());
  for (std::size_t i = 0; i < coalesced.size(); ++i) {
    SCOPED_TRACE("job #" + std::to_string(i));
    expect_identical(coalesced[i], independent[i]);
  }
}

std::vector<flow::JobResult> run_coalesced(const std::vector<flow::Job>& jobs,
                                           int threads = 4) {
  flow::ExperimentRunner runner(threads);
  runner.set_coalescing(true);
  return runner.run(jobs);
}

std::vector<flow::JobResult> run_independent(
    const std::vector<flow::Job>& jobs, int threads = 1) {
  flow::ExperimentRunner runner(threads);
  runner.set_coalescing(false);
  return runner.run(jobs);
}

TEST(ExperimentBatch, RandomizedGridsBitIdentical) {
  std::mt19937_64 rng(20260731);
  const std::vector<std::vector<std::string>> bench_choices = {
      {"pr"}, {"wang"}, {"pr", "wang"}};
  const std::vector<double> alphas = {0.25, 0.5, 1.0};
  // Group sizes straddling the 64-lane word boundary, none a multiple.
  const std::vector<int> seed_counts = {1, 3, 63, 65, 130};

  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto& benchmarks = bench_choices[rng() % bench_choices.size()];
    std::vector<flow::BinderSpec> binders;
    binders.push_back(flow::BinderSpec{"lopass"});
    flow::BinderSpec hlp_spec{"hlpower"};
    hlp_spec.alpha = alphas[rng() % alphas.size()];
    binders.push_back(hlp_spec);

    const int num_seeds = seed_counts[rng() % seed_counts.size()];
    std::vector<std::uint64_t> seeds;
    for (int s = 0; s < num_seeds; ++s) seeds.push_back(rng() % 1000);

    const auto jobs =
        flow::ExperimentRunner::grid(benchmarks, binders, seeds, {},
                                     small_job());
    ASSERT_EQ(jobs.size(), benchmarks.size() * binders.size() * seeds.size());

    const auto coalesced = run_coalesced(jobs);
    const auto independent = run_independent(jobs);
    expect_all_identical(coalesced, independent);

    // Every (benchmark, binder) group really was coalesced...
    for (const auto& res : coalesced)
      EXPECT_EQ(res.group_size, static_cast<std::size_t>(num_seeds));
    // ...and the independent runner ran every job alone.
    for (const auto& res : independent) EXPECT_EQ(res.group_size, 1u);
  }
}

TEST(ExperimentBatch, TwoHundredSeedsOneBinding) {
  // The upper end of the issue's 1-200 seed range through one binding:
  // 200 = 3 full 64-lane words + a 8-lane remainder word.
  std::vector<std::uint64_t> seeds;
  for (int s = 0; s < 200; ++s) seeds.push_back(1000 + s);
  const auto jobs = flow::ExperimentRunner::grid(
      {"pr"}, {flow::BinderSpec{"hlpower"}}, seeds, {}, small_job());
  const auto coalesced = run_coalesced(jobs);
  const auto independent = run_independent(jobs, /*threads=*/2);
  expect_all_identical(coalesced, independent);
  EXPECT_EQ(coalesced.front().group_size, 200u);
}

TEST(ExperimentBatch, DuplicateSeedsShareALaneEach) {
  // Duplicate seeds are legal grid points: every copy gets its own lane
  // and its own (identical) result.
  const std::vector<std::uint64_t> seeds = {7, 7, 7, 11, 7};
  const auto jobs = flow::ExperimentRunner::grid(
      {"wang"}, {flow::BinderSpec{"lopass"}}, seeds, {}, small_job());
  const auto coalesced = run_coalesced(jobs);
  const auto independent = run_independent(jobs);
  expect_all_identical(coalesced, independent);
  expect_identical(coalesced[0], coalesced[1]);
  EXPECT_NE(coalesced[0].outcome.flow.sim.toggles,
            coalesced[3].outcome.flow.sim.toggles);
}

TEST(ExperimentBatch, ScalarEngineGroupsCoalesceViaReferencePath) {
  // kScalar groups coalesce too (shared head stages); simulate_runs loops
  // the scalar oracle per lane, so results still match exactly.
  flow::Job base = small_job();
  base.sim_engine = SimEngine::kScalar;
  const auto jobs = flow::ExperimentRunner::grid(
      {"pr"}, {flow::BinderSpec{"hlpower"}}, {1, 2, 3, 4, 5}, {}, base);
  const auto coalesced = run_coalesced(jobs);
  const auto independent = run_independent(jobs);
  expect_all_identical(coalesced, independent);
  EXPECT_EQ(coalesced.front().group_size, 5u);
}

TEST(ExperimentBatch, MixedEnginesDoNotShareAGroup) {
  // Same binding, same seeds, different engines: the group key separates
  // them (results are identical anyway, but the oracle must not silently
  // ride the batch path it is meant to check).
  std::vector<flow::Job> jobs;
  for (const SimEngine engine : {SimEngine::kBatched, SimEngine::kScalar})
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      flow::Job j = small_job();
      j.benchmark = "pr";
      j.seed = seed;
      j.sim_engine = engine;
      jobs.push_back(j);
    }
  const auto results = run_coalesced(jobs);
  for (const auto& res : results) EXPECT_EQ(res.group_size, 3u);
  expect_all_identical(results, run_independent(jobs));
}

TEST(ExperimentBatch, GroupFailureIsCapturedOnEveryMemberJob) {
  // A group whose shared pipeline throws (unknown binder) fails on every
  // member with the error, while other groups are untouched — in order.
  flow::BinderSpec bad{"no-such-binder"};
  const auto bad_jobs = flow::ExperimentRunner::grid(
      {"pr"}, {bad}, {1, 2, 3, 4, 5, 6, 7}, {}, small_job());
  const auto good_jobs = flow::ExperimentRunner::grid(
      {"pr"}, {flow::BinderSpec{"hlpower"}}, {1, 2, 3}, {}, small_job());
  std::vector<flow::Job> jobs;
  jobs.insert(jobs.end(), bad_jobs.begin(), bad_jobs.end());
  jobs.insert(jobs.end(), good_jobs.begin(), good_jobs.end());

  const auto results = run_coalesced(jobs);
  ASSERT_EQ(results.size(), 10u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_FALSE(results[i].ok);
    EXPECT_NE(results[i].error.find("no-such-binder"), std::string::npos);
    EXPECT_EQ(results[i].group_size, 7u);
  }
  for (std::size_t i = 7; i < 10; ++i)
    EXPECT_TRUE(results[i].ok) << results[i].error;
  expect_all_identical(results, run_independent(jobs));
}

TEST(ExperimentBatch, CoalescingDefaultsOnAndToggles) {
  flow::ExperimentRunner runner(1);
  EXPECT_TRUE(runner.coalescing());  // default on
  runner.set_coalescing(false);
  EXPECT_FALSE(runner.coalescing());
}

// --- the streaming result callback ---------------------------------------

TEST(ResultCallback, FiresOncePerJobWithThePopulatedSlot) {
  std::vector<flow::Job> jobs = flow::ExperimentRunner::grid(
      {"pr", "wang"}, {flow::BinderSpec{"hlpower"}, flow::BinderSpec{"lopass"}},
      {42, 7, 9}, {}, small_job());
  // A failing job must fire too.
  flow::Job bad = jobs[0];
  bad.benchmark = "no-such-benchmark";
  jobs.push_back(bad);

  flow::ExperimentRunner runner(4);
  runner.set_store_dir("");
  std::mutex mu;
  std::vector<int> fired(jobs.size(), 0);
  std::size_t ok_count = 0;
  runner.set_result_callback([&](std::size_t i, const flow::JobResult& r) {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_LT(i, fired.size());
    ++fired[i];
    // The slot is fully populated when the callback fires: either a
    // success with its outcome or a failure with its error, seconds set.
    EXPECT_TRUE(r.ok || !r.error.empty());
    EXPECT_GE(r.seconds, 0.0);
    EXPECT_EQ(r.job.benchmark, jobs[i].benchmark);
    EXPECT_EQ(r.job.seed, jobs[i].seed);
    if (r.ok) ++ok_count;
  });
  const auto results = runner.run(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    EXPECT_EQ(fired[i], 1) << "job " << i;
  EXPECT_FALSE(results.back().ok);
  EXPECT_EQ(ok_count, jobs.size() - 1);
}

TEST(ResultCallback, CoalescedUnitFiresInAscendingGridOrder) {
  // Two seed groups interleaved in the grid: pr at indices 0, 2, 4 and
  // wang at 1, 3. One thread runs each group as one coalesced unit, so
  // the callback sequence is each group's members contiguous and
  // ascending, and every member already carries the whole unit's
  // outcome and wall clock when it fires.
  auto make = [](const char* bench, std::uint64_t seed) {
    flow::Job j = small_job();
    j.benchmark = bench;
    j.binder.name = "hlpower";
    j.seed = seed;
    return j;
  };
  const std::vector<flow::Job> jobs = {make("pr", 42), make("wang", 42),
                                       make("pr", 7), make("wang", 7),
                                       make("pr", 9)};

  flow::ExperimentRunner runner(1);
  runner.set_coalescing(true);
  runner.set_store_dir("");
  std::vector<std::size_t> order;
  std::vector<flow::JobResult> seen(jobs.size());
  runner.set_result_callback([&](std::size_t i, const flow::JobResult& r) {
    order.push_back(i);
    seen[i] = r;
  });
  const auto results = runner.run(jobs);

  const std::vector<std::size_t> pr_first = {0, 2, 4, 1, 3};
  const std::vector<std::size_t> wang_first = {1, 3, 0, 2, 4};
  EXPECT_TRUE(order == pr_first || order == wang_first)
      << ::testing::PrintToString(order);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE("job #" + std::to_string(i));
    ASSERT_TRUE(results[i].ok) << results[i].error;
    EXPECT_EQ(results[i].group_size, jobs[i].benchmark == "pr" ? 3u : 2u);
    EXPECT_EQ(seen[i].group_size, results[i].group_size);
    EXPECT_EQ(seen[i].seconds, results[i].seconds);
    EXPECT_TRUE(flow::same_outcome(seen[i], results[i]));
  }
}

}  // namespace
}  // namespace hlp
