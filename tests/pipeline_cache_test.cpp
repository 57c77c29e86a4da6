// Tests for the per-binding StageCache: hits skip the bind-fus..time span
// (elaborate/map included), binding_hash() cannot collide across differing
// BinderSpec/rc/width, cached and uncached outcomes are equal, and custom
// stage overrides opt the pipeline out of caching entirely — plus the
// persistent tier underneath it (HLP_STORE / ExperimentRunner store
// wiring): a warm second run against the same artifact store skips
// elaborate/map/time bit-identically from a cold process,
// artifact_key_for names the object a run publishes, and runners in
// several threads and a forked process publishing overlapping keys into
// one store leave it consistent.
//
// The direct-FlowContext tests construct their contexts by hand, which
// never binds an artifact store — their hit/miss/size counters stay exact
// whatever HLP_STORE says in the surrounding environment.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cdfg/benchmarks.hpp"
#include "common/rng.hpp"
#include "flow/experiment.hpp"
#include "flow/flow_context.hpp"
#include "flow/job_io.hpp"
#include "flow/pipeline.hpp"
#include "power/sa_cache.hpp"
#include "store/artifact_store.hpp"

namespace hlp {
namespace {

constexpr int kWidth = 4;
constexpr int kVectors = 12;

flow::ContextOptions small_options(int width = kWidth) {
  flow::ContextOptions opt;
  opt.width = width;
  return opt;
}

flow::RunSpec hlp_spec() {
  flow::RunSpec spec;
  spec.binder.name = "hlpower";
  spec.num_vectors = kVectors;
  return spec;
}

bool cached(const flow::PipelineOutcome& out, const std::string& stage) {
  return std::find(out.cached_stages.begin(), out.cached_stages.end(),
                   stage) != out.cached_stages.end();
}

void expect_equal_outcomes(const flow::PipelineOutcome& a,
                           const flow::PipelineOutcome& b) {
  EXPECT_EQ(a.fus.fu_of_op, b.fus.fu_of_op);
  EXPECT_EQ(a.refined, b.refined);
  EXPECT_EQ(a.flow.mapped.num_luts, b.flow.mapped.num_luts);
  EXPECT_EQ(a.flow.mapped.depth, b.flow.mapped.depth);
  EXPECT_EQ(a.flow.clock_period_ns, b.flow.clock_period_ns);
  EXPECT_EQ(a.flow.sim.toggles, b.flow.sim.toggles);
  EXPECT_EQ(a.flow.sim.total_transitions, b.flow.sim.total_transitions);
  EXPECT_EQ(a.flow.sim.functional_transitions,
            b.flow.sim.functional_transitions);
  EXPECT_EQ(a.flow.report.dynamic_power_mw, b.flow.report.dynamic_power_mw);
  EXPECT_EQ(a.flow.report.toggle_rate_mps, b.flow.report.toggle_rate_mps);
  EXPECT_EQ(a.flow.mux_stats.mux_length, b.flow.mux_stats.mux_length);
}

TEST(StageCache, SecondRunHitsAndSkipsElaborateAndMap) {
  flow::FlowContext ctx(make_paper_benchmark("pr"), {2, 2}, small_options());
  const flow::Pipeline pipeline = flow::Pipeline::standard();

  const flow::PipelineOutcome first = pipeline.run(ctx, hlp_spec());
  EXPECT_TRUE(first.cached_stages.empty());
  EXPECT_EQ(ctx.stage_cache().hits(), 0u);
  EXPECT_EQ(ctx.stage_cache().misses(), 1u);
  EXPECT_EQ(ctx.stage_cache().size(), 1u);

  const flow::PipelineOutcome second = pipeline.run(ctx, hlp_spec());
  EXPECT_EQ(ctx.stage_cache().hits(), 1u);
  EXPECT_EQ(ctx.stage_cache().misses(), 1u);
  // The whole bind-fus..time span came from the cache, elaborate and map
  // included; the seed-dependent tail (simulate, power) still ran.
  for (const char* stage :
       {"bind-fus", "refine", "elaborate", "map", "time"})
    EXPECT_TRUE(cached(second, stage)) << stage;
  EXPECT_FALSE(cached(second, "simulate"));
  EXPECT_FALSE(cached(second, "power"));
  // The timing ledger still has one entry per stage, in order.
  ASSERT_EQ(second.timings.size(), flow::Pipeline::stage_names().size());
  expect_equal_outcomes(first, second);
}

TEST(StageCache, DistinctSpecsMissAndCoexist) {
  flow::FlowContext ctx(make_paper_benchmark("pr"), {2, 2}, small_options());
  const flow::Pipeline pipeline = flow::Pipeline::standard();

  flow::RunSpec lopass;
  lopass.binder.name = "lopass";
  lopass.num_vectors = kVectors;
  flow::RunSpec half = hlp_spec();
  flow::RunSpec one = hlp_spec();
  one.binder.alpha = 1.0;

  pipeline.run(ctx, lopass);
  pipeline.run(ctx, half);
  pipeline.run(ctx, one);
  EXPECT_EQ(ctx.stage_cache().size(), 3u);
  EXPECT_EQ(ctx.stage_cache().hits(), 0u);

  // Revisiting any of the three hits its own entry.
  const auto again = pipeline.run(ctx, lopass);
  EXPECT_EQ(ctx.stage_cache().hits(), 1u);
  EXPECT_TRUE(cached(again, "elaborate"));
}

TEST(StageCache, BindingHashCannotCollideAcrossTheTestGrid) {
  // The "hash" is an exact serialisation of every field the cached span
  // reads, so distinct (BinderSpec, rc, width) grid points must map to
  // distinct keys — collision-freedom by construction, verified here over
  // the full cross product.
  std::set<std::string> hashes;
  std::size_t points = 0;
  for (const int width : {4, 8})
    for (const ResourceConstraint rc :
         {ResourceConstraint{2, 2}, ResourceConstraint{3, 2},
          ResourceConstraint{2, 3}, ResourceConstraint{3, 3}}) {
      flow::FlowContext ctx(make_paper_benchmark("pr"), rc,
                            small_options(width));
      for (const char* name : {"hlpower", "lopass"})
        for (const double alpha : {0.25, 0.5, 1.0})
          for (const double beta : {-1.0, 0.5})
            for (const bool refine : {false, true})
              for (const double lut_delay : {0.45, 0.9}) {
                flow::BinderSpec spec{name};
                spec.alpha = alpha;
                spec.beta_add = beta;
                spec.refine = refine;
                TimingModel timing;
                timing.lut_delay_ns = lut_delay;
                hashes.insert(ctx.binding_hash(spec, MapParams{}, timing));
                ++points;
              }
    }
  EXPECT_EQ(hashes.size(), points);
}

TEST(StageCache, TimingModelIsPartOfTheKey) {
  // The cached span ends at `time`, whose output depends on the timing
  // model — two runs differing only in RunSpec::timing must not share an
  // entry (regression: a hit used to install the first model's clock).
  flow::FlowContext ctx(make_paper_benchmark("pr"), {2, 2}, small_options());
  const flow::Pipeline pipeline = flow::Pipeline::standard();
  flow::RunSpec fast = hlp_spec();
  flow::RunSpec slow = hlp_spec();
  slow.timing.lut_delay_ns = 2 * fast.timing.lut_delay_ns;
  const auto a = pipeline.run(ctx, fast);
  const auto b = pipeline.run(ctx, slow);
  EXPECT_EQ(ctx.stage_cache().hits(), 0u);
  EXPECT_EQ(ctx.stage_cache().size(), 2u);
  EXPECT_GT(b.flow.clock_period_ns, a.flow.clock_period_ns);
  // Re-running each spec hits its own entry with its own clock.
  const auto b2 = pipeline.run(ctx, slow);
  EXPECT_EQ(ctx.stage_cache().hits(), 1u);
  EXPECT_EQ(b2.flow.clock_period_ns, b.flow.clock_period_ns);
}

TEST(StageCache, CachedAndUncachedOutcomesAreEqual) {
  // Same context, caching on vs off: identical numbers either way.
  flow::FlowContext ctx(make_paper_benchmark("wang"), {2, 2}, small_options());
  const flow::Pipeline pipeline = flow::Pipeline::standard();

  flow::RunSpec uncached_spec = hlp_spec();
  uncached_spec.use_stage_cache = false;
  const auto uncached1 = pipeline.run(ctx, uncached_spec);
  const auto uncached2 = pipeline.run(ctx, uncached_spec);
  EXPECT_EQ(ctx.stage_cache().size(), 0u);
  EXPECT_EQ(ctx.stage_cache().hits() + ctx.stage_cache().misses(), 0u);

  const auto miss = pipeline.run(ctx, hlp_spec());   // populates
  const auto hit = pipeline.run(ctx, hlp_spec());    // reuses
  EXPECT_EQ(ctx.stage_cache().hits(), 1u);
  expect_equal_outcomes(uncached1, uncached2);
  expect_equal_outcomes(uncached1, miss);
  expect_equal_outcomes(uncached1, hit);
}

TEST(StageCache, RefineArtifactsRoundTrip) {
  flow::FlowContext ctx(make_paper_benchmark("pr"), {2, 2}, small_options());
  const flow::Pipeline pipeline = flow::Pipeline::standard();
  flow::RunSpec spec = hlp_spec();
  spec.binder.refine = true;

  const auto first = pipeline.run(ctx, spec);
  const auto second = pipeline.run(ctx, spec);
  ASSERT_TRUE(first.refined);
  ASSERT_TRUE(second.refined);
  EXPECT_TRUE(cached(second, "refine"));
  EXPECT_EQ(first.refine.cost_before, second.refine.cost_before);
  EXPECT_EQ(first.refine.cost_after, second.refine.cost_after);
  expect_equal_outcomes(first, second);
}

TEST(StageCache, ReplacedStageOptsOutOfCaching) {
  // A pipeline with a custom pre-simulate stage must not read OR write the
  // cache: the binding hash cannot see the override's body, so caching
  // would serve another pipeline's artifacts for the same spec.
  flow::FlowContext ctx(make_paper_benchmark("pr"), {2, 2}, small_options());
  flow::Pipeline custom = flow::Pipeline::standard();
  int calls = 0;
  custom.replace("map", [&calls](flow::PipelineState& st) {
    ++calls;
    st.out.flow.mapped = tech_map(st.datapath.netlist, st.spec.map);
  });
  custom.run(ctx, hlp_spec());
  custom.run(ctx, hlp_spec());
  EXPECT_EQ(calls, 2);  // no hit short-circuited the override
  EXPECT_EQ(ctx.stage_cache().size(), 0u);
  EXPECT_EQ(ctx.stage_cache().hits() + ctx.stage_cache().misses(), 0u);

  // Replacing only a post-simulate stage keeps caching sound and on.
  flow::Pipeline tail = flow::Pipeline::standard();
  tail.replace("power", [](flow::PipelineState&) {});
  tail.run(ctx, hlp_spec());
  EXPECT_EQ(ctx.stage_cache().misses(), 1u);
  EXPECT_EQ(ctx.stage_cache().size(), 1u);
}

TEST(StageCache, BatchRunsShareTheCacheWithSingleRuns) {
  // run_batch populates the same per-context cache run() reads, and vice
  // versa — a seed sweep after a single probe run skips straight to
  // simulate.
  flow::FlowContext ctx(make_paper_benchmark("pr"), {2, 2}, small_options());
  const flow::Pipeline pipeline = flow::Pipeline::standard();
  const auto probe = pipeline.run(ctx, hlp_spec());
  const auto batch = pipeline.run_batch(ctx, hlp_spec(), {5, 6, 7});
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(ctx.stage_cache().hits(), 1u);
  for (const auto& out : batch) {
    EXPECT_TRUE(std::find(out.cached_stages.begin(), out.cached_stages.end(),
                          "elaborate") != out.cached_stages.end());
    EXPECT_EQ(out.fus.fu_of_op, probe.fus.fu_of_op);
    EXPECT_EQ(out.flow.clock_period_ns, probe.flow.clock_period_ns);
  }
  // Seed 42 is the probe's default: lane results match the single run.
  const auto again = pipeline.run_batch(ctx, hlp_spec(), {42});
  EXPECT_EQ(again[0].flow.sim.toggles, probe.flow.sim.toggles);
  EXPECT_EQ(again[0].flow.report.dynamic_power_mw,
            probe.flow.report.dynamic_power_mw);
}

// --- the persistent tier: ExperimentRunner + ArtifactStore ---------------

std::vector<flow::Job> store_grid() {
  std::vector<flow::Job> jobs;
  for (const char* bench : {"pr", "wang"})
    for (const std::uint64_t seed : {42ull, 7ull}) {
      flow::Job j;
      j.benchmark = bench;
      j.binder.name = "hlpower";
      j.width = kWidth;
      j.num_vectors = kVectors;
      j.seed = seed;
      jobs.push_back(j);
    }
  return jobs;
}

std::string fresh_store_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(StageCacheStore, WarmRunnerSkipsTheCachedSpanBitIdentically) {
  const std::string dir = fresh_store_dir("pipeline_store_warm");
  const std::vector<flow::Job> jobs = store_grid();

  // Cold: a fresh runner computes everything and publishes each context's
  // bind-fus..time entry into the store.
  std::vector<flow::JobResult> cold;
  {
    flow::ExperimentRunner runner(2);
    runner.set_store_dir(dir);
    cold = runner.run(jobs);
    ASSERT_NE(runner.artifact_store(), nullptr);
    EXPECT_EQ(runner.artifact_store()->hits(), 0u);
    EXPECT_GT(runner.artifact_store()->publishes(), 0u);
    EXPECT_GT(runner.artifact_store()->size(), 0u);
  }
  for (const auto& r : cold) ASSERT_TRUE(r.ok) << r.error;

  // Warm: a NEW runner (fresh process state: empty in-memory caches)
  // against the same store must reuse every entry — the expensive span is
  // skipped wholesale and the numbers are bit-identical.
  flow::ExperimentRunner warm_runner(2);
  warm_runner.set_store_dir(dir);
  const std::vector<flow::JobResult> warm = warm_runner.run(jobs);
  ASSERT_NE(warm_runner.artifact_store(), nullptr);
  EXPECT_GT(warm_runner.artifact_store()->hits(), 0u);
  EXPECT_EQ(warm_runner.artifact_store()->rejected(), 0u);
  // Nothing new to say: every publish was a byte-equal no-op.
  EXPECT_EQ(warm_runner.artifact_store()->publishes(), 0u);

  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    ASSERT_TRUE(warm[i].ok) << warm[i].error;
    EXPECT_TRUE(flow::same_outcome(cold[i], warm[i])) << "job " << i;
    // The whole cached span came off disk, elaborate/map/time included.
    for (const char* stage : {"bind-fus", "elaborate", "map", "time"})
      EXPECT_TRUE(cached(warm[i].outcome, stage))
          << "job " << i << " stage " << stage;
  }
}

TEST(StageCacheStore, RunnersWithoutAStoreStayCold) {
  // No store dir: two fresh runners never share artifacts (the pre-store
  // behaviour), pinning that persistence is strictly opt-in.
  const std::vector<flow::Job> jobs = {store_grid()[0]};
  flow::ExperimentRunner a(1), b(1);
  a.set_store_dir("");
  b.set_store_dir("");
  const auto ra = a.run(jobs);
  const auto rb = b.run(jobs);
  ASSERT_TRUE(ra[0].ok && rb[0].ok);
  EXPECT_TRUE(ra[0].outcome.cached_stages.empty());
  EXPECT_TRUE(rb[0].outcome.cached_stages.empty());
  EXPECT_TRUE(flow::same_outcome(ra[0], rb[0]));
  EXPECT_EQ(a.artifact_store(), nullptr);
}

TEST(StageCacheStore, ArtifactKeyForNamesThePublishedSpan) {
  // artifact_key_for is the key `hlp_store gc --keep-manifest` keeps
  // alive: it must name exactly the object a run publishes, and it must
  // move with the knobs that change the bind-fus..time span and only
  // with those.
  const std::string dir = fresh_store_dir("pipeline_store_keys");
  const flow::Job base = store_grid()[0];
  store::ArtifactKey base_key;
  {
    flow::ExperimentRunner runner(1);
    runner.set_store_dir(dir);
    const auto r = runner.run({base});
    ASSERT_TRUE(r[0].ok) << r[0].error;
    base_key = runner.artifact_key_for(base);
  }
  store::ArtifactStore audit(dir);
  EXPECT_NE(audit.find(base_key), nullptr);

  // One job on a fresh runner over the same store: its in-memory
  // StageCache starts cold, so the store's counters say whether the span
  // was reused or recomputed.
  struct Probe {
    store::ArtifactKey key;
    std::uint64_t hits, misses, publishes;
  };
  auto probe = [&](const flow::Job& job) {
    flow::ExperimentRunner runner(1);
    runner.set_store_dir(dir);
    const auto r = runner.run({job});
    EXPECT_TRUE(r[0].ok) << r[0].error;
    const store::ArtifactStore* st = runner.artifact_store();
    return Probe{runner.artifact_key_for(job), st->hits(), st->misses(),
                 st->publishes()};
  };

  // Tail-only knobs: same key, the span comes off disk.
  flow::Job more_vectors = base;
  more_vectors.num_vectors *= 2;
  flow::Job other_seed = base;
  other_seed.seed += 1;
  for (const flow::Job& job : {more_vectors, other_seed}) {
    const Probe p = probe(job);
    EXPECT_EQ(p.key, base_key);
    EXPECT_EQ(p.hits, 1u);
    EXPECT_EQ(p.misses, 0u);
    EXPECT_EQ(p.publishes, 0u);
  }

  // Span-changing knobs: a new key (binding hash, scope), one recompute.
  flow::Job other_alpha = base;
  other_alpha.binder.alpha = 1.0;
  flow::Job other_scheduler = base;
  other_scheduler.scheduler = "asap";
  for (const flow::Job& job : {other_alpha, other_scheduler}) {
    const Probe p = probe(job);
    EXPECT_NE(p.key, base_key);
    EXPECT_EQ(p.hits, 0u);
    EXPECT_EQ(p.misses, 1u);
    EXPECT_EQ(p.publishes, 1u);
  }
}

TEST(StageCacheStore, CorruptStoreDegradesToAColdRunAndSelfHeals) {
  const std::string dir = fresh_store_dir("pipeline_store_corrupt");
  const std::vector<flow::Job> jobs = {store_grid()[0]};
  std::vector<flow::JobResult> cold;
  {
    flow::ExperimentRunner runner(1);
    runner.set_store_dir(dir);
    cold = runner.run(jobs);
    ASSERT_TRUE(cold[0].ok) << cold[0].error;
    ASSERT_EQ(runner.artifact_store()->size(), 1u);
  }
  // Truncate every object: a warm run must fall back to computing (and
  // republish the repaired entries), never fail or serve garbage.
  for (const auto& de :
       std::filesystem::directory_iterator(dir + "/objects")) {
    const auto sz = std::filesystem::file_size(de.path());
    std::filesystem::resize_file(de.path(), sz / 2);
  }
  flow::ExperimentRunner warm(1);
  warm.set_store_dir(dir);
  const auto again = warm.run(jobs);
  ASSERT_TRUE(again[0].ok) << again[0].error;
  EXPECT_TRUE(again[0].outcome.cached_stages.empty());  // cold recompute
  EXPECT_GT(warm.artifact_store()->rejected(), 0u);
  EXPECT_GT(warm.artifact_store()->publishes(), 0u);  // repaired
  EXPECT_TRUE(flow::same_outcome(cold[0], again[0]));

  // Third run: the repair made the store warm again.
  flow::ExperimentRunner healed(1);
  healed.set_store_dir(dir);
  const auto third = healed.run(jobs);
  ASSERT_TRUE(third[0].ok) << third[0].error;
  EXPECT_TRUE(cached(third[0].outcome, "elaborate"));
  EXPECT_TRUE(flow::same_outcome(cold[0], third[0]));
}

// The randomized dogpile grid: benchmarks x binders (all four registered
// families, refinement included) x a non-multiple-of-64 seed count,
// shuffled so the work units interleave coalescing groups.
std::vector<flow::Job> property_grid() {
  flow::Job base;
  base.width = kWidth;
  base.num_vectors = 40;
  flow::BinderSpec hlp_half{"hlpower"};
  flow::BinderSpec lopass{"lopass"};
  flow::BinderSpec anneal{"anneal"};
  flow::BinderSpec refined{"hlpower"};
  refined.alpha = 1.0;
  refined.refine = true;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 17; ++s) seeds.push_back(300 + s);
  std::vector<flow::Job> jobs = flow::ExperimentRunner::grid(
      {"pr", "wang"}, {hlp_half, lopass, anneal, refined}, seeds, {}, base);
  // One job that fails: its error must match the reference's exactly.
  base.benchmark = "no-such-benchmark";
  jobs.push_back(base);
  Rng rng(7);
  rng.shuffle(jobs);
  return jobs;
}

TEST(StageCacheStore, SharedStoreSurvivesConcurrentRunnersAndWarmsTheRerun) {
  // The concurrency property: three threaded runners in this process and
  // a single-threaded runner in a forked child all publish the SAME
  // overlapping keys into one store, concurrently. Atomic
  // write-then-rename plus overlap-must-agree means the dogpile must
  // produce one consistent store — every committed object strictly valid
  // at its content address — and every participant must still be
  // bit-identical to a store-less reference run. A warm rerun of the
  // same randomized grid then comes off disk wholesale.
  const std::vector<flow::Job> jobs = property_grid();
  // One SA table for every runner (the child gets a copy, warm): the store
  // is the shared state under test, and a cold table per runner would only
  // repeat the same deterministic work.
  SaCache sa(kWidth, MapParams{}, effective_sa_mode(std::nullopt));
  auto runner_on = [&sa](int threads, const std::string& store) {
    auto r = std::make_unique<flow::ExperimentRunner>(
        threads, flow::ExperimentRunner::GraphProvider{}, &sa);
    r->set_store_dir(store);
    return r;
  };
  // Inline (one thread), so no thread has started when the child forks.
  const auto want = runner_on(1, "")->run(jobs);

  const std::string dir = fresh_store_dir("dogpile_store");
  const pid_t child = ::fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    int status = 0;
    try {
      const auto got = runner_on(1, dir)->run(jobs);
      if (got.size() != want.size()) status = 2;
      for (std::size_t i = 0; status == 0 && i < got.size(); ++i)
        if (!flow::same_outcome(want[i], got[i])) status = 1;
    } catch (...) {
      status = 3;
    }
    ::_exit(status);
  }

  std::vector<flow::JobResult> r1, r2, r3;
  {
    auto a = runner_on(2, dir);
    auto b = runner_on(2, dir);
    auto c = runner_on(2, dir);
    std::thread ta([&] { r1 = a->run(jobs); });
    std::thread tb([&] { r2 = b->run(jobs); });
    r3 = c->run(jobs);
    ta.join();
    tb.join();
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status)) << "forked runner died (wait status "
                                 << status << ")";
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "forked runner failed (1 = a result diverged, 2 = wrong count, "
         "3 = threw)";
  const std::vector<flow::JobResult>* runs[] = {&r1, &r2, &r3};
  for (int k = 0; k < 3; ++k) {
    const std::vector<flow::JobResult>& got = *runs[k];
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_TRUE(flow::same_outcome(want[i], got[i]))
          << "runner " << k << " diverged on job " << i << ": '"
          << got[i].error << "'";
  }

  // One consistent store: merge_from is the strict auditor — it refuses
  // on any entry that is corrupt, misplaced or conflicting, so a clean
  // full-count merge certifies every object the dogpile committed.
  store::ArtifactStore audit(fresh_store_dir("dogpile_store_audit"));
  const std::size_t merged = audit.merge_from(dir);
  EXPECT_GT(merged, 0u);
  EXPECT_EQ(merged, audit.size());

  // Warm rerun from a fresh runner: bit-identical, the cached span served
  // from disk for every job that can hit (the bad-benchmark job still
  // fails with the same error, and nothing needed repair).
  auto warm = runner_on(2, dir);
  const auto got = warm->run(jobs);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(flow::same_outcome(want[i], got[i]))
        << "warm rerun diverged on job " << i << ": '" << got[i].error << "'";
    if (got[i].ok) {
      EXPECT_FALSE(got[i].outcome.cached_stages.empty()) << "job " << i;
      EXPECT_TRUE(cached(got[i].outcome, "elaborate")) << "job " << i;
    }
  }
  ASSERT_NE(warm->artifact_store(), nullptr);
  EXPECT_GT(warm->artifact_store()->hits(), 0u);
  EXPECT_EQ(warm->artifact_store()->rejected(), 0u);
  EXPECT_EQ(warm->artifact_store()->publishes(), 0u);
}

}  // namespace
}  // namespace hlp
