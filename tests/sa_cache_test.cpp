// Tests for the precalculated SA table (Section 5.2.2): cache/dynamic
// agreement, persistence round-trip, and monotonicity of the SA values in
// mux size (bigger input stages -> more estimated switching).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "flow/experiment.hpp"
#include "power/sa_cache.hpp"

namespace hlp {
namespace {

// Small width keeps partial-datapath mapping fast in unit tests.
SaCache small_cache() { return SaCache(4); }

TEST(SaCache, CachedEqualsUncached) {
  // "This method provided us with the same results as running the
  // algorithm with dynamic SA estimation" — exact agreement required.
  SaCache c = small_cache();
  const double cached = c.switching_activity(OpKind::kAdd, 2, 3);
  const double dynamic = c.compute_uncached(OpKind::kAdd, 2, 3);
  EXPECT_DOUBLE_EQ(cached, dynamic);
}

TEST(SaCache, MemoisesLookups) {
  SaCache c = small_cache();
  c.switching_activity(OpKind::kAdd, 2, 2);
  const auto misses_before = c.misses();
  c.switching_activity(OpKind::kAdd, 2, 2);
  EXPECT_EQ(c.misses(), misses_before);
  c.switching_activity(OpKind::kAdd, 2, 3);
  EXPECT_EQ(c.misses(), misses_before + 1);
}

TEST(SaCache, PositiveAndFinite) {
  SaCache c = small_cache();
  for (int a = 1; a <= 3; ++a)
    for (int b = 1; b <= 3; ++b) {
      const double sa = c.switching_activity(OpKind::kMult, a, b);
      EXPECT_GT(sa, 0.0);
      EXPECT_LT(sa, 1e6);
    }
}

TEST(SaCache, MultExceedsAdd) {
  SaCache c = small_cache();
  EXPECT_GT(c.switching_activity(OpKind::kMult, 2, 2),
            c.switching_activity(OpKind::kAdd, 2, 2));
}

TEST(SaCache, GrowsWithMuxSize) {
  // More mux arms -> more logic -> more estimated SA. This is what makes
  // Eq. 4's 1/SA term area-aware.
  SaCache c = small_cache();
  const double s11 = c.switching_activity(OpKind::kAdd, 1, 1);
  const double s22 = c.switching_activity(OpKind::kAdd, 2, 2);
  const double s44 = c.switching_activity(OpKind::kAdd, 4, 4);
  EXPECT_LT(s11, s22);
  EXPECT_LT(s22, s44);
}

TEST(SaCache, PrecomputeFillsAllCombinations) {
  SaCache c = small_cache();
  c.precompute(2, 2);
  EXPECT_EQ(c.size(), 2u * 2u * 2u);  // kinds * a-sizes * b-sizes
  const auto misses = c.misses();
  c.switching_activity(OpKind::kAdd, 2, 2);
  c.switching_activity(OpKind::kMult, 1, 2);
  EXPECT_EQ(c.misses(), misses);
}

TEST(SaCache, SaveLoadRoundTrip) {
  SaCache a = small_cache();
  a.precompute(2, 2);
  std::ostringstream text;
  a.save(text);

  SaCache b = small_cache();
  std::istringstream in(text.str());
  b.load(in);
  EXPECT_EQ(b.size(), a.size());
  // Loaded values answer without recomputation and agree exactly.
  EXPECT_DOUBLE_EQ(b.switching_activity(OpKind::kMult, 2, 1),
                   a.switching_activity(OpKind::kMult, 2, 1));
  EXPECT_EQ(b.misses(), 0u);
}

TEST(SaCache, FilePersistence) {
  const std::string path = ::testing::TempDir() + "/sa_cache_test.txt";
  {
    SaCache a = small_cache();
    a.switching_activity(OpKind::kAdd, 3, 1);
    a.save_file(path);
  }
  SaCache b = small_cache();
  b.load_file(path);
  EXPECT_EQ(b.size(), 1u);
  std::remove(path.c_str());
}

TEST(SaCache, LoadRejectsMalformed) {
  SaCache c = small_cache();
  std::istringstream bad("add 1\n");
  EXPECT_THROW(c.load(bad), Error);
  std::istringstream badkind("div 1 1 3.0\n");
  EXPECT_THROW(c.load(badkind), Error);
}

// One malformed entry each: a non-numeric size, a size past long long, junk
// after the SA value, a zero size and a negative size (which used to be
// shifted into the key's kind bits and written back as "? 1048575 2 1").
const char* const kBadEntries[] = {"add x 2 1.0", "add 99999999999 2 1",
                                   "add 1 2 1.0junk", "add 0 1 2.5",
                                   "add -1 2 2.5"};

template <typename Fn>
void expect_line_error(Fn&& fn, const std::string& source, int line,
                       const std::string& entry) {
  try {
    fn();
    ADD_FAILURE() << "expected '" << entry << "' to be rejected";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(source + ": line " + std::to_string(line) + ":"),
              std::string::npos)
        << entry << " -> " << what;
  }
}

TEST(SaCache, LoadAndMergeRejectBadEntriesNamingFileAndLine) {
  const std::string path = ::testing::TempDir() + "/sa_bad_entry.txt";
  for (const char* bad : kBadEntries) {
    {
      std::ofstream f(path);
      f << "# SaCache width=4 k=4 mode=" << sa_mode_name(SaMode::kEstimated)
        << "\nadd 1 1 3.0\n"
        << bad << "\n# end 2\n";
    }
    SaCache loaded = small_cache();
    expect_line_error([&] { loaded.load_file(path); }, path, 3, bad);
    EXPECT_EQ(loaded.size(), 0u) << bad;  // a rejected table loads nothing
    SaCache merged = small_cache();
    expect_line_error([&] { merged.merge_from(path); }, path, 3, bad);
    EXPECT_EQ(merged.size(), 0u) << bad;
  }
  std::remove(path.c_str());
}

TEST(SaCache, RunnerRejectsBadWarmStartWithoutRewritingIt) {
  // One bad line must not poison the table file: the job fails naming the
  // file and line, and the runner does not persist over it.
  const std::string prefix = ::testing::TempDir() + "/sa_bad_warm";
  const SaMode mode = effective_sa_mode(std::nullopt);
  const std::string file = prefix + flow::sa_cache_file_suffix(4, mode);
  const std::string text = "add -1 2 1.0\n";
  {
    std::ofstream f(file);
    f << text;
  }
  // Two jobs: the second must not find a half-installed cache, fill it
  // cold and have the runner persist it over the bad file.
  flow::Job job;
  job.width = 4;
  job.num_vectors = 5;
  std::vector<flow::Job> jobs;
  for (const char* bench : {"pr", "wang"}) {
    job.benchmark = bench;
    jobs.push_back(job);
  }
  {
    flow::ExperimentRunner runner(1);
    runner.set_store_dir("");
    runner.set_sa_cache_path(prefix);
    for (const flow::JobResult& r : runner.run(jobs)) {
      EXPECT_FALSE(r.ok) << r.job.benchmark;
      EXPECT_NE(r.error.find(file + ": line 1:"), std::string::npos)
          << r.error;
    }
  }
  std::ifstream in(file);
  std::stringstream on_disk;
  on_disk << in.rdbuf();
  EXPECT_EQ(on_disk.str(), text);
  std::remove(file.c_str());
}

TEST(SaCache, RejectsBadArguments) {
  SaCache c = small_cache();
  EXPECT_THROW(c.switching_activity(OpKind::kAdd, 0, 1), Error);
  EXPECT_THROW(SaCache(0), Error);
  EXPECT_THROW(SaCache(4, MapParams{}, SaMode::kEstimated, 0), Error);
}

TEST(SaCache, ShardedMissesStayExactUnderConcurrency) {
  // Distinct cold keys from many threads: every insertion lands in some
  // shard exactly once, and the summed miss counter equals the number of
  // unique keys even though no single lock serialises the table.
  SaCache c = small_cache();
  constexpr int kThreads = 8;
  constexpr int kMaxMux = 4;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&c] {
      for (int kind = 0; kind < kNumOpKinds; ++kind)
        for (int a = 1; a <= kMaxMux; ++a)
          for (int b = 1; b <= kMaxMux; ++b)
            c.switching_activity(static_cast<OpKind>(kind), a, b);
    });
  }
  for (auto& th : pool) th.join();
  const auto unique_keys =
      static_cast<std::size_t>(kNumOpKinds * kMaxMux * kMaxMux);
  EXPECT_EQ(c.size(), unique_keys);
  // Exactly one miss per unique key: racing duplicate computations exist,
  // but only the winning insertion of each key is counted.
  EXPECT_EQ(c.misses(), unique_keys);
}

TEST(SaCache, SimulatedModeIsDeterministicAndCached) {
  // Monte-Carlo backend through the bit-parallel batch engine.
  SaCache c(4, MapParams{}, SaMode::kSimulated, /*sim_vectors=*/64);
  EXPECT_EQ(c.mode(), SaMode::kSimulated);
  const double cached = c.switching_activity(OpKind::kAdd, 2, 2);
  EXPECT_GT(cached, 0.0);
  EXPECT_DOUBLE_EQ(cached, c.compute_uncached(OpKind::kAdd, 2, 2));
  EXPECT_DOUBLE_EQ(cached, c.switching_activity(OpKind::kAdd, 2, 2));
}

TEST(SaCache, SimulatedAndEstimatedAreDistinctBackends) {
  SaCache est = small_cache();
  SaCache sim(4, MapParams{}, SaMode::kSimulated, /*sim_vectors=*/64);
  const double e = est.switching_activity(OpKind::kAdd, 2, 2);
  const double s = sim.switching_activity(OpKind::kAdd, 2, 2);
  // Both are positive SA numbers for the same partial datapath; the
  // Monte-Carlo value is an empirical counterpart, not the same formula.
  EXPECT_GT(e, 0.0);
  EXPECT_GT(s, 0.0);
}

TEST(SaCacheExact, ExactModeIsDeterministicAndCached) {
  // BDD-analytic backend (hybridised with sampling past HLP_EXACT_BUDGET).
  SaCache c(4, MapParams{}, SaMode::kExact, /*sim_vectors=*/64);
  EXPECT_EQ(c.mode(), SaMode::kExact);
  const double cached = c.switching_activity(OpKind::kAdd, 1, 1);
  EXPECT_GT(cached, 0.0);
  EXPECT_DOUBLE_EQ(cached, c.compute_uncached(OpKind::kAdd, 1, 1));
  EXPECT_DOUBLE_EQ(cached, c.switching_activity(OpKind::kAdd, 1, 1));
}

TEST(SaCacheExact, ThreeBackendsDisagreeOnValues) {
  // The mode axis changes entry VALUES (unlike the simd knob) —
  // that is the whole reason it keys caches, files and manifests. The
  // analytic estimate, the sampler and the exact engine price the same
  // partial datapath differently.
  SaCache est(4);
  SaCache sim(4, MapParams{}, SaMode::kSimulated, /*sim_vectors=*/64);
  SaCache exact(4, MapParams{}, SaMode::kExact, /*sim_vectors=*/64);
  const double e = est.switching_activity(OpKind::kAdd, 1, 1);
  const double s = sim.switching_activity(OpKind::kAdd, 1, 1);
  const double x = exact.switching_activity(OpKind::kAdd, 1, 1);
  EXPECT_GT(e, 0.0);
  EXPECT_GT(s, 0.0);
  EXPECT_GT(x, 0.0);
  EXPECT_NE(e, x);
}

TEST(SaCacheExact, FileRoundTripPreservesModeTag) {
  const std::string path = ::testing::TempDir() + "/sa_exact_table.txt";
  double computed = 0.0;
  {
    SaCache a(4, MapParams{}, SaMode::kExact, /*sim_vectors=*/64);
    computed = a.switching_activity(OpKind::kAdd, 1, 2);
    a.save_file(path);
  }
  // Same-mode cache: merges cleanly, answers without recomputation.
  SaCache b(4, MapParams{}, SaMode::kExact, /*sim_vectors=*/64);
  EXPECT_EQ(b.merge_from(path), 1u);
  EXPECT_DOUBLE_EQ(b.switching_activity(OpKind::kAdd, 1, 2), computed);
  EXPECT_EQ(b.misses(), 0u);
  std::remove(path.c_str());
}

// ---- shard merging (the distributed runner's SA reconciliation) ----------

// A saved table whose entries were computed here, for building shard files.
std::string shard_text(SaCache& c) {
  std::ostringstream os;
  c.save(os);
  return os.str();
}

TEST(SaCacheMerge, DisjointShardsUnionCleanly) {
  SaCache a = small_cache();
  a.switching_activity(OpKind::kAdd, 1, 1);
  a.switching_activity(OpKind::kAdd, 1, 2);
  SaCache b = small_cache();
  b.switching_activity(OpKind::kMult, 2, 2);

  std::istringstream shard(shard_text(b));
  const std::size_t misses_before = a.misses();
  EXPECT_EQ(a.merge_from(shard, "test shard"), 1u);
  EXPECT_EQ(a.size(), 3u);
  // Merged entries answer without recomputation and do not count as
  // misses.
  EXPECT_DOUBLE_EQ(a.switching_activity(OpKind::kMult, 2, 2),
                   b.switching_activity(OpKind::kMult, 2, 2));
  EXPECT_EQ(a.misses(), misses_before);
}

TEST(SaCacheMerge, OverlappingEntriesMustAgreeExactly) {
  SaCache a = small_cache();
  a.switching_activity(OpKind::kAdd, 2, 2);
  // Identical overlap merges cleanly (0 new entries)...
  std::istringstream same(shard_text(a));
  EXPECT_EQ(a.merge_from(same, "test shard"), 0u);

  // ...but a value that disagrees — a shard computed under a different
  // configuration — is a conflict, not a silent overwrite.
  SaCache tampered = small_cache();
  tampered.switching_activity(OpKind::kAdd, 2, 2);
  std::string text = shard_text(tampered);
  const auto dot = text.find('.');
  ASSERT_NE(dot, std::string::npos);
  text[dot + 1] = text[dot + 1] == '9' ? '8' : '9';  // perturb the value
  std::istringstream conflict(text);
  try {
    a.merge_from(conflict, "test shard");
    FAIL() << "expected a merge conflict";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("merge conflict"),
              std::string::npos)
        << e.what();
  }
  // The table kept its own value.
  EXPECT_DOUBLE_EQ(a.switching_activity(OpKind::kAdd, 2, 2),
                   a.compute_uncached(OpKind::kAdd, 2, 2));
}

TEST(SaCacheMerge, TruncatedShardRejectedWithoutPartialMerge) {
  SaCache src = small_cache();
  src.precompute(2, 2);
  const std::string full = shard_text(src);

  SaCache dst = small_cache();
  // Cut before the "# end" footer: rejected, and nothing was merged.
  std::istringstream cut(full.substr(0, full.rfind("# end")));
  try {
    dst.merge_from(cut, "test shard");
    FAIL() << "expected truncation to be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("missing '# end' footer"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(dst.size(), 0u);

  // Cut mid-table (footer intact but entries missing): the footer count
  // mismatch is the defect named.
  std::string half = full.substr(0, full.size() / 2);
  half += "\n# end 8\n";
  std::istringstream bad_count(half);
  EXPECT_THROW(dst.merge_from(bad_count, "test shard"), Error);
  EXPECT_EQ(dst.size(), 0u);
}

TEST(SaCacheMerge, CorruptShardRejected) {
  SaCache dst = small_cache();
  std::istringstream garbage("not an sa table at all\n");
  EXPECT_THROW(dst.merge_from(garbage, "test shard"), Error);
  std::istringstream bad_kind(
      "# SaCache width=4 k=4\ndiv 1 1 3.0\n# end 1\n");
  EXPECT_THROW(dst.merge_from(bad_kind, "test shard"), Error);
  std::istringstream missing_fields(
      "# SaCache width=4 k=4\nadd 1\n# end 1\n");
  EXPECT_THROW(dst.merge_from(missing_fields, "test shard"), Error);
  EXPECT_EQ(dst.size(), 0u);
}

TEST(SaCacheMerge, WidthMismatchRejected) {
  SaCache w8(8);
  w8.switching_activity(OpKind::kAdd, 1, 1);
  SaCache w4 = small_cache();
  std::istringstream shard(shard_text(w8));
  try {
    w4.merge_from(shard, "test shard");
    FAIL() << "expected width mismatch rejection";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("width"), std::string::npos);
  }
}

TEST(SaCacheMerge, WarmStartHitsAfterMergeFile) {
  const std::string path = ::testing::TempDir() + "/sa_merge_shard.txt";
  {
    SaCache src = small_cache();
    src.precompute(2, 2);
    src.save_file(path);
  }
  SaCache warm = small_cache();
  EXPECT_EQ(warm.merge_from(path), 2u * 2u * 2u);
  // Every precomputed combination now hits: no misses on lookup.
  for (int kind = 0; kind < kNumOpKinds; ++kind)
    for (int a = 1; a <= 2; ++a)
      for (int b = 1; b <= 2; ++b)
        warm.switching_activity(static_cast<OpKind>(kind), a, b);
  EXPECT_EQ(warm.misses(), 0u);
  std::remove(path.c_str());
}

TEST(SaCacheMerge, ModeMismatchRejectedWithoutPartialMerge) {
  // A shard computed under another SA backend carries different VALUES for
  // the same keys; merging it would poison the table. The header check
  // fires before any entry is staged.
  SaCache exact(4, MapParams{}, SaMode::kExact, /*sim_vectors=*/64);
  exact.switching_activity(OpKind::kAdd, 1, 1);
  exact.switching_activity(OpKind::kMult, 1, 1);
  const std::string text = shard_text(exact);

  for (const SaMode mode : {SaMode::kEstimated, SaMode::kSimulated}) {
    SaCache dst(4, MapParams{}, mode, /*sim_vectors=*/64);
    std::istringstream shard(text);
    try {
      dst.merge_from(shard, "test shard");
      FAIL() << "expected a mode mismatch rejection into "
             << sa_mode_name(mode);
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("mode 'exact'"), std::string::npos) << what;
      EXPECT_NE(what.find(sa_mode_name(mode)), std::string::npos) << what;
    }
    EXPECT_EQ(dst.size(), 0u);  // nothing partially merged
  }
}

TEST(SaCacheMerge, LegacyUntaggedTablesAreEstimateMode) {
  // Tables written before the mode tag existed have a bare header; they
  // can only be estimate-mode, so only an estimate cache accepts them.
  const std::string legacy = "# SaCache width=4 k=4\nadd 1 1 3.0\n# end 1\n";
  SaCache est(4);
  std::istringstream ok(legacy);
  EXPECT_EQ(est.merge_from(ok, "test shard"), 1u);

  SaCache exact(4, MapParams{}, SaMode::kExact, /*sim_vectors=*/64);
  std::istringstream bad(legacy);
  try {
    exact.merge_from(bad, "test shard");
    FAIL() << "expected the legacy table to be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no mode tag"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(exact.size(), 0u);
}

TEST(SaCacheMerge, SaveLoadStillToleratesFooter) {
  // load() (the warm-start reader) must keep reading footer-bearing
  // tables as plain comments.
  SaCache a = small_cache();
  a.switching_activity(OpKind::kAdd, 2, 2);
  std::istringstream in(shard_text(a));
  SaCache b = small_cache();
  b.load(in);
  EXPECT_EQ(b.size(), 1u);
}

// ---- warm-start files of the mode axis (HLP_SA_CACHE mechanism) ----------

TEST(SaCacheExact, RunnerSuffixKeepsLegacyEstimateName) {
  // Estimate tables keep the pre-mode-axis file name so existing caches
  // stay warm; the other modes get their own files under one prefix.
  EXPECT_EQ(flow::sa_cache_file_suffix(8, SaMode::kEstimated), ".w8");
  EXPECT_EQ(flow::sa_cache_file_suffix(4, SaMode::kSimulated), ".w4.sim");
  EXPECT_EQ(flow::sa_cache_file_suffix(4, SaMode::kExact), ".w4.exact");
}

TEST(SaCacheExact, RunnerPersistsAndPreloadsExactTables) {
  // The ExperimentRunner's HLP_SA_CACHE persist/preload cycle, mode-aware:
  // an exact-mode run writes "<prefix>.w4.exact", and a fresh runner with
  // the same prefix starts warm — the table answers with zero misses.
  const std::string prefix = ::testing::TempDir() + "/sa_exact_warm";
  const std::string file =
      prefix + flow::sa_cache_file_suffix(4, SaMode::kExact);
  std::remove(file.c_str());

  flow::Job job;
  job.benchmark = "pr";
  job.width = 4;
  job.num_vectors = 8;
  job.sa = SaMode::kExact;
  {
    // Pin the cold SA compute: opt out of any ambient HLP_STORE (the CI
    // artifact-store leg), whose warm artifacts would skip the SA work.
    flow::ExperimentRunner runner(1);
    runner.set_store_dir("");
    runner.set_sa_cache_path(prefix);
    const auto results = runner.run({job});
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_GT(runner.sa_cache(4, SaMode::kExact).size(), 0u);
  }
  {
    std::ifstream probe(file);
    ASSERT_TRUE(probe.good()) << "expected warm-start file '" << file << "'";
  }
  flow::ExperimentRunner warm(1);
  warm.set_store_dir("");
  warm.set_sa_cache_path(prefix);
  SaCache& cache = warm.sa_cache(4, SaMode::kExact);
  EXPECT_GT(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  // Re-running the same job hits the preloaded entries: still no misses.
  const auto rerun = warm.run({job});
  ASSERT_TRUE(rerun[0].ok) << rerun[0].error;
  EXPECT_EQ(cache.misses(), 0u);
  std::remove(file.c_str());
}

}  // namespace
}  // namespace hlp
