// Precalculated switching-activity table (Section 5.2.2).
//
// "As dynamic calculation of the switching activities for each edge during
// the binding iterations can be time consuming, in our experiments we
// precalculate the switching activities for all combinations of
// multiplexers and functional units... stored in a text file. A hash table
// is then generated when HLPower is initially run."
//
// SaCache computes, for a key (op kind, muxA size, muxB size), the SA of
// the 4-LUT-mapped partial datapath, memoises it, and can persist/reload
// the table as text. Three SA backends are supported (power/sa_mode.hpp):
// the paper's analytic glitch-aware estimator (kEstimated, the default),
// Monte-Carlo unit-delay simulation through the bit-parallel batch engine
// (kSimulated), and analytic per-cone BDD densities with a budgeted
// Monte-Carlo fallback (kExact, power/exact_activity.hpp). Because the
// backends produce different values, persisted tables are tagged with
// their mode and load() refuses a table of another mode.
//
// The memo table is sharded by key hash (kNumShards independent mutex+map
// shards) so large ExperimentRunner fleets hammering the hot lookup path do
// not contend on a single lock. Miss counts stay exact via per-shard
// counters summed on read.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cdfg/cdfg.hpp"
#include "mapper/techmap.hpp"
#include "power/sa_mode.hpp"

namespace hlp {

class SaCache {
 public:
  /// Number of independent mutex+map shards of the memo table.
  static constexpr int kNumShards = 16;

  /// `width`: datapath bit width; `map_params`: mapper configuration used
  /// for every partial datapath; `mode` selects the SA backend
  /// (kSimulated uses `sim_vectors` random frames from `sim_seed` through
  /// the batched unit-delay engine; kExact resolves its per-cone node
  /// budget from HLP_EXACT_BUDGET here, once, and reuses the same
  /// vectors/seed for its Monte-Carlo fallback on blown cones). The mode
  /// is fixed for the cache's life — callers resolving it from the
  /// environment should go through effective_sa_mode.
  explicit SaCache(int width = 8, MapParams map_params = {},
                   SaMode mode = SaMode::kEstimated, int sim_vectors = 256,
                   std::uint64_t sim_seed = 1);

  /// Glitch-aware SA for (kind, nA-input muxA, nB-input muxB); computed on
  /// demand and memoised. nA/nB >= 1 (1 = direct connection).
  ///
  /// Safe to call concurrently: each key maps to one of kNumShards
  /// mutex-guarded table shards, and the (deterministic) SA computation
  /// itself runs outside the lock so concurrent misses do not serialise.
  /// Two threads racing on the same cold key both compute the same value;
  /// exactly one insertion wins and is counted as the miss.
  double switching_activity(OpKind kind, int n_mux_a, int n_mux_b);

  /// Always-compute variant (ignores and does not touch the memo) — used to
  /// verify that precalculated and dynamic estimation agree (§5.2.2).
  double compute_uncached(OpKind kind, int n_mux_a, int n_mux_b) const;

  /// Precompute all combinations up to the given mux sizes (the paper's
  /// "all combinations" table).
  void precompute(int max_mux_a, int max_mux_b);

  /// Text persistence: "<kind> <nA> <nB> <sa>" per line, between a
  /// "# SaCache width=<w> k=<k> mode=<m>" header and a "# end <count>"
  /// footer. load() is strict: every token is parsed in full, mux sizes
  /// must lie in [1, 0xfffff] and SA values must be finite; a header, when
  /// present, must match this cache's width and mode (an untagged header
  /// is a legacy estimate-mode table); a footer, when present, must match
  /// the number of entries before it, and no entry may follow it. A
  /// headerless legacy table still loads. An error is prefixed
  /// "<what>: line N:" (load_file passes the file path), and a rejected
  /// table loads nothing. Loaded entries do not count as misses.
  void save(std::ostream& os) const;
  void load(std::istream& is, const std::string& what = "SA table");
  void save_file(const std::string& path) const;
  void load_file(const std::string& path);

  std::size_t size() const;
  int width() const { return width_; }
  SaMode mode() const { return mode_; }

  /// Number of cache misses (table insertions from on-demand computation) —
  /// used by the ablation bench to show the precalc speedup. Exact: summed
  /// over the per-shard counters.
  std::uint64_t misses() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, double> table;
    std::uint64_t misses = 0;
  };

  static std::uint64_t key(OpKind kind, int a, int b);
  Shard& shard_for(std::uint64_t key) const;

  int width_;
  MapParams map_params_;
  SaMode mode_;
  int sim_vectors_;
  std::uint64_t sim_seed_;
  int exact_budget_;  // kExact only: resolved from HLP_EXACT_BUDGET at ctor
  mutable std::array<Shard, kNumShards> shards_;
};

}  // namespace hlp
