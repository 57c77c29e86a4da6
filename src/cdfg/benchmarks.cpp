#include "cdfg/benchmarks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace hlp {
namespace {

// Layered DFG construction with exact op/PI/PO counts and a hard depth
// bound.
//
// Operations are assigned to levels 1..D (D = target depth). Level sizes
// taper toward the end (late levels are thin) so the final levels do not
// strand more sink values than there are primary outputs. A protected
// "spine" — the first op of each level consumes the previous level's first
// op — realises depth exactly D. All other operands are drawn from values
// of depth <= level-1, which hard-bounds every op's depth at its level.
//
// Sink control: the generator tracks the set of values not yet consumed;
// each op consumes 0, 1 or 2 of them so that exactly `num_outputs` sinks
// remain at the end (these become the POs). Depth-eligibility can starve
// the controller in rare seed/profile corners; make_benchmark retries with
// derived seeds, keeping generation deterministic.
class Generator {
 public:
  Generator(const BenchmarkProfile& p, std::uint64_t seed)
      : profile_(p), rng_(seed ^ 0x9e37u), g_(p.name) {}

  // Returns false if the sink controller could not land exactly on the
  // requested output count under the depth constraints.
  bool run(Cdfg* out) {
    HLP_REQUIRE(profile_.num_inputs >= 2, "need at least two inputs");
    HLP_REQUIRE(profile_.num_outputs >= 1, "need at least one output");
    const int total_ops = profile_.num_adds + profile_.num_mults;
    HLP_REQUIRE(total_ops >= 1, "need at least one op");
    HLP_REQUIRE(profile_.num_outputs <= profile_.num_inputs + total_ops,
                "more outputs than producible values");

    for (int i = 0; i < profile_.num_inputs; ++i) {
      const int idx = g_.add_input("in" + std::to_string(i));
      unconsumed_.push_back(ValueRef::input(idx));
      all_values_.push_back(ValueRef::input(idx));
      depth_.push_back(0);
    }

    // Level sizes: one op per level as the spine; the rest distributed
    // front-to-back subject to the tail-capacity rule
    //   size[l] <= num_outputs + 2 * sum(size[l+1..D])
    // (a level's outputs are only consumable by later levels or POs).
    auto distribute = [&](int d, std::vector<int>* out_sizes) {
      std::vector<int> sz(d + 1, 0);
      for (int l = 1; l <= d; ++l) sz[l] = 1;
      int extra = total_ops - d;
      std::vector<long long> suffix(d + 2, 0);
      for (int l = d; l >= 1; --l) suffix[l] = suffix[l + 1] + sz[l];
      while (extra > 0) {
        bool progress = false;
        for (int l = 1; l <= d && extra > 0; ++l) {
          const long long cap = profile_.num_outputs + 2 * suffix[l + 1];
          if (sz[l] + 1 <= cap) {
            ++sz[l];
            --extra;
            progress = true;
            for (int j = l; j >= 1; --j) ++suffix[j];
          }
        }
        if (!progress) return false;
      }
      *out_sizes = std::move(sz);
      return true;
    };

    // Feasibility of the sink controller on a size vector: level l can only
    // consume values produced below it (PIs + earlier levels), two operand
    // slots per op; cumulatively the achievable consumption must reach
    // PIs + ops - POs (every non-output value is consumed exactly once at
    // least -- dead code is forbidden).
    auto consumption_feasible = [&](const std::vector<int>& sz, int d) {
      const long long need =
          profile_.num_inputs + total_ops - profile_.num_outputs;
      long long reach = 0, below = profile_.num_inputs;
      for (int l = 1; l <= d; ++l) {
        reach = std::min(reach + 2LL * sz[l], below);
        below += sz[l];
      }
      // A little slack absorbs controller randomness (spine neutrality,
      // eligibility misses); exact-capacity plans are fragile.
      return reach >= need + (reach > need ? 0 : 0) && reach >= need;
    };

    // Requested depth, raised until both the distribution and the sink
    // controller are feasible.
    int depth_target =
        profile_.target_depth > 0 ? std::min(profile_.target_depth, total_ops)
                                  : total_ops;
    std::vector<int> level_size;
    for (;; ++depth_target) {
      if (distribute(depth_target, &level_size) &&
          consumption_feasible(level_size, depth_target))
        break;
      HLP_CHECK(depth_target < total_ops + 1,
                "no feasible depth for profile '" << profile_.name << "'");
    }


    // Interleaved op-kind sequence, deterministic shuffle.
    std::vector<OpKind> kinds;
    kinds.reserve(total_ops);
    kinds.insert(kinds.end(), profile_.num_adds, OpKind::kAdd);
    kinds.insert(kinds.end(), profile_.num_mults, OpKind::kMult);
    rng_.shuffle(kinds);

    int placed = 0;
    for (int level = 1; level <= depth_target; ++level) {
      for (int j = 0; j < level_size[level]; ++j) {
        const int remaining = total_ops - placed;
        place_op(kinds[placed], remaining, placed, level, depth_target,
                 /*first=*/j == 0);
        ++placed;
      }
    }

    if (static_cast<int>(unconsumed_.size()) != profile_.num_outputs)
      return false;
    for (int i = 0; i < profile_.num_outputs; ++i)
      g_.add_output("out" + std::to_string(i), unconsumed_[i]);
    g_.validate();
    *out = std::move(g_);
    return true;
  }

 private:
  int value_depth(ValueRef v) const {
    return depth_[v.is_input() ? v.index : profile_.num_inputs + v.index];
  }

  void place_op(OpKind kind, int remaining, int counter, int level,
                int depth_target, bool first_of_level) {
    const int target = profile_.num_outputs;
    const int diff = static_cast<int>(unconsumed_.size()) - target;
    // Spine ops (first of a level) always consume at least one value, so
    // only the remaining non-spine ops can *raise* the sink count. The
    // guards keep the final count reachable: it can drop by one per
    // remaining op and rise by one per remaining non-spine op.
    const int spines_left = depth_target - level;  // after this op
    const int future_nonspine = std::max(0, remaining - 1 - spines_left);
    const int min_consume = first_of_level ? 1 : 0;
    auto feasible = [&](int c) {
      const int new_diff = diff + 1 - c;
      return new_diff <= remaining - 1 && -new_diff <= future_nonspine;
    };
    const double r = rng_.uniform();
    int consume = r < 0.45 ? 2 : (r < 0.9 ? 1 : 0);
    consume = std::max(consume, min_consume);
    if (!feasible(consume)) {
      // Walk to the nearest feasible consumption level.
      int best = -1;
      for (int c = min_consume; c <= 2; ++c)
        if (feasible(c) &&
            (best < 0 || std::abs(c - consume) < std::abs(best - consume)))
          best = c;
      if (best < 0) {
        // No feasible choice (controller cornered): consume as much as
        // possible; the run-level check reports failure and a retry seed
        // resolves it.
        best = 2;
      }
      consume = best;
    }

    // Consumption eligibility: operands strictly below this level, which
    // hard-bounds every op's depth at its level (and thus at the target).
    const int max_operand_depth = std::min(level - 1, depth_target - 1);
    auto eligible = [&](ValueRef v) {
      return value_depth(v) <= max_operand_depth;
    };

    int consumed = 0;
    ValueRef a, b;
    if (first_of_level) {
      a = take_deepest_eligible(eligible);
      ++consumed;
    } else if (consumed < consume && take_random_eligible(eligible, &a)) {
      ++consumed;
    } else {
      a = pick_any(level);
    }
    if (consumed < consume && take_random_eligible(eligible, &b)) {
      ++consumed;
    } else {
      b = pick_any(level);
    }

    const char* prefix = kind == OpKind::kAdd ? "a" : "m";
    const int idx = g_.add_op(prefix + std::to_string(counter), kind, a, b);
    unconsumed_.push_back(ValueRef::op(idx));
    all_values_.push_back(ValueRef::op(idx));
    depth_.push_back(1 + std::max(value_depth(a), value_depth(b)));
  }

  // Pops the deepest eligible sink — the spine predecessor. Falls back to
  // the deepest eligible value overall (not popped) if no sink qualifies.
  template <typename Pred>
  ValueRef take_deepest_eligible(const Pred& eligible) {
    int best = -1;
    for (std::size_t i = 0; i < unconsumed_.size(); ++i) {
      if (!eligible(unconsumed_[i])) continue;
      if (best < 0 ||
          value_depth(unconsumed_[i]) > value_depth(unconsumed_[best]))
        best = static_cast<int>(i);
    }
    if (best >= 0) {
      const ValueRef v = unconsumed_[best];
      unconsumed_.erase(unconsumed_.begin() + best);
      return v;
    }
    ValueRef deepest = all_values_.front();
    for (const ValueRef& v : all_values_)
      if (eligible(v) && value_depth(v) > value_depth(deepest)) deepest = v;
    return deepest;
  }

  // Pops a random eligible sink; false when none exists.
  template <typename Pred>
  bool take_random_eligible(const Pred& eligible, ValueRef* out) {
    std::vector<std::size_t> pool;
    for (std::size_t i = 0; i < unconsumed_.size(); ++i)
      if (eligible(unconsumed_[i])) pool.push_back(i);
    if (pool.empty()) return false;
    const std::size_t i =
        pool[rng_.below(static_cast<std::uint32_t>(pool.size()))];
    *out = unconsumed_[i];
    unconsumed_.erase(unconsumed_.begin() + i);
    return true;
  }

  // Any existing value below this level; tournament selection with
  // strength depth_bias prefers deeper values (MAC-chain locality).
  ValueRef pick_any(int level) {
    auto pick_one = [&]() -> ValueRef {
      for (int tries = 0; tries < 64; ++tries) {
        const ValueRef v = all_values_[rng_.below(
            static_cast<std::uint32_t>(all_values_.size()))];
        if (value_depth(v) <= level - 1) return v;
      }
      return all_values_[rng_.below(
          static_cast<std::uint32_t>(profile_.num_inputs))];
    };
    const ValueRef first = pick_one();
    if (!rng_.chance(profile_.depth_bias)) return first;
    const ValueRef second = pick_one();
    return value_depth(second) > value_depth(first) ? second : first;
  }

  BenchmarkProfile profile_;
  Rng rng_;
  Cdfg g_;
  std::vector<ValueRef> unconsumed_;
  std::vector<ValueRef> all_values_;
  std::vector<int> depth_;  // by value id (inputs, then ops)
};

}  // namespace

const std::vector<BenchmarkProfile>& paper_benchmarks() {
  // Table 1 of the paper: PIs, POs, adds, mults, total edges. target_depth
  // tracks the Table 2 schedule lengths so the resource-constrained list
  // schedule reproduces the paper's control-step structure.
  static const std::vector<BenchmarkProfile> kProfiles = {
      {"chem", 20, 10, 171, 176, 731, 37, 0.6},
      {"dir", 8, 8, 84, 64, 314, 39, 0.6},
      {"honda", 9, 2, 45, 52, 214, 16, 0.6},
      {"mcm", 8, 8, 64, 30, 252, 25, 0.6},
      {"pr", 8, 8, 26, 16, 134, 14, 0.6},
      {"steam", 5, 5, 105, 115, 472, 26, 0.6},
      {"wang", 8, 8, 26, 22, 134, 16, 0.6},
  };
  return kProfiles;
}

const BenchmarkProfile& benchmark_profile(const std::string& name) {
  for (const auto& p : paper_benchmarks())
    if (p.name == name) return p;
  HLP_REQUIRE(false, "unknown benchmark '" << name << "'");
}

Cdfg make_benchmark(const BenchmarkProfile& profile, std::uint64_t seed) {
  // Deterministic retry: rare seed/profile corners strand a sink the depth
  // rules cannot consume; a derived seed resolves it.
  for (int attempt = 0; attempt < 64; ++attempt) {
    Cdfg g;
    if (Generator(profile, seed + 0x100000ull * attempt).run(&g)) return g;
  }
  HLP_REQUIRE(false, "benchmark generation failed for '" << profile.name
                                                         << "'");
}

Cdfg make_paper_benchmark(const std::string& name, std::uint64_t seed) {
  return make_benchmark(benchmark_profile(name), seed);
}

Cdfg make_random_dfg(int num_inputs, int num_outputs, int num_ops,
                     std::uint64_t seed) {
  Rng rng(seed);
  BenchmarkProfile p;
  p.name = "random";
  p.num_inputs = num_inputs;
  p.num_outputs = num_outputs;
  p.num_adds = static_cast<int>(rng.below(static_cast<std::uint32_t>(num_ops) + 1));
  p.num_mults = num_ops - p.num_adds;
  // Ensure both kinds appear when there is room, matching the paper's
  // two-resource library.
  if (num_ops >= 2) {
    p.num_adds = std::clamp(p.num_adds, 1, num_ops - 1);
    p.num_mults = num_ops - p.num_adds;
  }
  p.depth_bias = rng.uniform();
  p.target_depth =
      2 + static_cast<int>(rng.below(static_cast<std::uint32_t>(num_ops) / 2 + 1));
  return make_benchmark(p, seed * 7919 + 13);
}

}  // namespace hlp
