#include "mapper/cuts.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "common/error.hpp"

namespace hlp {
namespace {

std::uint64_t net_bit(NetId net) {
  return 1ull << (static_cast<unsigned>(net) % 64u);
}

// Merge two sorted leaf sets into `out`; false when the union would exceed
// k leaves.
bool merge_leaves(const CutLeaves& a, const CutLeaves& b, int k,
                  CutLeaves& out) {
  out.clear();
  const NetId* i = a.begin();
  const NetId* j = b.begin();
  while (i != a.end() || j != b.end()) {
    NetId next = kNoNet;
    if (j == b.end() || (i != a.end() && *i < *j)) {
      next = *i++;
    } else if (i == a.end() || *j < *i) {
      next = *j++;
    } else {
      next = *i++;
      ++j;
    }
    if (static_cast<int>(out.size()) == k) return false;
    out.push_back(next);
  }
  return true;
}

Cut trivial_cut(NetId net) {
  Cut c;
  c.leaves.push_back(net);
  c.signature = net_bit(net);
  c.depth = 0;
  c.tt = TruthTable::buf();
  return c;
}

// A cross-product candidate: leaves, signature and depth of a cut, plus
// which cut of each gate input it was merged from (index into that
// input's cut list). Only survivors of pruning become Cuts.
struct Candidate {
  CutLeaves leaves;
  std::uint64_t signature = 0;
  int depth = 0;
  std::array<int, kMaxTtInputs> from{};
};

// True when a's leaves are a subset of b's (a dominates b: any LUT that can
// be fed by b's leaves can be fed by a's).
bool subset_of(const Cut& a, const Candidate& b) {
  if ((a.signature & ~b.signature) != 0) return false;
  return std::includes(b.leaves.begin(), b.leaves.end(), a.leaves.begin(),
                       a.leaves.end());
}

// Fills c.tt (and c.cone) for a cut of gate g merged from cut from[i] of
// each input i: the gate's table composed with the fanin cuts' tables.
void compose_function(const Netlist& n, const Gate& g,
                      const std::vector<std::vector<Cut>>& cuts,
                      const std::array<int, kMaxTtInputs>& from, Cut& c) {
  const std::size_t k = c.leaves.size();
  c.cone = net_bit(g.out);
  bool exact = true;
  // Position mask of each fanin cut's leaves within the merged leaf set.
  std::array<std::uint32_t, kMaxTtInputs> pos{};
  for (std::size_t i = 0; i < g.ins.size(); ++i) {
    const Cut& fc = cuts[g.ins[i]][from[i]];
    c.cone |= fc.cone;
    std::size_t f = 0;
    for (std::size_t j = 0; j < k; ++j) {
      if (f < fc.leaves.size() && fc.leaves[f] == c.leaves[j]) {
        pos[i] |= 1u << j;
        ++f;
      } else if (net_bit(c.leaves[j]) & fc.cone) {
        // A merged leaf may sit inside this fanin's cone, where
        // cut_function would stop at it; composition would look through.
        exact = false;
      }
    }
  }
  if (!exact) {
    c.tt = cut_function(n, g.out,
                        std::vector<NetId>(c.leaves.begin(), c.leaves.end()));
    return;
  }
  std::uint64_t bits = 0;
  for (std::uint32_t m = 0; m < (1u << k); ++m) {
    std::uint32_t gate_minterm = 0;
    for (std::size_t i = 0; i < g.ins.size(); ++i) {
      const Cut& fc = cuts[g.ins[i]][from[i]];
      // Gather m's bits at this fanin's leaf positions (ascending).
      std::uint32_t row = 0, b = 0;
      for (std::uint32_t mask = pos[i]; mask != 0; mask &= mask - 1, ++b)
        row |= ((m >> std::countr_zero(mask)) & 1u) << b;
      gate_minterm |= static_cast<std::uint32_t>((fc.tt.bits() >> row) & 1u)
                      << i;
    }
    bits |= ((g.tt.bits() >> gate_minterm) & 1ull) << m;
  }
  c.tt = TruthTable(static_cast<int>(k), bits);
}

}  // namespace

CutSet::CutSet(const Netlist& n, const CutParams& params) : params_(params) {
  HLP_REQUIRE(params.k >= 2 && params.k <= kMaxTtInputs,
              "K must be in [2," << kMaxTtInputs << "], got " << params.k);
  HLP_REQUIRE(params.max_cuts >= 2, "cut budget must be >= 2");
  cuts_.resize(n.num_nets());
  best_depth_.assign(n.num_nets(), 0);

  for (NetId net = 0; net < n.num_nets(); ++net)
    if (n.is_comb_source(net)) cuts_[net] = {trivial_cut(net)};

  std::vector<Candidate> partial, next;
  for (int gi : n.topo_gates()) {
    const Gate& g = n.gates()[gi];
    HLP_REQUIRE(static_cast<int>(g.ins.size()) <= params_.k,
                "gate '" << n.net_name(g.out) << "' has " << g.ins.size()
                         << " inputs; K=" << params_.k
                         << " mapping cannot cover it");
    const NetId root = g.out;

    // Cross product of fanin cut sets, built input by input.
    partial.assign(1, Candidate{});
    for (std::size_t i = 0; i < g.ins.size(); ++i) {
      const std::vector<Cut>& fanin_cuts = cuts_[g.ins[i]];
      HLP_CHECK(!fanin_cuts.empty(),
                "fanin net '" << n.net_name(g.ins[i]) << "' has no cuts");
      next.clear();
      for (const Candidate& p : partial) {
        for (std::size_t fi = 0; fi < fanin_cuts.size(); ++fi) {
          const Cut& fc = fanin_cuts[fi];
          Candidate c;
          // The union's signature is the OR of both; more set bits than
          // K means more than K leaves, without merging.
          c.signature = p.signature | fc.signature;
          if (std::popcount(c.signature) > params_.k ||
              !merge_leaves(p.leaves, fc.leaves, params_.k, c.leaves))
            continue;
          // Depth of a cut: 1 + max over leaves of their best depth.
          int d = 0;
          for (NetId l : c.leaves) d = std::max(d, best_depth_[l]);
          c.depth = d + 1;
          c.from = p.from;
          c.from[i] = static_cast<int>(fi);
          next.push_back(c);
        }
      }
      std::swap(partial, next);
      if (partial.empty()) break;
    }

    // Dominance filter + priority pruning.
    std::sort(partial.begin(), partial.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.depth != b.depth) return a.depth < b.depth;
                return a.leaves.size() < b.leaves.size();
              });
    std::vector<Cut> result;
    for (const Candidate& c : partial) {
      bool dominated = false;
      for (const Cut& kept : result)
        if (subset_of(kept, c)) {
          dominated = true;
          break;
        }
      if (!dominated) {
        Cut& cut = result.emplace_back();
        cut.leaves = c.leaves;
        cut.signature = c.signature;
        cut.depth = c.depth;
        compose_function(n, g, cuts_, c.from, cut);
      }
      if (static_cast<int>(result.size()) >= params_.max_cuts - 1) break;
    }
    // Always keep the trivial cut so larger cuts above can end here.
    result.push_back(trivial_cut(root));
    best_depth_[root] = result.front().depth;
    cuts_[root] = std::move(result);
  }
}

const std::vector<Cut>& CutSet::cuts_of(NetId n) const {
  HLP_CHECK(n >= 0 && n < static_cast<NetId>(cuts_.size()), "net out of range");
  HLP_CHECK(!cuts_[n].empty(), "net " << n << " has no cuts (undriven?)");
  return cuts_[n];
}

int CutSet::best_depth(NetId n) const {
  HLP_CHECK(n >= 0 && n < static_cast<NetId>(best_depth_.size()),
            "net out of range");
  return best_depth_[n];
}

TruthTable cut_function(const Netlist& n, NetId root,
                        const std::vector<NetId>& leaves) {
  HLP_REQUIRE(static_cast<int>(leaves.size()) <= kMaxTtInputs,
              "cut has " << leaves.size() << " leaves, max " << kMaxTtInputs);
  const int k = static_cast<int>(leaves.size());
  // Truth table of each net over the leaf variables, computed bottom-up.
  std::unordered_map<NetId, std::uint64_t> tt;
  const std::uint64_t full_mask =
      k == 6 ? ~0ull : ((1ull << (1u << k)) - 1ull);
  for (int j = 0; j < k; ++j) {
    // Projection of variable j: bit m is ((m >> j) & 1).
    std::uint64_t proj = 0;
    for (std::uint32_t m = 0; m < (1u << k); ++m)
      if ((m >> j) & 1u) proj |= 1ull << m;
    tt[leaves[j]] = proj;
  }
  auto eval = [&](auto&& self, NetId net) -> std::uint64_t {
    auto it = tt.find(net);
    if (it != tt.end()) return it->second;
    const int gi = n.driver_gate(net);
    HLP_REQUIRE(gi >= 0, "cut of '" << n.net_name(root)
                                    << "' does not cover source net '"
                                    << n.net_name(net) << "'");
    const Gate& g = n.gates()[gi];
    std::vector<std::uint64_t> in_tts;
    in_tts.reserve(g.ins.size());
    for (NetId in : g.ins) in_tts.push_back(self(self, in));
    std::uint64_t out = 0;
    for (std::uint32_t m = 0; m < (1u << k); ++m) {
      std::uint32_t gate_minterm = 0;
      for (std::size_t j = 0; j < in_tts.size(); ++j)
        if ((in_tts[j] >> m) & 1ull) gate_minterm |= 1u << j;
      if (g.tt.eval(gate_minterm)) out |= 1ull << m;
    }
    out &= full_mask;
    tt.emplace(net, out);
    return out;
  };
  return TruthTable(k, eval(eval, root));
}

}  // namespace hlp
