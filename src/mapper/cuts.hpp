// K-feasible cut enumeration (Cong, Wu, Ding — FPGA'99 "cut ranking and
// pruning"), the substrate of the FPGA technology mapper in GlitchMap [6],
// which the paper's switching-activity estimator is derived from.
//
// A cut of net n is a set of "leaf" nets that together cover every path
// from the combinational sources to n. Cuts with at most K leaves can be
// implemented as a single K-input LUT. Enumeration merges fanin cut sets at
// every gate; per-node cut lists are pruned to a fixed budget, keeping the
// trivial cut plus the best cuts by (size, depth).
//
// Each kept cut carries its function over its own leaves, as in
// priority-cut mapping (Mishchenko et al., ICCAD'07): the gate's table
// composed with the fanin cuts' tables, expanded onto the merged leaf set.
// That composition equals cut_function (the oracle, which evaluates the
// root's cone down to the leaves) whenever no merged leaf lies inside a
// fanin cut's cone; when a cone signature says one might, the table comes
// from cut_function itself. Either way `Cut::tt == cut_function(...)`
// bit for bit, so mapping results do not depend on how tables are built.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/truth_table.hpp"

namespace hlp {

/// Sorted leaf net ids of one cut, stored inline: K <= kMaxTtInputs, so a
/// cut never touches the heap.
class CutLeaves {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  NetId operator[](std::size_t i) const { return ids_[i]; }
  const NetId* begin() const { return ids_.data(); }
  const NetId* end() const { return ids_.data() + size_; }

  /// Appends a leaf; the caller keeps the ids sorted and the count in
  /// bounds (merge_leaves in cuts.cpp is the only writer besides the
  /// trivial cut).
  void push_back(NetId id) { ids_[size_++] = id; }
  void clear() { size_ = 0; }

  friend bool operator==(const CutLeaves& a, const CutLeaves& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i)
      if (a.ids_[i] != b.ids_[i]) return false;
    return true;
  }

 private:
  std::array<NetId, kMaxTtInputs> ids_{};
  std::uint8_t size_ = 0;
};

/// A cut: sorted leaf net ids plus a 64-bit subset signature for fast
/// dominance filtering.
struct Cut {
  CutLeaves leaves;
  std::uint64_t signature = 0;
  /// Signature (same hash as `signature`) of the cone's interior: the
  /// gate-driven nets from just above the leaves up to the root. Zero for
  /// the trivial cut.
  std::uint64_t cone = 0;
  /// Unit-delay depth of the cut's root when this cut is chosen and leaves
  /// are implemented at their own best depth (filled by enumeration).
  int depth = 0;
  /// Function of the root over `leaves`, in order (== cut_function).
  TruthTable tt;

  bool is_trivial(NetId root) const {
    return leaves.size() == 1 && leaves[0] == root;
  }
};

struct CutParams {
  int k = 4;             // LUT input count (Cyclone II: 4)
  int max_cuts = 12;     // per-node priority list budget
};

/// All-node cut sets, indexed by net id. Only gate-driven nets get
/// non-trivial cuts; sources hold just their trivial cut.
class CutSet {
 public:
  CutSet(const Netlist& n, const CutParams& params);

  const std::vector<Cut>& cuts_of(NetId n) const;
  const CutParams& params() const { return params_; }

  /// Best (minimum) achievable depth of each net under the cut budget.
  int best_depth(NetId n) const;

 private:
  CutParams params_;
  std::vector<std::vector<Cut>> cuts_;
  std::vector<int> best_depth_;
};

/// Truth table of `root` expressed over `leaves` (must be a valid cut of
/// root with <= kMaxTtInputs leaves). Computed by composing gate functions.
TruthTable cut_function(const Netlist& n, NetId root,
                        const std::vector<NetId>& leaves);

}  // namespace hlp
