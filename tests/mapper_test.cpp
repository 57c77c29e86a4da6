// Tests for cut enumeration and K-LUT technology mapping: coverage,
// functional equivalence of mapped vs original netlists, depth behaviour,
// and the glitch-aware selection mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mapper/cuts.hpp"
#include "mapper/techmap.hpp"
#include "netlist/modules.hpp"
#include "power/activity.hpp"
#include "rtl/partial_datapath.hpp"
#include "sim/simulator.hpp"

namespace hlp {
namespace {

std::uint64_t eval_all(const Netlist& n, std::uint64_t input_bits) {
  UnitDelaySimulator sim(n);
  for (std::size_t j = 0; j < n.inputs().size(); ++j)
    sim.set_input(n.inputs()[j], (input_bits >> j) & 1u);
  sim.clock_edge();
  sim.settle_zero_delay(false);
  std::uint64_t out = 0;
  for (std::size_t j = 0; j < n.outputs().size(); ++j)
    if (sim.value(n.outputs()[j])) out |= 1ull << j;
  return out;
}

Netlist two_level() {
  // y = (a & b) | (c & d): classic 4-input function of 3 gates.
  Netlist n("t");
  const NetId a = n.add_input("a"), b = n.add_input("b"),
              c = n.add_input("c"), d = n.add_input("d");
  const NetId x1 = n.add_gate_net("x1", {a, b}, TruthTable::and2());
  const NetId x2 = n.add_gate_net("x2", {c, d}, TruthTable::and2());
  n.add_output(n.add_gate_net("y", {x1, x2}, TruthTable::or2()));
  return n;
}

TEST(Cuts, TrivialCutAlwaysPresent) {
  const Netlist n = two_level();
  const CutSet cs(n, CutParams{});
  const NetId y = n.find_net("y");
  bool found_trivial = false;
  for (const Cut& c : cs.cuts_of(y))
    if (c.is_trivial(y)) found_trivial = true;
  EXPECT_TRUE(found_trivial);
}

TEST(Cuts, FourInputCutCoversWholeCone) {
  const Netlist n = two_level();
  const CutSet cs(n, CutParams{4, 12});
  const NetId y = n.find_net("y");
  // Best depth must be 1: the whole cone fits one 4-LUT.
  EXPECT_EQ(cs.best_depth(y), 1);
  bool has_pi_cut = false;
  for (const Cut& c : cs.cuts_of(y))
    if (c.leaves.size() == 4) has_pi_cut = true;
  EXPECT_TRUE(has_pi_cut);
}

TEST(Cuts, K2ForcesTwoLevels) {
  const Netlist n = two_level();
  const CutSet cs(n, CutParams{2, 12});
  EXPECT_EQ(cs.best_depth(n.find_net("y")), 2);
}

TEST(Cuts, LeavesNeverExceedK) {
  const Netlist n = make_multiplier(4);
  const CutSet cs(n, CutParams{4, 10});
  for (NetId net = 0; net < n.num_nets(); ++net)
    for (const Cut& c : cs.cuts_of(net)) EXPECT_LE(c.leaves.size(), 4u);
}

TEST(Cuts, CutFunctionOfWholeCone) {
  const Netlist n = two_level();
  const NetId y = n.find_net("y");
  const std::vector<NetId> leaves = {n.find_net("a"), n.find_net("b"),
                                     n.find_net("c"), n.find_net("d")};
  const TruthTable tt = cut_function(n, y, leaves);
  for (std::uint32_t m = 0; m < 16; ++m) {
    const bool a = m & 1, b = m & 2, c = m & 4, d = m & 8;
    EXPECT_EQ(tt.eval(m), (a && b) || (c && d));
  }
}

TEST(Cuts, CutFunctionRejectsNonCover) {
  const Netlist n = two_level();
  // {a, b} does not cover y's cone (c, d paths escape).
  EXPECT_THROW(
      cut_function(n, n.find_net("y"), {n.find_net("a"), n.find_net("b")}),
      Error);
}

TEST(Cuts, RejectsBadK) {
  const Netlist n = two_level();
  EXPECT_THROW(CutSet(n, CutParams{1, 12}), Error);
  EXPECT_THROW(CutSet(n, CutParams{7, 12}), Error);
}

// Every cut's carried table must equal the cut_function oracle, bit for
// bit, on every net.
void expect_tables_match_oracle(const Netlist& n, const CutParams& params) {
  const CutSet cs(n, params);
  int checked = 0;
  for (NetId net = 0; net < n.num_nets(); ++net) {
    if (n.driver_gate(net) < 0 && !n.is_comb_source(net)) continue;
    for (const Cut& c : cs.cuts_of(net)) {
      const std::vector<NetId> leaves(c.leaves.begin(), c.leaves.end());
      ASSERT_EQ(c.tt, cut_function(n, net, leaves))
          << n.name() << " net " << n.net_name(net) << " K=" << params.k;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0) << n.name();
}

TEST(Cuts, CarriedTablesMatchOracleOnTestNetlists) {
  Netlist seq("seq");
  {
    const NetId a = seq.add_input("a");
    const NetId q = seq.add_net("q");
    const NetId d = seq.add_gate_net("d", {a, q}, TruthTable::xor2());
    seq.add_latch(q, d);
    seq.add_output(q);
  }
  for (const Netlist& n : {two_level(), make_adder(4), make_adder(8),
                           make_multiplier(3), make_multiplier(4),
                           make_mux(5, 2), seq})
    for (const CutParams params : {CutParams{3, 12}, CutParams{4, 10},
                                   CutParams{4, 12}, CutParams{6, 8}})
      expect_tables_match_oracle(n, params);
  expect_tables_match_oracle(two_level(), CutParams{2, 12});
}

// Random reconvergent DAGs of 1-3 input gates under tight cut budgets:
// the shapes where a merged leaf can sit inside another fanin cut's cone,
// so the table must come from cut_function rather than composition.
TEST(Cuts, CarriedTablesMatchOracleOnRandomDags) {
  Rng rng(1234);
  for (int trial = 0; trial < 300; ++trial) {
    Netlist n("rand" + std::to_string(trial));
    std::vector<NetId> nets;
    for (int i = 0; i < 5; ++i)
      nets.push_back(n.add_input("i" + std::to_string(i)));
    for (int gi = 0; gi < 24; ++gi) {
      const int fanin = rng.range(1, 3);
      std::vector<NetId> ins;
      while (static_cast<int>(ins.size()) < fanin) {
        // Favour recent nets: deep, reconvergent cones.
        const int back = std::min<int>(static_cast<int>(nets.size()),
                                       rng.range(1, 8));
        const NetId in = nets[nets.size() - back];
        if (std::find(ins.begin(), ins.end(), in) == ins.end())
          ins.push_back(in);
        else if (back == static_cast<int>(nets.size()))
          break;
      }
      nets.push_back(n.add_gate_net("g" + std::to_string(gi), ins,
                                    TruthTable(static_cast<int>(ins.size()),
                                               rng.next_u64())));
    }
    n.add_output(nets.back());
    for (const int k : {3, 4, 6})
      for (const int budget : {2, 3, 5})
        expect_tables_match_oracle(n, CutParams{k, budget});
  }
}

TEST(Cuts, CarriedTablesMatchOracleOnPartialDatapaths) {
  for (const OpKind kind : {OpKind::kAdd, OpKind::kMult})
    for (const int a : {1, 2, 3, 5, 9})
      for (const int b : {1, 2, 3, 5, 9})
        expect_tables_match_oracle(make_partial_datapath(kind, a, b, 8),
                                   CutParams{});
}

TEST(TechMap, SingleLutForSmallCone) {
  const MapResult r = tech_map(two_level(), {CutParams{4, 12}, MapMode::kDepth});
  EXPECT_EQ(r.num_luts, 1);
  EXPECT_EQ(r.depth, 1);
}

struct MapCase {
  int which;   // module selector
  MapMode mode;
};

class MapEquivalence : public ::testing::TestWithParam<MapCase> {};

TEST_P(MapEquivalence, MappedNetlistIsFunctionallyIdentical) {
  const auto [which, mode] = GetParam();
  const Netlist orig = [&] {
    switch (which) {
      case 0:
        return make_adder(4);
      case 1:
        return make_multiplier(3);
      case 2:
        return make_mux(5, 2);
      default:
        return make_multiplier(4);
    }
  }();
  const MapResult r = tech_map(orig, {CutParams{4, 10}, mode});
  EXPECT_NO_THROW(r.lut_netlist.validate());
  ASSERT_EQ(r.lut_netlist.inputs().size(), orig.inputs().size());
  ASSERT_EQ(r.lut_netlist.outputs().size(), orig.outputs().size());
  Rng rng(which * 7 + 1);
  const int bits = static_cast<int>(orig.inputs().size());
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t v =
        rng.next_u64() & (bits == 64 ? ~0ull : (1ull << bits) - 1);
    EXPECT_EQ(eval_all(orig, v), eval_all(r.lut_netlist, v))
        << "module " << which << " inputs " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MapEquivalence,
    ::testing::Values(MapCase{0, MapMode::kDepth}, MapCase{0, MapMode::kArea},
                      MapCase{0, MapMode::kGlitchSa},
                      MapCase{1, MapMode::kDepth}, MapCase{1, MapMode::kArea},
                      MapCase{1, MapMode::kGlitchSa},
                      MapCase{2, MapMode::kDepth}, MapCase{2, MapMode::kGlitchSa},
                      MapCase{3, MapMode::kDepth}, MapCase{3, MapMode::kGlitchSa}));

TEST(TechMap, ReducesGateCount) {
  // Mapping 2-3 input gates into 4-LUTs must not increase node count, and
  // should shrink it substantially for arithmetic blocks.
  const Netlist add = make_adder(8);
  const MapResult r = tech_map(add, {CutParams{4, 10}, MapMode::kArea});
  EXPECT_LT(r.num_luts, add.num_gates());
}

TEST(TechMap, DepthModeIsNoDeeperThanAreaMode) {
  const Netlist m = make_multiplier(4);
  const MapResult depth = tech_map(m, {CutParams{4, 10}, MapMode::kDepth});
  const MapResult area = tech_map(m, {CutParams{4, 10}, MapMode::kArea});
  EXPECT_LE(depth.depth, area.depth);
}

TEST(TechMap, PreservesLatches) {
  Netlist n("seq");
  const NetId a = n.add_input("a");
  const NetId q = n.add_net("q");
  const NetId d = n.add_gate_net("d", {a, q}, TruthTable::xor2());
  n.add_latch(q, d);
  n.add_output(q);
  const MapResult r = tech_map(n);
  EXPECT_EQ(r.lut_netlist.num_latches(), 1);
  EXPECT_NO_THROW(r.lut_netlist.validate());
}

TEST(TechMap, GlitchSaModeNoWorseSaThanDepthMode) {
  // On the glitch-prone multiplier, SA-driven cut selection should not
  // produce a higher estimated SA than pure depth mapping.
  const Netlist m = make_multiplier(4);
  const MapResult by_sa = tech_map(m, {CutParams{4, 10}, MapMode::kGlitchSa});
  const MapResult by_depth = tech_map(m, {CutParams{4, 10}, MapMode::kDepth});
  const double sa_sa = estimate_activity(by_sa.lut_netlist).total_sa;
  const double sa_depth = estimate_activity(by_depth.lut_netlist).total_sa;
  EXPECT_LE(sa_sa, sa_depth * 1.02);
}

TEST(TechMap, StatsMatchNetlist) {
  const MapResult r = tech_map(make_adder(6));
  EXPECT_EQ(r.num_luts, r.lut_netlist.num_gates());
  EXPECT_EQ(r.depth, r.lut_netlist.depth());
}

}  // namespace
}  // namespace hlp
