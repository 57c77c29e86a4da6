#include "mapper/techmap.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "power/activity.hpp"

namespace hlp {
namespace {

// Chosen cut index per net (into the CutSet's list), -1 when not selected.
struct Selection {
  std::vector<int> cut_of_net;
};

// Select cuts per the mapping mode. Trivial self-cuts are never selected
// for gate-driven nets (a node cannot implement itself).
Selection select_cuts(const Netlist& n, const std::vector<int>& order,
                      const CutSet& cuts, MapMode mode) {
  Selection sel;
  sel.cut_of_net.assign(n.num_nets(), -1);

  // Only area flow divides by fanout.
  const std::vector<int> fanout =
      mode == MapMode::kArea ? n.fanout_counts() : std::vector<int>{};

  // Area flow per net (kArea) / timed signal per net (kGlitchSa), built in
  // topo order assuming each net is implemented with its chosen cut.
  std::vector<double> area_flow(n.num_nets(), 0.0);
  std::vector<TimedSignal> signal(n.num_nets());
  for (NetId net = 0; net < n.num_nets(); ++net)
    if (n.is_comb_source(net)) signal[net] = TimedSignal::source();
  std::vector<const TimedSignal*> leaves;
  leaves.reserve(kMaxTtInputs);

  for (int gi : order) {
    const NetId root = n.gates()[gi].out;
    const auto& candidates = cuts.cuts_of(root);
    int best = -1;
    double best_cost = std::numeric_limits<double>::infinity();
    int best_depth = std::numeric_limits<int>::max();
    std::size_t best_size = 0;
    TimedSignal best_signal;

    // Depth slack for SA/area modes: allow one extra level over the
    // depth-optimal choice, the usual quality/latency compromise.
    const int depth_cap = cuts.best_depth(root) + (mode == MapMode::kDepth ? 0 : 1);

    for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
      const Cut& c = candidates[ci];
      if (c.is_trivial(root)) continue;
      int depth = 0;
      for (NetId l : c.leaves) depth = std::max(depth, cuts.best_depth(l));
      depth += 1;
      if (depth > depth_cap) continue;

      double cost = 0.0;
      TimedSignal sig;
      switch (mode) {
        case MapMode::kDepth:
          cost = depth * 1000.0 + static_cast<double>(c.leaves.size());
          break;
        case MapMode::kArea: {
          double af = 1.0;
          for (NetId l : c.leaves) af += area_flow[l];
          cost = af;
          break;
        }
        case MapMode::kGlitchSa: {
          leaves.clear();
          for (NetId l : c.leaves) leaves.push_back(&signal[l]);
          sig = propagate_lut(c.tt, leaves);
          cost = sig.total_activity();
          break;
        }
      }
      const bool better =
          cost < best_cost - 1e-12 ||
          (cost < best_cost + 1e-12 &&
           (depth < best_depth ||
            (depth == best_depth && c.leaves.size() < best_size)));
      if (best < 0 || better) {
        best = static_cast<int>(ci);
        best_cost = cost;
        best_depth = depth;
        best_size = c.leaves.size();
        best_signal = std::move(sig);
      }
    }
    HLP_CHECK(best >= 0, "no implementable cut for net '" << n.net_name(root)
                                                          << "'");
    sel.cut_of_net[root] = best;

    const Cut& chosen = candidates[best];
    if (mode == MapMode::kArea) {
      double af = 1.0;
      for (NetId l : chosen.leaves) af += area_flow[l];
      area_flow[root] = af / std::max(1, fanout[root]);
    } else if (mode == MapMode::kGlitchSa) {
      signal[root] = std::move(best_signal);
    }
  }
  return sel;
}

}  // namespace

MapResult tech_map(const Netlist& n, const MapParams& params) {
  n.validate();
  const CutSet cuts(n, params.cuts);
  const std::vector<int> order = n.topo_gates();
  const Selection sel = select_cuts(n, order, cuts, params.mode);

  MapResult result;
  Netlist& out = result.lut_netlist;
  out.set_name(n.name() + "_mapped");

  // Mark required nets: POs and latch D pins seed the cover; chosen cuts
  // pull in their leaves.
  std::vector<char> required(n.num_nets(), 0);
  std::vector<NetId> work;
  auto require = [&](NetId net) {
    if (!required[net]) {
      required[net] = 1;
      work.push_back(net);
    }
  };
  for (NetId o : n.outputs()) require(o);
  for (const auto& l : n.latches()) require(l.d);
  while (!work.empty()) {
    const NetId net = work.back();
    work.pop_back();
    if (n.is_comb_source(net)) continue;
    const int ci = sel.cut_of_net[net];
    HLP_CHECK(ci >= 0, "required net '" << n.net_name(net) << "' unmapped");
    for (NetId l : cuts.cuts_of(net)[ci].leaves) require(l);
  }

  // Materialise nets: PIs and latch Qs always exist; other required nets
  // keep their names.
  std::vector<NetId> net_map(n.num_nets(), kNoNet);
  for (NetId i : n.inputs()) net_map[i] = out.add_input(n.net_name(i));
  for (const auto& l : n.latches()) net_map[l.q] = out.add_net(n.net_name(l.q));
  for (NetId net = 0; net < n.num_nets(); ++net)
    if (required[net] && net_map[net] == kNoNet)
      net_map[net] = out.add_net(n.net_name(net));

  // Emit LUTs in topological order of the original netlist.
  for (int gi : order) {
    const NetId root = n.gates()[gi].out;
    if (!required[root] || n.is_comb_source(root)) continue;
    const Cut& c = cuts.cuts_of(root)[sel.cut_of_net[root]];
    std::vector<NetId> ins;
    ins.reserve(c.leaves.size());
    for (NetId l : c.leaves) {
      HLP_CHECK(net_map[l] != kNoNet, "leaf not materialised");
      ins.push_back(net_map[l]);
    }
    out.add_gate(net_map[root], std::move(ins), c.tt);
  }

  for (const auto& l : n.latches()) out.add_latch(net_map[l.q], net_map[l.d]);
  for (NetId o : n.outputs()) out.add_output(net_map[o]);
  out.validate();

  result.num_luts = out.num_gates();
  result.depth = out.depth();
  return result;
}

}  // namespace hlp
