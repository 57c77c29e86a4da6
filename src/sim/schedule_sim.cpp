#include "sim/schedule_sim.hpp"

#include "common/error.hpp"
#include "sim/simulator.hpp"

namespace hlp {

namespace detail {

void check_frame_arity(const Netlist& n,
                       const std::vector<std::vector<char>>& frames) {
  for (std::size_t t = 0; t < frames.size(); ++t)
    HLP_REQUIRE(frames[t].size() == n.inputs().size(),
                "frame " << t << " has " << frames[t].size()
                         << " bits, netlist has " << n.inputs().size()
                         << " inputs");
}

}  // namespace detail

CycleSimStats simulate_frames(const Netlist& n,
                              const std::vector<std::vector<char>>& frames) {
  detail::check_frame_arity(n, frames);
  UnitDelaySimulator sim(n);
  CycleSimStats stats;
  stats.num_cycles = frames.size();

  std::vector<char> before(n.num_nets(), 0);
  for (const auto& frame : frames) {
    for (NetId net = 0; net < n.num_nets(); ++net) before[net] = sim.value(net);
    for (std::size_t j = 0; j < frame.size(); ++j)
      sim.set_input(n.inputs()[j], frame[j] != 0);
    sim.clock_edge();
    sim.settle(/*count=*/true);
    for (NetId net = 0; net < n.num_nets(); ++net)
      if (before[net] != (sim.value(net) ? 1 : 0)) ++stats.functional_transitions;
  }
  stats.toggles = sim.toggles();
  stats.total_transitions = sim.total_toggles();
  return stats;
}

}  // namespace hlp
