// Cycle-accurate simulation of a registered datapath netlist.
//
// Drives the netlist through a sequence of input frames (one per clock
// cycle), latching state at every edge and letting the combinational fabric
// settle with unit delays. Produces the transition statistics behind the
// paper's Figure 3 (toggle rate) and Table 3 (dynamic power): total
// transitions, and the functional/glitch split (a net's settled value
// changing at most once per cycle is functional; every extra transition is
// a glitch).
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace hlp {

struct CycleSimStats {
  std::vector<std::uint64_t> toggles;  // per net, unit-delay transitions
  std::uint64_t num_cycles = 0;
  std::uint64_t total_transitions = 0;
  std::uint64_t functional_transitions = 0;
  std::uint64_t glitch_transitions() const {
    return total_transitions - functional_transitions;
  }
  double transitions_per_cycle() const {
    return num_cycles ? static_cast<double>(total_transitions) /
                            static_cast<double>(num_cycles)
                      : 0.0;
  }
};

/// Run `frames[i]` (values for every primary input, in netlist input order)
/// through the netlist, one frame per clock cycle.
CycleSimStats simulate_frames(const Netlist& n,
                              const std::vector<std::vector<char>>& frames);

namespace detail {

/// Throw hlp::Error naming the first frame whose bit count is not the
/// netlist's input count ("frame 7 has 2 bits, netlist has 5 inputs").
/// Shared by the scalar and the bit-parallel frames paths.
void check_frame_arity(const Netlist& n,
                       const std::vector<std::vector<char>>& frames);

}  // namespace detail

}  // namespace hlp
