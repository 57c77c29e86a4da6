#include "power/activity.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>

#include "common/error.hpp"
#include "power/probability.hpp"
#include "sim/vectors.hpp"

namespace hlp {

double TimedSignal::activity_at(int t) const {
  for (const auto& [time, a] : acts)
    if (time == t) return a;
  return 0.0;
}

double TimedSignal::total_activity() const {
  double s = 0.0;
  for (const auto& [time, a] : acts) s += a;
  return s;
}

double TimedSignal::glitch_activity() const {
  return total_activity() - activity_at(functional_time);
}

int TimedSignal::last_time() const {
  return acts.empty() ? 0 : acts.back().first;
}

TimedSignal TimedSignal::source(double prob, double activity) {
  TimedSignal s;
  s.prob = prob;
  s.functional_time = 0;
  if (activity > 0.0) s.acts = {{0, activity}};
  return s;
}

namespace {

// Same clamp as the probability.cpp oracles.
double clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

}  // namespace

TimedSignal propagate_lut(const TruthTable& tt,
                          const std::vector<const TimedSignal*>& leaves) {
  HLP_CHECK(static_cast<int>(leaves.size()) == tt.num_inputs(),
            "leaf count " << leaves.size() << " != LUT inputs "
                          << tt.num_inputs());
  const int k = tt.num_inputs();
  const std::uint64_t bits = tt.bits();
  TimedSignal out;

  // On-set minterms in ascending order: the order both oracle sums visit.
  std::array<std::uint8_t, 64> on{};
  int n_on = 0;
  for (std::uint64_t rest = bits; rest != 0; rest &= rest - 1)
    on[n_on++] = static_cast<std::uint8_t>(std::countr_zero(rest));

  // P(y), once per LUT: lut_probability's sum, term for term.
  std::array<double, kMaxTtInputs> p_in{};
  for (int j = 0; j < k; ++j) p_in[j] = leaves[j]->prob;
  double p = 0.0;
  for (int i = 0; i < n_on; ++i) {
    double term = 1.0;
    for (int j = 0; j < k; ++j)
      term *= ((on[i] >> j) & 1u) ? p_in[j] : 1.0 - p_in[j];
    p += term;
  }
  out.prob = clamp01(p);

  // Functional arrival: one unit after the slowest functional leaf arrival.
  int f = 0;
  for (const auto* l : leaves) f = std::max(f, l->functional_time);
  out.functional_time = f + 1;

  // Walk the union of leaf transition times with one cursor per leaf; the
  // output transitions one unit after each time some leaf switches.
  std::array<std::size_t, kMaxTtInputs> cursor{};
  // Per-leaf (value at t, value at t+T) pair table, indexed 2*bu + bv.
  std::array<std::array<double, 4>, kMaxTtInputs> pair{};
  for (;;) {
    int t = std::numeric_limits<int>::max();
    for (int j = 0; j < k; ++j)
      if (cursor[j] < leaves[j]->acts.size())
        t = std::min(t, leaves[j]->acts[cursor[j]].first);
    if (t == std::numeric_limits<int>::max()) break;

    // Activity of each leaf at t (0 when quiet), as activity_at reads it;
    // t counts only when some leaf really switches then.
    std::uint32_t quiet = 0;
    bool switching = false;
    for (int j = 0; j < k; ++j) {
      const auto& acts = leaves[j]->acts;
      double act = 0.0;
      if (cursor[j] < acts.size() && acts[cursor[j]].first == t) {
        act = acts[cursor[j]++].second;
        switching = switching || act > 0.0;
      }
      // lut_joint_prob's pair distribution, expression for expression.
      const double a = std::min(act, 2.0 * std::min(p_in[j], 1.0 - p_in[j]));
      pair[j] = {clamp01(1.0 - p_in[j] - a / 2.0), a / 2.0, a / 2.0,
                 clamp01(p_in[j] - a / 2.0)};
      if (a / 2.0 == 0.0) quiet |= 1u << j;
    }
    if (!switching) continue;

    // P(y(t) y(t+T)) over on-set pairs in ascending (u, v) order. A pair
    // that differs on a quiet leaf multiplies in that leaf's p01 == 0, so
    // its term is exactly zero and skipping it leaves the sum's bits as
    // they are.
    double pj = 0.0;
    for (int iu = 0; iu < n_on; ++iu) {
      const std::uint32_t u = on[iu];
      for (int iv = 0; iv < n_on; ++iv) {
        const std::uint32_t v = on[iv];
        if ((u ^ v) & quiet) continue;
        double term = 1.0;
        for (int j = 0; j < k && term > 0.0; ++j)
          term *= pair[j][2 * ((u >> j) & 1u) + ((v >> j) & 1u)];
        pj += term;
      }
    }
    const double s = clamp01(2.0 * (out.prob - clamp01(pj)));
    if (s > 0.0) out.acts.emplace_back(t + 1, s);
  }
  return out;
}

namespace {

ActivityResult estimate_impl(const Netlist& n, bool zero_delay) {
  ActivityResult r;
  r.signals.assign(n.num_nets(), TimedSignal{});
  for (NetId net = 0; net < n.num_nets(); ++net)
    if (n.is_comb_source(net)) r.signals[net] = TimedSignal::source();

  std::vector<const TimedSignal*> leaves;
  leaves.reserve(kMaxTtInputs);
  const std::vector<int> order = n.topo_gates();
  for (int gi : order) {
    const Gate& g = n.gates()[gi];
    leaves.clear();
    for (NetId in : g.ins) leaves.push_back(&r.signals[in]);
    TimedSignal sig = propagate_lut(g.tt, leaves);
    if (zero_delay) {
      // Collapse the waveform to the functional transition: a single event
      // whose activity is the Chou-Roy value with all leaves switching
      // together (classic transition-density propagation).
      std::vector<double> p_in(g.ins.size()), act_in(g.ins.size());
      for (std::size_t j = 0; j < g.ins.size(); ++j) {
        p_in[j] = r.signals[g.ins[j]].prob;
        act_in[j] = r.signals[g.ins[j]].total_activity();
      }
      const double s = lut_switching_activity(g.tt, p_in, act_in);
      sig.acts.clear();
      if (s > 0.0) sig.acts = {{sig.functional_time, s}};
    }
    r.signals[g.out] = std::move(sig);
  }

  for (int gi : order) {
    const TimedSignal& s = r.signals[n.gates()[gi].out];
    r.total_sa += s.total_activity();
    r.functional_sa += s.activity_at(s.functional_time);
    r.glitch_sa += s.glitch_activity();
  }
  return r;
}

}  // namespace

ActivityResult estimate_activity(const Netlist& n) {
  return estimate_impl(n, /*zero_delay=*/false);
}

ActivityResult estimate_activity_zero_delay(const Netlist& n) {
  return estimate_impl(n, /*zero_delay=*/true);
}

SimActivityResult simulate_activity(const Netlist& n, int num_vectors,
                                    std::uint64_t seed, SimEngine engine) {
  HLP_REQUIRE(num_vectors >= 1,
              "simulate_activity needs >= 1 vector, got " << num_vectors);
  const auto frames = random_vectors(
      num_vectors, static_cast<int>(n.inputs().size()), seed);
  SimActivityResult r;
  r.stats = simulate_frames(n, frames, engine);
  r.vectors_used = static_cast<int>(r.stats.num_cycles);
  r.seed = seed;
  r.engine = engine;
  const double cycles = static_cast<double>(r.stats.num_cycles);
  r.sa.resize(n.num_nets());
  for (NetId net = 0; net < n.num_nets(); ++net)
    r.sa[net] = static_cast<double>(r.stats.toggles[net]) / cycles;
  r.total_sa = static_cast<double>(r.stats.total_transitions) / cycles;
  r.functional_sa =
      static_cast<double>(r.stats.functional_transitions) / cycles;
  r.glitch_sa = static_cast<double>(r.stats.glitch_transitions()) / cycles;
  return r;
}

}  // namespace hlp
