// Tests for the bit-parallel batched simulation engine: randomized
// netlists x seeds asserting simulate_frames_batched / simulate_batch
// reproduce the scalar simulate_frames exactly — per-net toggles, total and
// functional transition counts, and the glitch split — including
// non-multiple-of-64 frame counts and mixed-length run batches, and the
// same equivalence for every SIMD word width the build/CPU supports
// (u64/x2/x4/x8 portable limbs plus the AVX2/AVX-512 backends): one
// randomized grid, every backend, bit for bit. The frames path's
// time-partitioned latch recurrence is driven down both of its paths:
// mapped datapaths and a D = PI register converge in one pass, while a
// free-running counter and an LFSR never forget their start and force
// re-runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cdfg/benchmarks.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "lopass/lopass.hpp"
#include "mapper/techmap.hpp"
#include "netlist/modules.hpp"
#include "rtl/datapath.hpp"
#include "sched/list_scheduler.hpp"
#include "sim/bit_sim.hpp"
#include "sim/schedule_sim.hpp"
#include "sim/simulator.hpp"
#include "sim/vectors.hpp"

namespace hlp {
namespace {

// A random LUT DAG with registers: `num_inputs` PIs, `num_gates` gates of
// random fanin 1..4 and random truth tables over earlier nets, and
// `num_latches` register bits fed from random nets (so the batched
// latch-state recurrence is exercised).
Netlist random_netlist(std::uint64_t seed, int num_inputs = 5,
                       int num_gates = 30, int num_latches = 4) {
  Rng rng(seed);
  Netlist n("rand" + std::to_string(seed));
  std::vector<NetId> pool;
  for (int i = 0; i < num_inputs; ++i)
    pool.push_back(n.add_input("i" + std::to_string(i)));
  // Latch Qs are combinational sources: create them up front so gates can
  // read registered state; D pins are connected at the end.
  std::vector<NetId> qs;
  for (int i = 0; i < num_latches; ++i) {
    qs.push_back(n.add_net("q" + std::to_string(i)));
    pool.push_back(qs.back());
  }
  for (int i = 0; i < num_gates; ++i) {
    const int k = rng.range(1, 4);
    std::vector<NetId> ins(k);
    for (auto& in : ins) in = pool[rng.below(static_cast<int>(pool.size()))];
    const std::uint64_t bits = rng.next_u64();
    const NetId out = n.add_gate_net("g" + std::to_string(i), ins,
                                     TruthTable(k, bits));
    pool.push_back(out);
  }
  for (int i = 0; i < num_latches; ++i) {
    // D from any net except the Q itself (self-loops through a latch are
    // legal but a direct q->q hold never toggles; keep it interesting).
    NetId d = qs[i];
    while (d == qs[i]) d = pool[rng.below(static_cast<int>(pool.size()))];
    n.add_latch(qs[i], d);
  }
  n.add_output(pool.back());
  n.validate();
  return n;
}

// Every concrete SimdMode this build + CPU can execute (kU64 first).
std::vector<SimdMode> supported_modes() {
  std::vector<SimdMode> modes;
  for (const SimdMode mode : all_simd_modes())
    if (mode != SimdMode::kAuto && simd_mode_supported(mode))
      modes.push_back(mode);
  return modes;
}

// A free-running `bits`-bit counter (D = Q + 1 through a ripple carry) with
// one PI that only reaches an output: its state never forgets its start.
Netlist counter_netlist(int bits) {
  Netlist n("counter");
  const NetId en = n.add_input("en");
  std::vector<NetId> q;
  for (int i = 0; i < bits; ++i)
    q.push_back(n.add_net("q" + std::to_string(i)));
  NetId carry = kNoNet;
  for (int i = 0; i < bits; ++i) {
    const std::string k = std::to_string(i);
    const NetId d = i == 0 ? n.add_gate_net("d0", {q[0]}, TruthTable::not1())
                           : n.add_gate_net("d" + k, {q[i], carry},
                                            TruthTable::xor2());
    carry = i == 0 ? q[0]
                   : n.add_gate_net("c" + k, {q[i], carry}, TruthTable::and2());
    n.add_latch(q[i], d);
  }
  n.add_output(n.add_gate_net("out", {en, q.back()}, TruthTable::xor2()));
  n.validate();
  return n;
}

// A 16-bit Fibonacci LFSR whose feedback also XORs in a PI; shift-stage Ds
// are the previous stage's Q directly. Linear and invertible, so two
// different start states never meet.
Netlist lfsr_netlist() {
  Netlist n("lfsr");
  const NetId in = n.add_input("in");
  std::vector<NetId> q;
  for (int i = 0; i < 16; ++i) q.push_back(n.add_net("q" + std::to_string(i)));
  const NetId t1 = n.add_gate_net("t1", {q[15], q[13]}, TruthTable::xor2());
  const NetId t2 = n.add_gate_net("t2", {q[12], q[10]}, TruthTable::xor2());
  const NetId fb = n.add_gate_net("fb", {t1, t2, in}, TruthTable::xor3());
  n.add_latch(q[0], fb);
  for (int i = 1; i < 16; ++i) n.add_latch(q[i], q[i - 1]);
  n.add_output(n.add_gate_net("out", {q[15], q[7], in}, TruthTable::maj3()));
  n.validate();
  return n;
}

// Registers loaded straight from the PIs (D = PI) every cycle, with logic
// behind them: one frame fixes the whole state.
Netlist pi_reset_netlist() {
  Netlist n("pireset");
  std::vector<NetId> pis, q;
  for (int i = 0; i < 4; ++i) {
    pis.push_back(n.add_input("i" + std::to_string(i)));
    q.push_back(n.add_net("q" + std::to_string(i)));
    n.add_latch(q[i], pis[i]);
  }
  const NetId a = n.add_gate_net("a", {q[0], q[1], pis[2]}, TruthTable::xor3());
  const NetId b = n.add_gate_net("b", {q[2], q[3], a}, TruthTable::mux2());
  n.add_output(n.add_gate_net("y", {a, b, pis[3]}, TruthTable::maj3()));
  n.validate();
  return n;
}

// A paper benchmark through the evaluation flow's front end: Table 2
// resource constraints, LOPASS binding, 8-bit datapath, depth-mapped LUTs,
// and the frames of `vectors` random samples.
struct MappedDesign {
  Netlist lut;
  std::vector<std::vector<char>> frames;
};

MappedDesign mapped_design(const std::string& name,
                           const ResourceConstraint& rc, int vectors) {
  const Cdfg g = make_paper_benchmark(name);
  const Schedule s = list_schedule(g, rc);
  const Datapath dp =
      elaborate_datapath(g, s, bind_lopass(g, s, rc), DatapathParams{8});
  MapResult m = tech_map(dp.netlist, MapParams{CutParams{}, MapMode::kDepth});
  return {std::move(m.lut_netlist),
          make_frames(dp, random_samples(vectors, g.num_inputs(), 8, 42))};
}

std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "(no error)";
}

void expect_identical(const CycleSimStats& scalar, const CycleSimStats& batched,
                      const std::string& what) {
  EXPECT_EQ(scalar.num_cycles, batched.num_cycles) << what;
  EXPECT_EQ(scalar.toggles, batched.toggles) << what;
  EXPECT_EQ(scalar.total_transitions, batched.total_transitions) << what;
  EXPECT_EQ(scalar.functional_transitions, batched.functional_transitions)
      << what;
  EXPECT_EQ(scalar.glitch_transitions(), batched.glitch_transitions()) << what;
}

TEST(BitSim, MatchesScalarOnRandomNetlists) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const Netlist n = random_netlist(seed);
    for (int num_frames : {1, 3, 63, 64, 65, 130}) {
      const auto frames = random_vectors(
          num_frames, static_cast<int>(n.inputs().size()), seed * 1000 + 7);
      expect_identical(
          simulate_frames(n, frames), simulate_frames_batched(n, frames),
          "seed " + std::to_string(seed) + " T=" + std::to_string(num_frames));
    }
  }
}

TEST(BitSim, MatchesScalarOnPureCombinational) {
  // No latches: the batched path skips the recurrence and packs the PI
  // words straight from the frames, at every width.
  const Netlist n = random_netlist(11, 6, 40, /*num_latches=*/0);
  for (const int num_frames : {1, 100, 513}) {
    const auto frames = random_vectors(
        num_frames, static_cast<int>(n.inputs().size()), 13);
    const CycleSimStats scalar = simulate_frames(n, frames);
    EXPECT_GT(scalar.total_transitions, 0u);
    for (const SimdMode mode : supported_modes()) {
      const std::string what = std::string(simd_mode_name(mode)) +
                               " T=" + std::to_string(num_frames);
      expect_identical(scalar, simulate_frames_batched(n, frames, mode), what);
      EXPECT_EQ(detail::latch_recurrence(n, frames, mode).passes, 0) << what;
    }
  }
}

TEST(BitSim, MatchesScalarOnMappedMultiplier) {
  // A tech-mapped module netlist: the exact shape the flow pipeline feeds
  // the simulate stage (K-LUTs, deep glitchy logic).
  const MapResult mapped = tech_map(make_multiplier(4));
  const Netlist& n = mapped.lut_netlist;
  const auto frames =
      random_vectors(200, static_cast<int>(n.inputs().size()), 17);
  const CycleSimStats scalar = simulate_frames(n, frames);
  expect_identical(scalar, simulate_frames_batched(n, frames), "mapped mult");
  EXPECT_GT(scalar.glitch_transitions(), 0u);  // the comparison is non-trivial
}

TEST(BitSim, MatchesScalarOnWideGates) {
  // k=5/6 gates exceed the packed-record operand slots, so they must stay
  // on the CSR Shannon fallback — including wide parity/AND/OR shapes
  // that LOOK like the specialised k<=4 patterns (regression: classifying
  // them used to read past the packed input array).
  Netlist n("wide");
  std::vector<NetId> pis;
  for (int i = 0; i < 6; ++i)
    pis.push_back(n.add_input("i" + std::to_string(i)));
  std::uint64_t parity5 = 0, parity6 = 0;
  for (std::uint32_t m = 0; m < 64; ++m) {
    if (std::popcount(m & 31u) & 1) parity5 |= 1ull << (m & 31u);
    if (std::popcount(m) & 1) parity6 |= 1ull << m;
  }
  const std::vector<NetId> five(pis.begin(), pis.begin() + 5);
  const NetId x5 = n.add_gate_net("xor5", five, TruthTable(5, parity5));
  const NetId x6 = n.add_gate_net("xor6", pis, TruthTable(6, parity6));
  const NetId a5 = n.add_gate_net("and5", five,
                                  TruthTable(5, 1ull << 31));  // AND of 5
  const NetId o6 = n.add_gate_net("or6", pis, TruthTable(6, ~1ull));
  const NetId mix = n.add_gate_net("mix", {x5, x6, a5, o6},
                                   TruthTable(4, 0x96c3));
  n.add_output(mix);
  n.validate();
  const auto frames =
      random_vectors(130, static_cast<int>(n.inputs().size()), 41);
  expect_identical(simulate_frames(n, frames),
                   simulate_frames_batched(n, frames), "wide gates");
}

TEST(BitSim, EmptyFrameListAndArityChecks) {
  const Netlist n = random_netlist(21);
  const CycleSimStats st = simulate_frames_batched(n, {});
  EXPECT_EQ(st.num_cycles, 0u);
  EXPECT_EQ(st.total_transitions, 0u);
  EXPECT_EQ(st.toggles, std::vector<std::uint64_t>(n.num_nets(), 0));
  EXPECT_THROW(simulate_frames_batched(n, {{1, 0}}), Error);
  // A bad frame in the middle of a run is named by its index, on the
  // scalar, frames-batched and multi-run paths alike.
  auto frames = random_vectors(12, static_cast<int>(n.inputs().size()), 5);
  frames[7].resize(2);
  const std::string want = "frame 7 has 2 bits, netlist has 5 inputs";
  EXPECT_EQ(error_of([&] { simulate_frames(n, frames); }), want);
  for (const SimdMode mode : supported_modes())
    EXPECT_EQ(error_of([&] { simulate_frames_batched(n, frames, mode); }),
              want)
        << simd_mode_name(mode);
  EXPECT_EQ(error_of([&] { simulate_batch(n, {frames}); }), want);
}

TEST(BitSim, BatchOfRunsMatchesPerRunScalar) {
  const Netlist n = random_netlist(31);
  const int num_inputs = static_cast<int>(n.inputs().size());
  // Mixed lengths, including empty and word-boundary-straddling runs.
  const std::vector<int> lengths = {10, 0, 64, 65, 1, 33};
  std::vector<std::vector<std::vector<char>>> runs;
  for (std::size_t i = 0; i < lengths.size(); ++i)
    runs.push_back(random_vectors(lengths[i], num_inputs, 100 + i));
  const auto batched = simulate_batch(n, runs);
  ASSERT_EQ(batched.size(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i)
    expect_identical(simulate_frames(n, runs[i]), batched[i],
                     "run " + std::to_string(i));
}

TEST(BitSim, BatchOfManyRunsCrossesLaneGroups) {
  // > 64 runs forces a second lane group.
  const Netlist n = random_netlist(41, 4, 15, 2);
  const int num_inputs = static_cast<int>(n.inputs().size());
  std::vector<std::vector<std::vector<char>>> runs;
  for (int i = 0; i < 70; ++i)
    runs.push_back(random_vectors(5 + (i % 3), num_inputs, 500 + i));
  const auto batched = simulate_batch(n, runs);
  ASSERT_EQ(batched.size(), 70u);
  for (std::size_t i = 0; i < runs.size(); ++i)
    expect_identical(simulate_frames(n, runs[i]), batched[i],
                     "run " + std::to_string(i));
}

TEST(BitSim, SharedStimulusAcrossNetlists) {
  // Many "bindings" sharing one stimulus: netlists with equal PI counts.
  const Netlist a = random_netlist(51, 5, 25, 3);
  const Netlist b = random_netlist(52, 5, 35, 2);
  const auto frames = random_vectors(90, 5, 61);
  const auto batched = simulate_batch({&a, &b}, frames);
  ASSERT_EQ(batched.size(), 2u);
  expect_identical(simulate_frames(a, frames), batched[0], "netlist a");
  expect_identical(simulate_frames(b, frames), batched[1], "netlist b");
}

TEST(BitSim, EngineDispatchAgrees) {
  const Netlist n = random_netlist(71);
  const auto frames =
      random_vectors(77, static_cast<int>(n.inputs().size()), 3);
  expect_identical(simulate_frames(n, frames, SimEngine::kScalar),
                   simulate_frames(n, frames, SimEngine::kBatched), "dispatch");
}

TEST(BitSimWidths, BatchOfRunsMatchesScalarAtEveryWidth) {
  // Mixed-length runs, sized so every width sees a partially-filled word
  // (70 runs: 2 words at u64, 1 partial word at every wider backend) and
  // per-lane accounting is exercised well past lane 63.
  const Netlist n = random_netlist(91, 4, 20, 3);
  const int num_inputs = static_cast<int>(n.inputs().size());
  std::vector<std::vector<std::vector<char>>> runs;
  for (int i = 0; i < 70; ++i)
    runs.push_back(random_vectors(3 + (i % 5), num_inputs, 900 + i));
  std::vector<CycleSimStats> scalar;
  for (const auto& run : runs) scalar.push_back(simulate_frames(n, run));
  for (const SimdMode mode : supported_modes()) {
    const auto batched = simulate_batch(n, runs, mode);
    ASSERT_EQ(batched.size(), runs.size()) << simd_mode_name(mode);
    for (std::size_t i = 0; i < runs.size(); ++i)
      expect_identical(scalar[i], batched[i],
                       std::string(simd_mode_name(mode)) + " run " +
                           std::to_string(i));
  }
}

TEST(BitSimWidths, SmallBatchFillsOneWordAtEveryWidth) {
  // Fewer runs than any word has lanes: the engine must freeze the unused
  // lanes without perturbing the active ones.
  const Netlist n = random_netlist(92, 5, 25, 2);
  const int num_inputs = static_cast<int>(n.inputs().size());
  std::vector<std::vector<std::vector<char>>> runs;
  for (int i = 0; i < 3; ++i)
    runs.push_back(random_vectors(40 + i, num_inputs, 700 + i));
  for (const SimdMode mode : supported_modes()) {
    const auto batched = simulate_batch(n, runs, mode);
    for (std::size_t i = 0; i < runs.size(); ++i)
      expect_identical(simulate_frames(n, runs[i]), batched[i],
                       std::string(simd_mode_name(mode)) + " run " +
                           std::to_string(i));
  }
}

TEST(BitSimWidths, FramesBatchedMatchesScalarAtEveryWidth) {
  // Frame counts straddling every word boundary: 1 (deep partial word),
  // 130 (partial at >=256 lanes), 513 (partial at 512 lanes, multi-block
  // at every width) — the cross-block latch-state carry must line up at
  // every lane count.
  const Netlist n = random_netlist(93);
  const int num_inputs = static_cast<int>(n.inputs().size());
  for (const int num_frames : {1, 130, 513}) {
    const auto frames = random_vectors(num_frames, num_inputs, 811);
    const CycleSimStats scalar = simulate_frames(n, frames);
    for (const SimdMode mode : supported_modes())
      expect_identical(scalar, simulate_frames_batched(n, frames, mode),
                       std::string(simd_mode_name(mode)) + " T=" +
                           std::to_string(num_frames));
  }
}

TEST(BitSimRecurrence, MappedDatapathsForgetTheirGuessedStart) {
  // The registers of a mapped datapath are rewritten from the PIs within
  // about one and a half input samples. Segments longer than that (1000
  // samples) absorb every lane's guessed start in one re-run pass; short
  // ones (50 samples, 2 frames a lane at 512 lanes) take several passes,
  // but no width gives up on them.
  for (const auto& [name, rc] :
       {std::pair<std::string, ResourceConstraint>{"wang", {2, 2}},
        std::pair<std::string, ResourceConstraint>{"mcm", {4, 2}}}) {
    for (const int vectors : {50, 1000}) {
      const MappedDesign d = mapped_design(name, rc, vectors);
      ASSERT_FALSE(d.lut.latches().empty()) << name;
      for (const SimdMode mode : supported_modes()) {
        const std::string what = name + " " + simd_mode_name(mode) + " " +
                                 std::to_string(vectors) + " vectors";
        const auto r = detail::latch_recurrence(d.lut, d.frames, mode);
        if (vectors == 1000) EXPECT_EQ(r.passes, 2) << what;
        EXPECT_EQ(r.lanes, simd_lanes(mode)) << what;
      }
    }
  }
}

TEST(BitSimRecurrence, PiLoadedRegistersForgetTheirGuessedStartInOneReRun) {
  const Netlist n = pi_reset_netlist();
  const auto frames = random_vectors(2000, 4, 77);
  const CycleSimStats scalar = simulate_frames(n, frames);
  for (const SimdMode mode : supported_modes()) {
    const auto r = detail::latch_recurrence(n, frames, mode);
    EXPECT_EQ(r.passes, 2) << simd_mode_name(mode);
    EXPECT_EQ(r.lanes, simd_lanes(mode)) << simd_mode_name(mode);
    expect_identical(scalar, simulate_frames_batched(n, frames, mode),
                     simd_mode_name(mode));
  }
}

TEST(BitSimRecurrence, StateThatNeverForgetsRunsOnTheU64Word) {
  // Every lane but the first starts from a wrong guess that never fades,
  // so state matching must re-run lanes (one settles per pass) and still
  // reproduce the sequential recurrence. A wider word gives up once the
  // re-runs have covered 256 frames, and the u64 word finishes the job.
  for (const Netlist& n : {counter_netlist(10), lfsr_netlist()}) {
    const auto frames = random_vectors(513, 1, 99);
    const CycleSimStats scalar = simulate_frames(n, frames);
    for (const SimdMode mode : supported_modes()) {
      const std::string what = n.name() + " " + simd_mode_name(mode);
      const auto r = detail::latch_recurrence(n, frames, mode);
      EXPECT_GT(r.passes, 2) << what;
      EXPECT_EQ(r.lanes, 64) << what;
      expect_identical(scalar, simulate_frames_batched(n, frames, mode), what);
    }
  }
}

TEST(BitSimRecurrence, MatchesScalarAtSegmentEdgesOnEveryWidth) {
  // Frame counts around every segment edge: none, one, one word of lanes
  // and either side of it, 513, and 3 * lanes + 5 (segments of 4 frames,
  // shorter than an input sample, so guesses survive several re-runs).
  std::vector<std::pair<std::string, Netlist>> netlists;
  std::vector<std::vector<std::vector<char>>> stimuli;
  for (const auto& [name, rc] :
       {std::pair<std::string, ResourceConstraint>{"wang", {2, 2}},
        std::pair<std::string, ResourceConstraint>{"mcm", {4, 2}}}) {
    MappedDesign d = mapped_design(name, rc, 100);
    netlists.emplace_back(name, std::move(d.lut));
    stimuli.push_back(std::move(d.frames));
  }
  netlists.emplace_back("counter", counter_netlist(10));
  stimuli.push_back(random_vectors(3 * 512 + 5, 1, 7));
  netlists.emplace_back("lfsr", lfsr_netlist());
  stimuli.push_back(random_vectors(3 * 512 + 5, 1, 8));

  for (std::size_t k = 0; k < netlists.size(); ++k) {
    const auto& [name, n] = netlists[k];
    std::map<int, CycleSimStats> scalar;  // by frame count
    for (const SimdMode mode : supported_modes()) {
      const int lanes = simd_lanes(mode);
      for (const int count :
           {0, 1, lanes - 1, lanes, lanes + 1, 513, 3 * lanes + 5}) {
        ASSERT_LE(static_cast<std::size_t>(count), stimuli[k].size()) << name;
        const std::vector<std::vector<char>> frames(
            stimuli[k].begin(), stimuli[k].begin() + count);
        if (!scalar.count(count)) scalar[count] = simulate_frames(n, frames);
        expect_identical(scalar[count],
                         simulate_frames_batched(n, frames, mode),
                         name + " " + simd_mode_name(mode) + " T=" +
                             std::to_string(count));
      }
    }
  }
}

TEST(BitSimWidths, AutoModeDispatchesAndAgrees) {
  // kAuto resolves to the widest supported backend; the dispatcher must
  // accept it directly and agree with the u64 reference.
  const Netlist n = random_netlist(94, 4, 18, 2);
  const int num_inputs = static_cast<int>(n.inputs().size());
  std::vector<std::vector<std::vector<char>>> runs;
  for (int i = 0; i < 10; ++i)
    runs.push_back(random_vectors(7, num_inputs, 300 + i));
  const auto reference = simulate_batch(n, runs, SimdMode::kU64);
  const auto automatic = simulate_batch(n, runs, SimdMode::kAuto);
  for (std::size_t i = 0; i < runs.size(); ++i)
    expect_identical(reference[i], automatic[i],
                     "auto run " + std::to_string(i));
}

TEST(BitSimulator, StepCountsMatchScalarLanes) {
  // Direct engine check against the scalar oracle: one word settle must
  // take as many unit steps as the slowest of its 64 lanes simulated
  // independently, and each net's toggle popcount must equal the summed
  // per-lane toggles, edge by edge.
  const Netlist n = random_netlist(97, 5, 40, 0);
  BitSimulator sim(n);
  sim.settle_zero_delay();
  std::vector<UnitDelaySimulator> lanes(BitSimulator::kLanes,
                                        UnitDelaySimulator(n));
  Rng rng(271828);
  const auto& pis = n.inputs();
  for (int edge = 0; edge < 32; ++edge) {
    for (const NetId pi : pis) {
      const std::uint64_t w = rng.next_u64();
      sim.stage_source(pi, w);
      for (int l = 0; l < BitSimulator::kLanes; ++l)
        lanes[l].set_input(pi, (w >> l) & 1u);
    }
    std::vector<std::uint64_t> toggles(n.num_nets(), 0);
    const int steps = sim.settle(&toggles);
    int max_lane_steps = 0;
    std::vector<std::uint64_t> lane_sum(n.num_nets(), 0);
    for (auto& lane : lanes) {
      lane.clear_toggles();
      max_lane_steps = std::max(max_lane_steps, lane.settle());
      for (NetId net = 0; net < n.num_nets(); ++net)
        lane_sum[net] += lane.toggles()[net];
    }
    EXPECT_EQ(steps, max_lane_steps) << "edge " << edge;
    EXPECT_EQ(toggles, lane_sum) << "edge " << edge;
  }
  // Re-staging identical source words must be a zero-step no-op.
  for (const NetId pi : pis) sim.stage_source(pi, sim.word(pi));
  EXPECT_EQ(sim.settle(nullptr), 0);
}

TEST(BitSimulator, WordEvalMatchesTruthTable) {
  // Direct engine check: an xor3 gate evaluated on word lanes agrees with
  // per-minterm truth-table evaluation.
  Netlist n("xor3");
  const NetId a = n.add_input("a"), b = n.add_input("b"), c = n.add_input("c");
  const NetId y = n.add_gate_net("y", {a, b, c}, TruthTable::xor3());
  n.add_output(y);
  BitSimulator sim(n);
  // Lane l carries minterm l & 7.
  std::uint64_t wa = 0, wb = 0, wc = 0;
  for (int l = 0; l < 64; ++l) {
    if (l & 1) wa |= 1ull << l;
    if (l & 2) wb |= 1ull << l;
    if (l & 4) wc |= 1ull << l;
  }
  sim.stage_source(a, wa);
  sim.stage_source(b, wb);
  sim.stage_source(c, wc);
  sim.settle_zero_delay();
  for (int l = 0; l < 64; ++l)
    EXPECT_EQ((sim.word(y) >> l) & 1,
              TruthTable::xor3().eval(l & 7) ? 1u : 0u)
        << "lane " << l;
}

}  // namespace
}  // namespace hlp
