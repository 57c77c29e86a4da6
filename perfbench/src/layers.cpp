#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "cdfg/benchmarks.hpp"
#include "common/strings.hpp"
#include "core/hlpower.hpp"
#include "flow/registry.hpp"
#include "lopass/lopass.hpp"
#include "mapper/cuts.hpp"
#include "mapper/techmap.hpp"
#include "power/activity.hpp"
#include "rtl/partial_datapath.hpp"
#include "sim/simd_mode.hpp"
#include "store/artifact_store.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// SA-table entries replayed per workload, spread evenly over the sorted
/// keys of every table the workload filled.
constexpr std::size_t kSampleKeys = 32;

struct SaKey {
  hlp::OpKind kind = hlp::OpKind::kAdd;
  int a = 1;
  int b = 1;
  double sa = 0.0;
  const hlp::SaCache* owner = nullptr;
};

/// Every entry of `cache`, read back through its public text format.
std::vector<SaKey> table_keys(const hlp::SaCache& cache) {
  std::stringstream ss;
  cache.save(ss);
  std::vector<SaKey> keys;
  std::string line;
  while (std::getline(ss, line)) {
    const auto tok = hlp::split_ws(line);
    if (tok.size() != 4 || tok[0] == "#") continue;
    SaKey key;
    key.kind = tok[0] == "mult" ? hlp::OpKind::kMult : hlp::OpKind::kAdd;
    key.a = std::stoi(tok[1]);
    key.b = std::stoi(tok[2]);
    key.sa = std::stod(tok[3]);
    key.owner = &cache;
    keys.push_back(key);
  }
  return keys;
}

bool same_point(const Job& x, const Job& y) {
  return x.benchmark == y.benchmark && x.binder.name == y.binder.name &&
         x.binder.alpha == y.binder.alpha;
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Lanes one simulator word must cover for `r`: a seed group rides one
/// lane per seed; a single run packs consecutive cycles into the lanes.
struct LaneDemand {
  bool seeds = false;
  std::size_t lanes_needed = 0;
  hlp::SimdMode mode = hlp::SimdMode::kU64;
};

LaneDemand lane_demand(const JobResult& r) {
  LaneDemand d;
  d.seeds = r.group_size > 1;
  d.lanes_needed = d.seeds ? r.group_size : r.outcome.flow.sim.num_cycles;
  d.mode = hlp::effective_simd_mode(r.job.simd, d.lanes_needed);
  return d;
}

}  // namespace

Workload::Callback job_span_recorder(Workload& wl, Trace& trace) {
  const std::vector<Job>& jobs = wl.jobs();
  return [&jobs, &trace](std::size_t i, const JobResult& r) {
    // Members of a coalesced group share one pipeline invocation; the
    // first member (callbacks fire in ascending grid order) stands for it.
    if (r.group_size > 1 && i > 0 && same_point(jobs[i - 1], jobs[i])) return;
    const Clock::time_point start = Clock::now() - to_duration(r.seconds);
    std::ostringstream args;
    args << "\"group_size\": " << r.group_size
         << ", \"cached\": " << (r.outcome.cached_stages.empty() ? "false" : "true");
    trace.add("job " + r.job.benchmark + "/" + r.job.binder.name, "flow", start,
              r.seconds, args.str());
    Clock::time_point t = start;
    for (const auto& stage : r.outcome.timings) {
      trace.add(stage.name, "flow.stage", t, stage.seconds);
      t += to_duration(stage.seconds);
    }
  };
}

std::vector<std::string> resolved_simd_modes(const Pass& pass) {
  std::set<std::string> modes;
  for (const JobResult& r : pass.results) {
    if (!r.ok) continue;
    const LaneDemand d = lane_demand(r);
    modes.insert(std::string(hlp::simd_mode_name(d.mode)) +
                 (d.seeds ? "/seed-lanes" : "/cycle-frames"));
  }
  return {modes.begin(), modes.end()};
}

std::vector<Metric> layer_metrics(Workload& wl, const Pass& traced,
                                  Trace& trace, Tally& tally,
                                  const std::string& scratch) {
  std::vector<Metric> out;
  const auto add = [&out](std::string name, double value, std::string unit) {
    out.push_back({std::move(name), value, std::move(unit)});
  };
  const std::vector<JobResult>& results = traced.results;

  // ---- flow: stages, designs, runner ------------------------------------
  // A coalesced group's shared head and simulate are counted once (weight
  // 1/group_size per member); `power` runs per seed and is counted fully.
  std::map<std::string, double> stage_s;
  std::map<std::string, double> design_s;
  double group_sum = 0.0, busy_s = 0.0, invocations = 0.0, hits = 0.0;
  double sim_s = 0.0, lut_cycles = 0.0, lanes_filled = 0.0, lanes_total = 0.0;
  for (const JobResult& r : results) {
    if (!r.ok) continue;
    const double w = 1.0 / static_cast<double>(r.group_size);
    for (const auto& t : r.outcome.timings)
      stage_s[t.name] += (t.name == "power" ? 1.0 : w) * t.seconds;
    design_s[r.job.benchmark] += w * r.seconds;
    group_sum += static_cast<double>(r.group_size);
    busy_s += w * r.seconds;
    invocations += w;
    if (!r.outcome.cached_stages.empty()) hits += w;

    const double cycles = static_cast<double>(r.outcome.flow.sim.num_cycles);
    sim_s += w * r.outcome.stage_seconds("simulate");
    lut_cycles += cycles * r.outcome.flow.mapped.num_luts;
    const LaneDemand d = lane_demand(r);
    const double lanes = hlp::simd_lanes(d.mode);
    const double words =
        std::ceil(static_cast<double>(d.lanes_needed) / lanes);
    lanes_filled += cycles;
    lanes_total += d.seeds ? w * cycles * words * lanes : words * lanes;
  }
  for (const auto& stage : hlp::flow::Pipeline::stage_names())
    add("flow.stage." + stage + "_s", stage_s[stage], "s");
  for (const auto& profile : hlp::paper_benchmarks())
    add("flow.design_s." + profile.name, design_s[profile.name], "s");
  const double n = std::max<double>(1.0, static_cast<double>(results.size()));
  add("flow.group_size", group_sum / n, "jobs");
  add("flow.pool_busy_frac", ratio(busy_s, traced.wall_s * kThreads), "ratio");
  add("flow.stage_cache_hit_ratio", ratio(hits, invocations), "ratio");

  // ---- the SA tables the workload filled ---------------------------------
  std::vector<ExperimentRunner*> warm;
  for (std::size_t i = 0; i < results.size(); ++i) {
    ExperimentRunner* r = &wl.warm_runner(traced, i);
    if (std::find(warm.begin(), warm.end(), r) == warm.end()) warm.push_back(r);
  }
  std::vector<SaKey> keys;
  double sa_entries = 0.0;
  for (ExperimentRunner* r : warm) {
    const hlp::SaCache& cache = r->sa_cache(results.front().job.width);
    sa_entries += static_cast<double>(cache.size());
    for (const SaKey& k : table_keys(cache)) keys.push_back(k);
  }

  // ---- core: HLPower binding replayed on the warm table ------------------
  // ---- lopass: LOPASS binding replayed per design ------------------------
  double bind_ms = 0.0, edges = 0.0, binds = 0.0;
  double lopass_ms = 0.0, lopass_binds = 0.0;
  std::set<std::string> lopass_done;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Job& job = results[i].job;
    if (i > 0 && same_point(results[i - 1].job, job)) continue;
    hlp::flow::FlowContext& ctx = wl.warm_runner(traced, i).context_for(job);
    if (lopass_done.insert(job.benchmark).second) {
      Span span(trace, "lopass.bind " + job.benchmark, "lopass");
      const auto t0 = Clock::now();
      hlp::bind_fus_lopass(ctx.cdfg(), ctx.schedule(), ctx.regs(), ctx.rc(),
                           hlp::LopassParams{ctx.width()});
      lopass_ms += ms_since(t0);
      ++lopass_binds;
    }
    if (job.binder.name != "hlpower") continue;
    hlp::HlpowerParams params;
    params.weight = hlp::flow::edge_weight_params(job.binder);
    Span span(trace, "core.bind " + job.benchmark, "core");
    const auto t0 = Clock::now();
    const hlp::HlpowerResult res =
        hlp::bind_fus_hlpower(ctx.cdfg(), ctx.schedule(), ctx.regs(),
                              ctx.rc(), ctx.sa_cache(), params);
    bind_ms += ms_since(t0);
    edges += res.edges_evaluated;
    ++binds;
    tally.attempt();
    if (results[i].ok && !same_binding(res.fus, results[i].outcome.fus))
      tally.fail("core replay: " + job.benchmark +
                 " binding differs from the pipeline's");
  }

  // ---- one SA entry, layer by layer: rtl -> mapper -> power --------------
  std::sort(keys.begin(), keys.end(), [](const SaKey& x, const SaKey& y) {
    return std::tie(x.kind, x.a, x.b) < std::tie(y.kind, y.a, y.b);
  });
  keys.erase(std::unique(keys.begin(), keys.end(),
                         [](const SaKey& x, const SaKey& y) {
                           return std::tie(x.kind, x.a, x.b) ==
                                  std::tie(y.kind, y.a, y.b);
                         }),
             keys.end());
  const std::size_t sampled = std::min(kSampleKeys, keys.size());
  double rtl_ms = 0.0, enum_ms = 0.0, map_ms = 0.0, estimate_ms = 0.0;
  double entry_ms = 0.0, cuts = 0.0, nodes = 0.0, luts = 0.0;
  const hlp::MapParams sa_map;  // the SaCache's mapper configuration
  for (std::size_t s = 0; s < sampled; ++s) {
    const SaKey& key = keys[s * keys.size() / sampled];
    const int width = key.owner->width();
    std::ostringstream label;
    label << hlp::to_string(key.kind) << " " << key.a << "x" << key.b;
    Span entry_span(trace, "sa_entry " + label.str(), "power");

    auto t0 = Clock::now();
    const hlp::Netlist dp =
        hlp::make_partial_datapath(key.kind, key.a, key.b, width);
    rtl_ms += ms_since(t0);
    trace.add("rtl.partial_datapath", "rtl", t0, seconds_since(t0));

    t0 = Clock::now();
    const hlp::CutSet cut_set(dp, sa_map.cuts);
    enum_ms += ms_since(t0);
    trace.add("mapper.cut_enum", "mapper", t0, seconds_since(t0));
    for (const hlp::Gate& g : dp.gates()) {
      cuts += static_cast<double>(cut_set.cuts_of(g.out).size());
      ++nodes;
    }

    t0 = Clock::now();
    const hlp::MapResult mapped = hlp::tech_map(dp, sa_map);
    map_ms += ms_since(t0);
    trace.add("mapper.tech_map", "mapper", t0, seconds_since(t0));
    luts += mapped.num_luts;

    t0 = Clock::now();
    const hlp::ActivityResult act = hlp::estimate_activity(mapped.lut_netlist);
    estimate_ms += ms_since(t0);
    trace.add("power.estimate", "power", t0, seconds_since(t0));

    t0 = Clock::now();
    const double sa = key.owner->compute_uncached(key.kind, key.a, key.b);
    entry_ms += ms_since(t0);
    trace.add("power.compute_uncached", "power", t0, seconds_since(t0));

    tally.attempt();
    if (sa != key.sa || act.total_sa != key.sa)
      tally.fail("SA entry " + label.str() + " recomputes to another value");
  }
  const double m = std::max<double>(1.0, static_cast<double>(sampled));
  add("power.sa_entries", sa_entries, "count");
  add("power.sa_lookups_per_entry", ratio(edges, sa_entries), "ratio");
  add("power.sa_entry_ms", entry_ms / m, "ms");
  add("power.estimate_ms", estimate_ms / m, "ms");
  add("rtl.partial_datapath_ms", rtl_ms / m, "ms");
  add("mapper.cut_enum_ms", enum_ms / m, "ms");
  add("mapper.cuts_per_node", ratio(cuts, nodes), "ratio");
  add("mapper.cut_score_ms", (map_ms - enum_ms) / m, "ms");
  add("mapper.luts_per_entry", luts / m, "LUTs");
  add("core.bind_ms", ratio(bind_ms, binds), "ms");
  add("core.edges_evaluated", edges, "count");
  add("lopass.bind_ms", ratio(lopass_ms, lopass_binds), "ms");

  // ---- sim ---------------------------------------------------------------
  add("sim.ns_per_lut_cycle", ratio(sim_s * 1e9, lut_cycles), "ns");
  add("sim.lane_util", ratio(lanes_filled, lanes_total), "ratio");

  // ---- store: probes and publishes replayed from outside ----------------
  double find_ms = 0.0, object_kb = 0.0, finds = 0.0, publish_ms = 0.0;
  double store_hits = 0.0, store_misses = 0.0, store_rejected = 0.0;
  double publishes = 0.0;
  if (const std::string dir = wl.store_dir(); !dir.empty()) {
    ExperimentRunner& runner = *traced.runners.front();
    if (hlp::store::ArtifactStore* used = runner.artifact_store()) {
      store_hits = static_cast<double>(used->hits());
      store_misses = static_cast<double>(used->misses());
      store_rejected = static_cast<double>(used->rejected());
    }
    hlp::store::ArtifactStore probe(dir);
    std::vector<std::pair<hlp::store::ArtifactKey,
                          std::shared_ptr<const hlp::store::ArtifactStore::Entry>>>
        found;
    for (const JobResult& r : results) {
      const hlp::store::ArtifactKey key = runner.artifact_key_for(r.job);
      const auto t0 = Clock::now();
      auto entry = probe.find(key);
      find_ms += ms_since(t0);
      trace.add("store.find", "store", t0, seconds_since(t0));
      ++finds;
      if (!entry) continue;
      object_kb += static_cast<double>(fs::file_size(probe.object_path(key))) / 1024.0;
      found.emplace_back(key, std::move(entry));
    }
    const std::string pub_dir = scratch + "/publish";
    {
      hlp::store::ArtifactStore pub(pub_dir);
      for (const auto& [key, entry] : found) {
        const auto t0 = Clock::now();
        pub.publish(key, *entry);
        publish_ms += ms_since(t0);
        trace.add("store.publish", "store", t0, seconds_since(t0));
      }
      publishes = static_cast<double>(pub.publishes());
    }
    fs::remove_all(pub_dir);
    publish_ms = ratio(publish_ms, static_cast<double>(found.size()));
    object_kb = ratio(object_kb, static_cast<double>(found.size()));
  }
  add("store.find_ms", ratio(find_ms, finds), "ms");
  add("store.object_kb", object_kb, "KiB");
  add("store.hits", store_hits, "count");
  add("store.misses", store_misses, "count");
  add("store.rejected", store_rejected, "count");
  add("store.publish_ms", publish_ms, "ms");
  add("store.publishes", publishes, "count");
  return out;
}

}  // namespace perfbench
