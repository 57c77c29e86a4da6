// Per-layer metrics of the traced run. Flow numbers come from the traced
// pass's results; the inner layers (rtl, mapper, power, core, lopass,
// store) are timed by replaying their public calls from outside the
// library, on the workload's warm state, each inside a trace span.
#pragma once

#include <string>
#include <vector>

#include "checks.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every per-layer metric, in BENCHMARK.json order. Replays that cross-check
/// a value (SA entries recomputed, bindings re-derived) count in `tally`.
/// `scratch` is a private directory for the publish replay's store.
std::vector<Metric> layer_metrics(Workload& wl, const Pass& traced,
                                  Trace& trace, Tally& tally,
                                  const std::string& scratch);

/// The simulator word each job of `pass` resolved (effective_simd_mode for
/// its lane demand), as "<mode>/seed-lanes" or "<mode>/cycle-frames".
std::vector<std::string> resolved_simd_modes(const Pass& pass);

/// Span recorder for the traced pass: one span per pipeline invocation
/// (a coalesced seed group once) with its stages as children.
Workload::Callback job_span_recorder(Workload& wl, Trace& trace);

}  // namespace perfbench
