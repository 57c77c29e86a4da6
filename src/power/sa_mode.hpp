// The HLP_SA_MODE knob: which switching-activity engine SaCache (and the
// flow layers above it) uses to fill its per-operation tables.
//
// Unlike HLP_SIMD — which only picks between bit-identical word
// widths — the SA mode changes *values*: the three engines answer the
// same question with different accuracy/cost trade-offs:
//
//   estimate  closed-form propagation of static signal probabilities
//             (fast, no glitch model — the seed default).
//   sim       seeded word-parallel Monte-Carlo over random stimulus
//             (accuracy scales with vector count and carries seed
//             variance).
//   exact     analytic transition probabilities from per-cone BDDs over
//             the support-reduced gate plan (src/power/exact_activity.hpp);
//             cones whose BDDs blow the HLP_EXACT_BUDGET node budget fall
//             back to the Monte-Carlo engine per cone.
//
// Because values differ between modes, every consumer that caches or
// serializes activity must resolve the mode *once* and pin it: SaCache
// tags its persisted tables and load() rejects a table of another mode,
// and the job manifest carries the writer's resolved mode so a reader
// never re-consults its own environment.
//
// Parsing is strict, like HLP_SIMD: unset/empty falls back, anything
// else must be one of the names above or the sweep dies loudly. There is
// no "auto" spelling — an unset knob means kEstimated; resolution of an
// *absent programmatic request* is the job of effective_sa_mode, which
// takes an optional so "caller didn't say" is distinguishable from any
// concrete mode.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace hlp {

enum class SaMode { kEstimated, kSimulated, kExact };

/// Every mode, in knob-listing order.
const std::vector<SaMode>& all_sa_modes();

/// Canonical knob spelling: "estimate", "sim", "exact".
const char* sa_mode_name(SaMode mode);

/// Strict parse of a knob value (the exact lowercase names above); throws
/// hlp::Error naming HLP_SA_MODE, the offending value and the accepted set.
SaMode parse_sa_mode(const std::string& value);

/// HLP_SA_MODE env override, else `fallback`. Unset/empty falls back;
/// garbage throws (strict, like simd_mode_from_env).
SaMode sa_mode_from_env(SaMode fallback = SaMode::kEstimated);

/// The mode a spec resolves to: an explicit request wins, an absent one
/// consults HLP_SA_MODE, an unset environment means kEstimated. Always
/// concrete — there is no deferred "auto" state for SA modes.
SaMode effective_sa_mode(std::optional<SaMode> requested);

/// HLP_EXACT_BUDGET env override, else `fallback`: the marginal BDD
/// node budget per cone before the exact engine falls back to
/// Monte-Carlo for that cone. Strict positive-integer parse like
/// jobs_from_env: unset/empty falls back, garbage / zero / negative /
/// overflow throw naming the variable.
int exact_budget_from_env(int fallback);

}  // namespace hlp
