// Small string utilities shared across the library (tokenising BLIF/CDFG
// text formats, formatting report values) and the one strict number codec
// of every persisted text format (job manifests, artifact-store objects,
// SA tables, HLP_* env knobs).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hlp {

/// Split on whitespace, dropping empty tokens.
std::vector<std::string> split_ws(std::string_view s);

/// Split on a single character delimiter; keeps empty fields.
std::vector<std::string> split_on(std::string_view s, char delim);

/// Trim ASCII whitespace from both ends.
std::string trim(std::string_view s);

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Format a double with fixed decimals (report printing).
std::string fmt_fixed(double v, int decimals);

/// Join tokens with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Hexfloat text of `v`: parse_double reads it back bit for bit.
std::string fmt_hexfloat(double v);

/// Whole-token number parsing. Each returns std::nullopt unless ALL of `s`
/// is one base-10 number (strtoll/strtoull/strtod syntax, hexfloat
/// included for doubles) that fits the result type; callers phrase the
/// error with their own context.
std::optional<long long> parse_i64(const std::string& s);
/// Unsigned: a leading '-' is rejected, not wrapped.
std::optional<std::uint64_t> parse_u64(const std::string& s);
/// Signed, in [INT_MIN, INT_MAX].
std::optional<int> parse_int(const std::string& s);
/// Rejects overflow (ERANGE); infinities and NaNs spelled out still parse.
std::optional<double> parse_double(const std::string& s);

/// Strict positive-integer env knob, the shared parser behind HLP_JOBS,
/// HLP_VECTORS and HLP_EXACT_BUDGET (docs/env-vars.md): unset or empty
/// returns `fallback`; anything else must parse exactly as an integer in
/// [1, INT_MAX] or hlp::Error names the variable and offending value.
int env_int(const char* name, int fallback);

}  // namespace hlp
