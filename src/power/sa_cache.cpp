#include "power/sa_cache.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "power/activity.hpp"
#include "power/exact_activity.hpp"
#include "rtl/partial_datapath.hpp"

namespace hlp {

SaCache::SaCache(int width, MapParams map_params, SaMode mode, int sim_vectors,
                 std::uint64_t sim_seed)
    : width_(width),
      map_params_(map_params),
      mode_(mode),
      sim_vectors_(sim_vectors),
      sim_seed_(sim_seed),
      // Resolve the budget once, here: every entry of one cache must be
      // computed under the same budget.
      exact_budget_(mode == SaMode::kExact
                        ? exact_budget_from_env(kDefaultExactBudget)
                        : kDefaultExactBudget) {
  HLP_REQUIRE(width >= 1, "width must be >= 1");
  HLP_REQUIRE(sim_vectors >= 1, "sim_vectors must be >= 1");
}

std::uint64_t SaCache::key(OpKind kind, int a, int b) {
  return (static_cast<std::uint64_t>(op_kind_index(kind)) << 40) |
         (static_cast<std::uint64_t>(a) << 20) | static_cast<std::uint64_t>(b);
}

SaCache::Shard& SaCache::shard_for(std::uint64_t key) const {
  // Fibonacci mixing: consecutive (kind, a, b) keys spread across shards.
  return shards_[((key * 0x9e3779b97f4a7c15ull) >> 48) % kNumShards];
}

double SaCache::compute_uncached(OpKind kind, int n_mux_a, int n_mux_b) const {
  const Netlist dp = make_partial_datapath(kind, n_mux_a, n_mux_b, width_);
  const MapResult mapped = tech_map(dp, map_params_);
  if (mode_ == SaMode::kSimulated)
    return simulate_activity(mapped.lut_netlist, sim_vectors_, sim_seed_)
        .total_sa;
  if (mode_ == SaMode::kExact) {
    ExactActivityOptions opt;
    opt.node_budget = exact_budget_;
    opt.fallback_vectors = sim_vectors_;
    opt.fallback_seed = sim_seed_;
    return exact_activity(mapped.lut_netlist, opt).total_sa;
  }
  return estimate_activity(mapped.lut_netlist).total_sa;
}

double SaCache::switching_activity(OpKind kind, int n_mux_a, int n_mux_b) {
  HLP_REQUIRE(n_mux_a >= 1 && n_mux_b >= 1, "mux sizes must be >= 1");
  const std::uint64_t k = key(kind, n_mux_a, n_mux_b);
  Shard& shard = shard_for(k);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.table.find(k);
    if (it != shard.table.end()) return it->second;
  }
  // Compute outside the lock so concurrent misses run in parallel. The
  // computation is deterministic, so a racing duplicate for the same key
  // produces the identical value; first insertion wins.
  const double sa = compute_uncached(kind, n_mux_a, n_mux_b);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto [it, inserted] = shard.table.emplace(k, sa);
  if (inserted) ++shard.misses;
  return it->second;
}

std::size_t SaCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.table.size();
  }
  return total;
}

std::uint64_t SaCache::misses() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.misses;
  }
  return total;
}

void SaCache::precompute(int max_mux_a, int max_mux_b) {
  for (int kind = 0; kind < kNumOpKinds; ++kind)
    for (int a = 1; a <= max_mux_a; ++a)
      for (int b = 1; b <= max_mux_b; ++b)
        switching_activity(static_cast<OpKind>(kind), a, b);
}

void SaCache::save(std::ostream& os) const {
  // Snapshot into one ordered map so the file is stable across shard
  // layouts and hash orders.
  std::map<std::uint64_t, double> snapshot;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    snapshot.insert(shard.table.begin(), shard.table.end());
  }
  os << "# SaCache width=" << width_ << " k=" << map_params_.cuts.k
     << " mode=" << sa_mode_name(mode_) << "\n";
  os.precision(17);  // bit-exact double round trip
  for (const auto& [k, sa] : snapshot) {
    const int kind = static_cast<int>(k >> 40);
    const int a = static_cast<int>((k >> 20) & 0xfffff);
    const int b = static_cast<int>(k & 0xfffff);
    os << to_string(static_cast<OpKind>(kind)) << " " << a << " " << b << " "
       << sa << "\n";
  }
  // Footer: load() checks its count against the entries it read.
  os << "# end " << snapshot.size() << "\n";
}

namespace {

// "<source>: line N" — the prefix of every parse error.
struct Where {
  const std::string& source;
  std::size_t line;
};

std::ostream& operator<<(std::ostream& os, const Where& w) {
  return os << w.source << ": line " << w.line;
}

// Whole-token integer: no trailing junk, no overflow.
long long parse_i64(const std::string& s, const char* field, const Where& at) {
  const std::optional<long long> v = hlp::parse_i64(s);
  HLP_REQUIRE(v, at << ": bad " << field << " '" << s << "'");
  return *v;
}

// One "<kind> <nA> <nB> <sa>" table entry, every token parsed in full.
struct Entry {
  OpKind kind;
  int a;
  int b;
  double sa;
};

Entry parse_entry(const std::vector<std::string>& tok, const std::string& line,
                  const Where& at) {
  HLP_REQUIRE(tok.size() == 4, at << ": needs 4 fields: '" << line << "'");
  Entry e{};
  if (tok[0] == "add")
    e.kind = OpKind::kAdd;
  else if (tok[0] == "mult")
    e.kind = OpKind::kMult;
  else
    HLP_REQUIRE(false, at << ": unknown op kind '" << tok[0] << "'");
  const long long a = parse_i64(tok[1], "mux size", at);
  const long long b = parse_i64(tok[2], "mux size", at);
  // The key packs each size into 20 bits (SaCache::key).
  HLP_REQUIRE(a >= 1 && b >= 1 && a <= 0xfffff && b <= 0xfffff,
              at << ": mux sizes (" << tok[1] << ", " << tok[2]
                 << ") out of range [1, " << 0xfffff << "]");
  e.a = static_cast<int>(a);
  e.b = static_cast<int>(b);
  const std::optional<double> sa = hlp::parse_double(tok[3]);
  HLP_REQUIRE(sa && std::isfinite(*sa),
              at << ": bad SA value '" << tok[3] << "'");
  e.sa = *sa;
  return e;
}

// "# SaCache width=<w> k=<k> [mode=<m>]" (`note` is the comment's tokens
// after '#'): a table computed at another datapath width or under another
// SA backend carries different values for the same keys.
void check_header(const std::vector<std::string>& note,
                  const std::string& line, const Where& at, int width,
                  SaMode mode) {
  HLP_REQUIRE(note.size() >= 2 && note[1].rfind("width=", 0) == 0,
              at << ": not an SaCache table (bad header '" << line << "')");
  const long long w = parse_i64(note[1].substr(6), "header width", at);
  HLP_REQUIRE(w == width, at << ": width " << w
                             << " does not match this cache's width "
                             << width);
  std::string file_mode;
  for (std::size_t i = 2; i < note.size(); ++i)
    if (note[i].rfind("mode=", 0) == 0) file_mode = note[i].substr(5);
  // Tables written before the mode tag existed are estimate-mode.
  if (file_mode.empty()) {
    HLP_REQUIRE(mode == SaMode::kEstimated,
                at << ": table carries no mode tag (legacy estimate-mode "
                      "table) but this cache's mode is '"
                   << sa_mode_name(mode) << "'");
  } else {
    HLP_REQUIRE(file_mode == sa_mode_name(mode),
                at << ": mode '" << file_mode
                   << "' does not match this cache's mode '"
                   << sa_mode_name(mode) << "'");
  }
}

}  // namespace

void SaCache::load(std::istream& is, const std::string& what) {
  // Stage every entry first, so a rejected table loads nothing.
  std::map<std::uint64_t, double> staged;
  std::size_t entries = 0;
  bool saw_footer = false;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const Where at{what, lineno};
    const std::size_t hash = line.find('#');
    const auto tok = split_ws(std::string_view(line).substr(0, hash));
    if (!tok.empty()) {
      HLP_REQUIRE(!saw_footer, at << ": entries after the '# end' footer");
      const Entry e = parse_entry(tok, line, at);
      staged[key(e.kind, e.a, e.b)] = e.sa;
      ++entries;
      continue;
    }
    if (hash == std::string::npos) continue;
    // A comment line: the header and the footer are checked, any other
    // comment is skipped.
    const auto note = split_ws(std::string_view(line).substr(hash + 1));
    if (note.empty()) continue;
    if (note[0] == "SaCache") {
      check_header(note, line, at, width_, mode_);
    } else if (note[0] == "end") {
      HLP_REQUIRE(note.size() == 2, at << ": bad footer '" << line << "'");
      const long long footer = parse_i64(note[1], "footer count", at);
      HLP_REQUIRE(footer >= 0 && static_cast<std::size_t>(footer) == entries,
                  at << ": footer declares " << footer
                     << " entries but the file carries " << entries);
      saw_footer = true;
    }
  }
  for (const auto& [k, sa] : staged) {
    Shard& shard = shard_for(k);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.table[k] = sa;
  }
}

void SaCache::save_file(const std::string& path) const {
  std::ofstream f(path);
  HLP_REQUIRE(f.good(), "cannot open '" << path << "' for writing");
  save(f);
}

void SaCache::load_file(const std::string& path) {
  std::ifstream f(path);
  HLP_REQUIRE(f.good(), "cannot open '" << path << "' for reading");
  load(f, path);
}

}  // namespace hlp
