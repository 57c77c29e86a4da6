#include "power/sa_cache.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
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
      // computed under the same budget or merges would conflict.
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
  // Footer: load() skips it as a comment; merge_from requires it, so a
  // table cut short (crashed writer, partial copy) is detectable.
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
long long parse_int(const std::string& s, const char* field, const Where& at) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  HLP_REQUIRE(end != s.c_str() && *end == '\0' && errno != ERANGE,
              at << ": bad " << field << " '" << s << "'");
  return v;
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
  const long long a = parse_int(tok[1], "mux size", at);
  const long long b = parse_int(tok[2], "mux size", at);
  // The key packs each size into 20 bits (SaCache::key).
  HLP_REQUIRE(a >= 1 && b >= 1 && a <= 0xfffff && b <= 0xfffff,
              at << ": mux sizes (" << tok[1] << ", " << tok[2]
                 << ") out of range [1, " << 0xfffff << "]");
  e.a = static_cast<int>(a);
  e.b = static_cast<int>(b);
  errno = 0;
  char* end = nullptr;
  e.sa = std::strtod(tok[3].c_str(), &end);
  HLP_REQUIRE(end != tok[3].c_str() && *end == '\0' && errno != ERANGE &&
                  std::isfinite(e.sa),
              at << ": bad SA value '" << tok[3] << "'");
  return e;
}

}  // namespace

std::size_t SaCache::merge_from(std::istream& is, const std::string& what) {
  // Parse the whole file into a staging map first: a malformed or
  // truncated shard must not leave a half-merged table behind.
  std::map<std::uint64_t, double> staged;
  std::string line;
  bool saw_header = false;
  bool saw_footer = false;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const Where at{what, lineno};
    const auto tok = split_ws(line);
    if (tok.empty()) continue;
    if (tok[0] == "#") {
      if (lineno == 1) {
        // "# SaCache width=<w> ..." — reject a shard computed at another
        // datapath width before looking at any entry.
        HLP_REQUIRE(tok.size() >= 3 && tok[1] == "SaCache" &&
                        tok[2].rfind("width=", 0) == 0,
                    at << ": not an SaCache table (bad header '" << line
                       << "')");
        const long long w = parse_int(tok[2].substr(6), "header width", at);
        HLP_REQUIRE(w == width_, at << ": width " << w
                                    << " does not match this cache's width "
                                    << width_);
        // The SA mode changes entry *values*, so a cross-mode merge is a
        // configuration error, rejected here before any entry is staged.
        // Tables written before the mode tag existed are estimate-mode.
        std::string file_mode;
        for (std::size_t i = 3; i < tok.size(); ++i)
          if (tok[i].rfind("mode=", 0) == 0) file_mode = tok[i].substr(5);
        if (file_mode.empty()) {
          HLP_REQUIRE(mode_ == SaMode::kEstimated,
                      at << ": table carries no mode tag (legacy "
                            "estimate-mode table) but this cache's mode is '"
                         << sa_mode_name(mode_) << "'");
        } else {
          HLP_REQUIRE(file_mode == sa_mode_name(mode_),
                      at << ": mode '" << file_mode
                         << "' does not match this cache's mode '"
                         << sa_mode_name(mode_) << "'");
        }
        saw_header = true;
        continue;
      }
      if (tok.size() >= 3 && tok[1] == "end") {
        const long long footer = parse_int(tok[2], "footer count", at);
        HLP_REQUIRE(footer >= 0, at << ": bad footer count " << footer);
        const auto declared = static_cast<std::size_t>(footer);
        HLP_REQUIRE(declared == staged.size(),
                    at << ": footer declares " << declared
                       << " entries but the file carries " << staged.size());
        saw_footer = true;
        continue;
      }
      continue;  // other comments
    }
    HLP_REQUIRE(saw_header, what << ": missing '# SaCache' header");
    HLP_REQUIRE(!saw_footer, at << ": entries after the '# end' footer");
    const Entry e = parse_entry(tok, line, at);
    staged[key(e.kind, e.a, e.b)] = e.sa;
  }
  HLP_REQUIRE(saw_header, what << ": missing '# SaCache' header");
  HLP_REQUIRE(saw_footer, what << ": truncated — missing '# end' footer");

  std::size_t inserted = 0;
  for (const auto& [k, sa] : staged) {
    Shard& shard = shard_for(k);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto [it, fresh] = shard.table.emplace(k, sa);
    if (fresh) {
      ++inserted;
    } else {
      // Entries are deterministic functions of (kind, a, b) at one width
      // and configuration, so overlapping shards must agree exactly.
      const int kind = static_cast<int>(k >> 40);
      const int a = static_cast<int>((k >> 20) & 0xfffff);
      const int b = static_cast<int>(k & 0xfffff);
      HLP_REQUIRE(it->second == sa,
                  what << ": merge conflict on ("
                       << to_string(static_cast<OpKind>(kind)) << ", " << a
                       << ", " << b << "): table has " << it->second
                       << ", shard has " << sa
                       << " (shards of one run are deterministic and must "
                          "agree)");
    }
  }
  return inserted;
}

std::size_t SaCache::merge_from(const std::string& path) {
  std::ifstream f(path);
  HLP_REQUIRE(f.good(), "cannot open SA shard '" << path << "' for reading");
  return merge_from(f, path);
}

void SaCache::load(std::istream& is, const std::string& what) {
  // Same entry parser as merge_from; only the header and footer (comments
  // here) are optional, since legacy tables lack them. Staged like
  // merge_from, so a rejected table loads nothing.
  std::map<std::uint64_t, double> staged;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    std::string body = line;
    if (const auto hash = body.find('#'); hash != std::string::npos)
      body.resize(hash);
    const auto tok = split_ws(body);
    if (tok.empty()) continue;
    const Entry e = parse_entry(tok, line, Where{what, lineno});
    staged[key(e.kind, e.a, e.b)] = e.sa;
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
