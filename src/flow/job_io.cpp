#include "flow/job_io.hpp"

#include <cctype>
#include <fstream>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace hlp::flow {

namespace {

constexpr const char* kManifestMagic = "hlp-manifest";

bool needs_escape(unsigned char c) {
  return c == '%' || std::isspace(c) || !std::isprint(c);
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// ---- scalar parses (common/strings' strict codec, job_io's messages) -----

double parse_double(const std::string& s) {
  const std::optional<double> v = hlp::parse_double(s);
  HLP_REQUIRE(v, "bad double '" << s << "'");
  return *v;
}

std::uint64_t parse_u64(const std::string& s) {
  const std::optional<std::uint64_t> v = hlp::parse_u64(s);
  HLP_REQUIRE(v, "bad unsigned '" << s << "'");
  return *v;
}

int parse_int(const std::string& s) {
  const std::optional<int> v = hlp::parse_int(s);
  HLP_REQUIRE(v, "bad integer '" << s << "'");
  return *v;
}

const char* engine_name(SimEngine e) {
  return e == SimEngine::kScalar ? "scalar" : "batched";
}

SimEngine parse_engine(const std::string& s) {
  if (s == "scalar") return SimEngine::kScalar;
  if (s == "batched") return SimEngine::kBatched;
  HLP_REQUIRE(false, "unknown sim engine '" << s << "'");
}

// key=value fields of a record line (everything after the leading keyword).
// Unknown keys are kept (a newer writer may add fields; readers only
// require the keys they know).
class Fields {
 public:
  Fields(const std::vector<std::string>& toks, std::size_t first) {
    for (std::size_t i = first; i < toks.size(); ++i) {
      const auto eq = toks[i].find('=');
      HLP_REQUIRE(eq != std::string::npos,
                  "field '" << toks[i] << "' is not key=value");
      kv_[toks[i].substr(0, eq)] = toks[i].substr(eq + 1);
    }
  }

  const std::string& at(const std::string& key) const {
    auto it = kv_.find(key);
    HLP_REQUIRE(it != kv_.end(), "missing field '" << key << "'");
    return it->second;
  }

  double d(const std::string& key) const { return parse_double(at(key)); }
  int i(const std::string& key) const { return parse_int(at(key)); }
  std::uint64_t u(const std::string& key) const { return parse_u64(at(key)); }
  std::size_t z(const std::string& key) const {
    return static_cast<std::size_t>(parse_u64(at(key)));
  }
  bool b(const std::string& key) const {
    const std::string& v = at(key);
    HLP_REQUIRE(v == "0" || v == "1",
                "field '" << key << "=" << v << "' must be 0 or 1");
    return v == "1";
  }
  std::string s(const std::string& key) const { return decode_token(at(key)); }

 private:
  std::map<std::string, std::string> kv_;
};

// Reader of the non-blank lines of a stream, counting lines for error
// messages (see parse_lines).
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  // The next non-blank line; end of input throws, so a manifest cut short
  // before its footer is detected.
  std::string next_line() {
    std::string line;
    while (std::getline(is_, line)) {
      ++lineno_;
      if (!split_ws(line).empty()) return line;
    }
    HLP_REQUIRE(false, "truncated: input ends before the 'end' footer");
  }

  int lineno() const { return lineno_; }

 private:
  std::istream& is_;
  int lineno_ = 0;
};

// Run `parse` over the lines of `is`. Every hlp::Error it throws is
// re-thrown as "<source>: line N: <message>", N being the line being
// parsed, so a malformed input names itself and the place of the defect.
template <typename Parse>
auto parse_lines(std::istream& is, const std::string& source, Parse parse) {
  LineReader r(is);
  try {
    return parse(r);
  } catch (const Error& e) {
    std::ostringstream msg;
    msg << source;
    if (r.lineno() > 0) msg << ": line " << r.lineno();
    msg << ": " << e.what();
    throw Error(msg.str());
  }
}

}  // namespace

std::string encode_token(const std::string& s) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (needs_escape(u)) {
      out += '%';
      out += hex[u >> 4];
      out += hex[u & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

std::string decode_token(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out += s[i];
      continue;
    }
    HLP_REQUIRE(i + 2 < s.size() && hex_digit(s[i + 1]) >= 0 &&
                    hex_digit(s[i + 2]) >= 0,
                "malformed %-escape in '" << s << "'");
    out += static_cast<char>(hex_digit(s[i + 1]) * 16 + hex_digit(s[i + 2]));
    i += 2;
  }
  return out;
}

// ---- manifest ------------------------------------------------------------

void save_manifest(std::ostream& os, const std::vector<ManifestJob>& jobs) {
  os << kManifestMagic << " v1\n";
  os << "count " << jobs.size() << "\n";
  for (const ManifestJob& mj : jobs) {
    const Job& j = mj.job;
    os << "job index=" << mj.index
       << " benchmark=" << encode_token(j.benchmark)
       << " scheduler=" << encode_token(j.scheduler)
       << " binder=" << encode_token(j.binder.name)
       << " alpha=" << fmt_hexfloat(j.binder.alpha)
       << " beta_add=" << fmt_hexfloat(j.binder.beta_add)
       << " beta_mult=" << fmt_hexfloat(j.binder.beta_mult)
       << " refine=" << (j.binder.refine ? 1 : 0)
       << " adders=" << j.rc.adders << " mults=" << j.rc.multipliers
       << " width=" << j.width << " vectors=" << j.num_vectors
       << " seed=" << j.seed << " reg_seed=" << j.reg_seed
       << " min_latency=" << j.sched_spec.min_latency
       << " latency_slack=" << j.sched_spec.latency_slack
       << " engine=" << engine_name(j.sim_engine)
       << " simd=" << simd_mode_name(j.simd)
       // The SA mode is serialised RESOLVED (the writer's environment
       // applies here, once): unlike simd it changes values, so a
       // reader must never re-consult its own HLP_SA_MODE.
       << " sa=" << sa_mode_name(effective_sa_mode(j.sa))
       << " label=" << encode_token(j.label) << "\n";
  }
  os << "end " << kManifestMagic << " " << jobs.size() << "\n";
}

namespace {

std::vector<ManifestJob> read_manifest(LineReader& r) {
  const auto head = split_ws(r.next_line());
  HLP_REQUIRE(head.size() == 2 && head[0] == kManifestMagic && head[1] == "v1",
              "bad header (want '" << kManifestMagic << " v1')");
  const auto count = split_ws(r.next_line());
  HLP_REQUIRE(count.size() == 2 && count[0] == "count", "bad count line");
  const std::size_t n = static_cast<std::size_t>(parse_u64(count[1]));
  std::vector<ManifestJob> out;
  for (std::size_t k = 0; k < n; ++k) {
    const auto toks = split_ws(r.next_line());
    HLP_REQUIRE(toks[0] == "job", "expected 'job' line");
    const Fields f(toks, 1);
    ManifestJob mj;
    mj.index = f.z("index");
    Job& j = mj.job;
    j.benchmark = f.s("benchmark");
    j.scheduler = f.s("scheduler");
    j.binder.name = f.s("binder");
    j.binder.alpha = f.d("alpha");
    j.binder.beta_add = f.d("beta_add");
    j.binder.beta_mult = f.d("beta_mult");
    j.binder.refine = f.b("refine");
    j.rc.adders = f.i("adders");
    j.rc.multipliers = f.i("mults");
    j.width = f.i("width");
    j.num_vectors = f.i("vectors");
    j.seed = f.u("seed");
    j.reg_seed = f.u("reg_seed");
    j.sched_spec.min_latency = f.i("min_latency");
    j.sched_spec.latency_slack = f.i("latency_slack");
    j.sim_engine = parse_engine(f.at("engine"));
    j.simd = parse_simd_mode(f.at("simd"));
    j.sa = parse_sa_mode(f.at("sa"));
    j.label = f.s("label");
    out.push_back(std::move(mj));
  }
  const auto footer = split_ws(r.next_line());
  HLP_REQUIRE(footer.size() == 3 && footer[0] == "end" &&
                  footer[1] == kManifestMagic,
              "bad footer (want 'end " << kManifestMagic << " " << n << "')");
  HLP_REQUIRE(parse_u64(footer[2]) == n,
              "footer count " << footer[2] << " != declared count " << n);
  return out;
}

}  // namespace

std::vector<ManifestJob> load_manifest(std::istream& is) {
  return parse_lines(is, "manifest", read_manifest);
}

std::vector<ManifestJob> load_manifest_file(const std::string& path) {
  std::ifstream f(path);
  HLP_REQUIRE(f.good(), "cannot open manifest '" << path << "' for reading");
  return parse_lines(f, path, read_manifest);
}

// ---- equality ------------------------------------------------------------

bool same_outcome(const JobResult& a, const JobResult& b) {
  if (a.ok != b.ok || a.error != b.error) return false;
  if (!a.ok) return true;
  const PipelineOutcome& x = a.outcome;
  const PipelineOutcome& y = b.outcome;
  const DatapathStats& mx = x.flow.mux_stats;
  const DatapathStats& my = y.flow.mux_stats;
  const auto refine_eq = [&] {
    if (x.refined != y.refined) return false;
    if (!x.refined) return true;
    return x.refine.flips_applied == y.refine.flips_applied &&
           x.refine.passes == y.refine.passes &&
           x.refine.cost_before == y.refine.cost_before &&
           x.refine.cost_after == y.refine.cost_after;
  };
  return x.fus.fu_of_op == y.fus.fu_of_op &&
         x.fus.kind_of_fu == y.fus.kind_of_fu &&
         x.fus.flipped == y.fus.flipped && refine_eq() &&
         mx.largest_mux == my.largest_mux &&
         mx.mux_length == my.mux_length && mx.num_fus == my.num_fus &&
         mx.muxdiff_mean == my.muxdiff_mean &&
         mx.muxdiff_variance == my.muxdiff_variance &&
         mx.mux_size_a == my.mux_size_a && mx.mux_size_b == my.mux_size_b &&
         mx.muxdiff == my.muxdiff &&
         x.flow.mapped.num_luts == y.flow.mapped.num_luts &&
         x.flow.mapped.depth == y.flow.mapped.depth &&
         x.flow.clock_period_ns == y.flow.clock_period_ns &&
         x.flow.sim.toggles == y.flow.sim.toggles &&
         x.flow.sim.num_cycles == y.flow.sim.num_cycles &&
         x.flow.sim.total_transitions == y.flow.sim.total_transitions &&
         x.flow.sim.functional_transitions ==
             y.flow.sim.functional_transitions &&
         x.flow.report.dynamic_power_mw == y.flow.report.dynamic_power_mw &&
         x.flow.report.clock_period_ns == y.flow.report.clock_period_ns &&
         x.flow.report.num_luts == y.flow.report.num_luts &&
         x.flow.report.num_registers == y.flow.report.num_registers &&
         x.flow.report.toggle_rate_mps == y.flow.report.toggle_rate_mps &&
         x.flow.report.transitions_per_cycle ==
             y.flow.report.transitions_per_cycle &&
         x.flow.report.glitch_fraction == y.flow.report.glitch_fraction;
}

}  // namespace hlp::flow
