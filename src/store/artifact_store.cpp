#include "store/artifact_store.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <signal.h>
#include <sstream>
#include <unistd.h>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "flow/job_io.hpp"

namespace hlp::store {

namespace fs = std::filesystem;

namespace {

constexpr const char* kMagic = "hlp-artifact";
// Bumped whenever the header or payload layout changes; objects written
// under any other version are rejected (and swept by fsck --repair).
constexpr const char* kVersion = "v2";

// FNV-1a 64: the content address of a key and the payload checksum. Not
// cryptographic — the store defends against crashes and bit rot, not
// adversaries — but a 64-bit space over a handful of entries per sweep
// makes accidental collisions negligible (and a collision is handled:
// distinct keys keep the first owner).
std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Strict whole-token parses (common/strings), with the store's messages.
double parse_double(const std::string& s, const std::string& what) {
  const std::optional<double> v = hlp::parse_double(s);
  HLP_REQUIRE(v, "artifact " << what << ": bad double '" << s << "'");
  return *v;
}

std::uint64_t parse_u64(const std::string& s, const std::string& what) {
  const std::optional<std::uint64_t> v = hlp::parse_u64(s);
  HLP_REQUIRE(v, "artifact " << what << ": bad count '" << s << "'");
  return *v;
}

int parse_int(const std::string& s, const std::string& what) {
  const std::optional<int> v = hlp::parse_int(s);
  HLP_REQUIRE(v, "artifact " << what << ": bad integer '" << s << "'");
  return *v;
}

// Line cursor over a parsed byte range; every read names the source and
// the line it expected, so truncation errors point at the defect.
class Reader {
 public:
  Reader(const std::string& bytes, const std::string& what)
      : is_(bytes), what_(what) {}

  // Next raw line; throws on end of input.
  std::string raw(const char* expected) {
    std::string line;
    HLP_REQUIRE(std::getline(is_, line),
                "artifact " << what_ << ": truncated (expected " << expected
                            << " after line " << line_no_ << ")");
    ++line_no_;
    return line;
  }

  // Next line, tokenized; first token must be `head`.
  std::vector<std::string> expect(const std::string& head) {
    const std::string line = raw(("'" + head + "' line").c_str());
    auto tok = split_ws(line);
    HLP_REQUIRE(!tok.empty() && tok[0] == head,
                "artifact " << what_ << ": expected '" << head << "' on line "
                            << line_no_ << ", got '" << line << "'");
    return tok;
  }

  bool at_end() {
    std::string line;
    return !std::getline(is_, line);
  }

  const std::string& what() const { return what_; }

 private:
  std::istringstream is_;
  std::string what_;
  int line_no_ = 0;
};

void require_fields(const std::vector<std::string>& tok, std::size_t n,
                    const std::string& what) {
  HLP_REQUIRE(tok.size() == n, "artifact " << what << ": '" << tok[0]
                                           << "' line has " << tok.size() - 1
                                           << " fields, expected " << n - 1);
}

// --- vectors -------------------------------------------------------------

void save_int_vec(std::ostream& os, const char* head,
                  const std::vector<int>& v) {
  os << head << ' ' << v.size();
  for (const int x : v) os << ' ' << x;
  os << '\n';
}

std::vector<int> load_int_vec(Reader& r, const char* head) {
  const auto tok = r.expect(head);
  HLP_REQUIRE(tok.size() >= 2, "artifact " << r.what() << ": '" << head
                                           << "' line missing its count");
  const std::uint64_t n = parse_u64(tok[1], r.what());
  require_fields(tok, 2 + n, r.what());
  std::vector<int> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    v.push_back(parse_int(tok[2 + i], r.what()));
  return v;
}

void save_char_vec(std::ostream& os, const char* head,
                   const std::vector<char>& v) {
  os << head << ' ' << v.size();
  for (const char x : v) os << ' ' << static_cast<int>(x);
  os << '\n';
}

std::vector<char> load_char_vec(Reader& r, const char* head) {
  const auto ints = load_int_vec(r, head);
  return {ints.begin(), ints.end()};
}

// --- FuBinding -----------------------------------------------------------

void save_fus(std::ostream& os, const char* prefix, const FuBinding& fus) {
  os << prefix << "fus " << fus.fu_of_op.size();
  for (const int f : fus.fu_of_op) os << ' ' << f;
  os << '\n';
  os << prefix << "kinds " << fus.kind_of_fu.size();
  for (const OpKind k : fus.kind_of_fu) os << ' ' << to_string(k);
  os << '\n';
  save_char_vec(os, (std::string(prefix) + "flips").c_str(), fus.flipped);
}

OpKind parse_kind(const std::string& s, const std::string& what) {
  if (s == to_string(OpKind::kAdd)) return OpKind::kAdd;
  if (s == to_string(OpKind::kMult)) return OpKind::kMult;
  HLP_REQUIRE(false, "artifact " << what << ": unknown op kind '" << s << "'");
}

FuBinding load_fus(Reader& r, const char* prefix) {
  FuBinding fus;
  const std::string p(prefix);
  fus.fu_of_op = load_int_vec(r, (p + "fus").c_str());
  const auto tok = r.expect(p + "kinds");
  HLP_REQUIRE(tok.size() >= 2, "artifact " << r.what()
                                           << ": 'kinds' line missing count");
  const std::uint64_t n = parse_u64(tok[1], r.what());
  require_fields(tok, 2 + n, r.what());
  fus.kind_of_fu.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    fus.kind_of_fu.push_back(parse_kind(tok[2 + i], r.what()));
  fus.flipped = load_char_vec(r, (p + "flips").c_str());
  return fus;
}

// --- Netlist -------------------------------------------------------------

void save_netlist(std::ostream& os, const Netlist& n) {
  os << "netlist " << flow::encode_token(n.name()) << ' ' << n.num_nets()
     << ' ' << n.num_gates() << ' ' << n.num_latches() << ' '
     << n.outputs().size() << '\n';
  for (NetId id = 0; id < n.num_nets(); ++id)
    os << "net " << flow::encode_token(n.net_name(id)) << ' '
       << (n.is_input(id) ? 1 : 0) << '\n';
  for (const Gate& g : n.gates()) {
    os << "gate " << g.out << ' ' << g.tt.num_inputs() << ' ' << g.tt.bits()
       << ' ' << g.ins.size();
    for (const NetId in : g.ins) os << ' ' << in;
    os << '\n';
  }
  for (const Latch& l : n.latches()) os << "latch " << l.q << ' ' << l.d << '\n';
  save_int_vec(os, "outs", n.outputs());
}

Netlist load_netlist(Reader& r) {
  const auto hdr = r.expect("netlist");
  require_fields(hdr, 6, r.what());
  Netlist n(flow::decode_token(hdr[1]));
  const int nets = parse_int(hdr[2], r.what());
  const int gates = parse_int(hdr[3], r.what());
  const int latches = parse_int(hdr[4], r.what());
  const int outs = parse_int(hdr[5], r.what());
  HLP_REQUIRE(nets >= 0 && gates >= 0 && latches >= 0 && outs >= 0,
              "artifact " << r.what() << ": negative netlist counts");
  for (int id = 0; id < nets; ++id) {
    const auto tok = r.expect("net");
    require_fields(tok, 3, r.what());
    const std::string name = flow::decode_token(tok[1]);
    const int is_input = parse_int(tok[2], r.what());
    // Nets are serialised in id order, so re-adding in line order rebuilds
    // identical ids (inputs() is creation order, i.e. ascending too).
    const NetId got = is_input ? n.add_input(name) : n.add_net(name);
    HLP_REQUIRE(got == id, "artifact " << r.what()
                                       << ": net ids out of order");
  }
  for (int g = 0; g < gates; ++g) {
    const auto tok = r.expect("gate");
    HLP_REQUIRE(tok.size() >= 5, "artifact " << r.what()
                                             << ": short 'gate' line");
    const NetId out = parse_int(tok[1], r.what());
    const int k = parse_int(tok[2], r.what());
    const std::uint64_t bits = parse_u64(tok[3], r.what());
    const std::uint64_t nins = parse_u64(tok[4], r.what());
    require_fields(tok, 5 + nins, r.what());
    HLP_REQUIRE(k >= 0 && k <= kMaxTtInputs,
                "artifact " << r.what() << ": gate fanin " << k
                            << " out of range");
    std::vector<NetId> ins;
    ins.reserve(nins);
    for (std::uint64_t i = 0; i < nins; ++i)
      ins.push_back(parse_int(tok[5 + i], r.what()));
    n.add_gate(out, std::move(ins), TruthTable(k, bits));
  }
  for (int l = 0; l < latches; ++l) {
    const auto tok = r.expect("latch");
    require_fields(tok, 3, r.what());
    n.add_latch(parse_int(tok[1], r.what()), parse_int(tok[2], r.what()));
  }
  const std::vector<int> outputs = load_int_vec(r, "outs");
  HLP_REQUIRE(static_cast<int>(outputs.size()) == outs,
              "artifact " << r.what() << ": outs count disagrees with the "
                          << "netlist header");
  for (const NetId o : outputs) n.add_output(o);
  n.validate();
  return n;
}

// --- Entry payload -------------------------------------------------------

void save_entry(std::ostream& os, const ArtifactStore::Entry& e) {
  save_fus(os, "", e.fus);
  os << "refine " << (e.refined ? 1 : 0) << ' ' << e.refine.flips_applied
     << ' ' << e.refine.passes << ' ' << fmt_hexfloat(e.refine.cost_before)
     << ' ' << fmt_hexfloat(e.refine.cost_after) << '\n';
  save_fus(os, "r", e.refine.fus);
  os << "mux " << e.mux_stats.largest_mux << ' ' << e.mux_stats.mux_length
     << ' ' << e.mux_stats.num_fus << ' '
     << fmt_hexfloat(e.mux_stats.muxdiff_mean) << ' '
     << fmt_hexfloat(e.mux_stats.muxdiff_variance) << '\n';
  save_int_vec(os, "muxa", e.mux_stats.mux_size_a);
  save_int_vec(os, "muxb", e.mux_stats.mux_size_b);
  save_int_vec(os, "muxdiff", e.mux_stats.muxdiff);
  os << "clock " << fmt_hexfloat(e.clock_period_ns) << '\n';
  os << "map " << e.mapped.num_luts << ' ' << e.mapped.depth << '\n';
  os << "datapath " << e.datapath.width << ' ' << e.datapath.num_phases
     << '\n';
  save_int_vec(os, "datapos", e.datapath.data_input_pos);
  os << "controls " << e.datapath.controls.size() << '\n';
  for (const ControlGroup& c : e.datapath.controls) {
    os << "ctl " << flow::encode_token(c.name) << ' '
       << c.input_positions.size();
    for (const int p : c.input_positions) os << ' ' << p;
    os << ' ' << c.select_by_phase.size();
    for (const int s : c.select_by_phase) os << ' ' << s;
    os << '\n';
  }
  save_netlist(os, e.datapath.netlist);
  save_netlist(os, e.mapped.lut_netlist);
}

ArtifactStore::Entry load_entry(Reader& r) {
  ArtifactStore::Entry e;
  e.fus = load_fus(r, "");
  {
    const auto tok = r.expect("refine");
    require_fields(tok, 6, r.what());
    e.refined = parse_int(tok[1], r.what()) != 0;
    e.refine.flips_applied = parse_int(tok[2], r.what());
    e.refine.passes = parse_int(tok[3], r.what());
    e.refine.cost_before = parse_double(tok[4], r.what());
    e.refine.cost_after = parse_double(tok[5], r.what());
  }
  e.refine.fus = load_fus(r, "r");
  {
    const auto tok = r.expect("mux");
    require_fields(tok, 6, r.what());
    e.mux_stats.largest_mux = parse_int(tok[1], r.what());
    e.mux_stats.mux_length = parse_int(tok[2], r.what());
    e.mux_stats.num_fus = parse_int(tok[3], r.what());
    e.mux_stats.muxdiff_mean = parse_double(tok[4], r.what());
    e.mux_stats.muxdiff_variance = parse_double(tok[5], r.what());
  }
  e.mux_stats.mux_size_a = load_int_vec(r, "muxa");
  e.mux_stats.mux_size_b = load_int_vec(r, "muxb");
  e.mux_stats.muxdiff = load_int_vec(r, "muxdiff");
  {
    const auto tok = r.expect("clock");
    require_fields(tok, 2, r.what());
    e.clock_period_ns = parse_double(tok[1], r.what());
  }
  {
    const auto tok = r.expect("map");
    require_fields(tok, 3, r.what());
    e.mapped.num_luts = parse_int(tok[1], r.what());
    e.mapped.depth = parse_int(tok[2], r.what());
  }
  {
    const auto tok = r.expect("datapath");
    require_fields(tok, 3, r.what());
    e.datapath.width = parse_int(tok[1], r.what());
    e.datapath.num_phases = parse_int(tok[2], r.what());
  }
  e.datapath.data_input_pos = load_int_vec(r, "datapos");
  {
    const auto tok = r.expect("controls");
    require_fields(tok, 2, r.what());
    const std::uint64_t n = parse_u64(tok[1], r.what());
    e.datapath.controls.reserve(n);
    for (std::uint64_t c = 0; c < n; ++c) {
      const auto ctl = r.expect("ctl");
      HLP_REQUIRE(ctl.size() >= 3, "artifact " << r.what()
                                               << ": short 'ctl' line");
      ControlGroup group;
      group.name = flow::decode_token(ctl[1]);
      const std::uint64_t np = parse_u64(ctl[2], r.what());
      HLP_REQUIRE(ctl.size() >= 4 + np, "artifact " << r.what()
                                                    << ": short 'ctl' line");
      for (std::uint64_t i = 0; i < np; ++i)
        group.input_positions.push_back(parse_int(ctl[3 + i], r.what()));
      const std::uint64_t ns = parse_u64(ctl[3 + np], r.what());
      require_fields(ctl, 4 + np + ns, r.what());
      for (std::uint64_t i = 0; i < ns; ++i)
        group.select_by_phase.push_back(parse_int(ctl[4 + np + i], r.what()));
      e.datapath.controls.push_back(std::move(group));
    }
  }
  e.datapath.netlist = load_netlist(r);
  e.mapped.lut_netlist = load_netlist(r);
  return e;
}

std::string read_file(const std::string& path, bool* exists) {
  std::ifstream is(path, std::ios::binary);
  if (exists) *exists = is.good();
  if (!is.good()) return {};
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

// now - mtime in whole seconds, clamped at 0 (clock skew between the
// writer and this reader must not produce negative ages).
std::int64_t age_seconds_of(const fs::path& p) {
  std::error_code ec;
  const fs::file_time_type mtime = fs::last_write_time(p, ec);
  if (ec) return 0;
  const auto age = fs::file_time_type::clock::now() - mtime;
  const auto secs =
      std::chrono::duration_cast<std::chrono::seconds>(age).count();
  return secs < 0 ? 0 : static_cast<std::int64_t>(secs);
}

// All committed objects, sorted by filename so every report that walks
// the store is deterministic regardless of directory iteration order.
std::vector<fs::path> sorted_objects(const std::string& objects_dir) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(objects_dir, ec)) {
    if (de.is_regular_file() && de.path().extension() == ".art")
      files.push_back(de.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

// A staging dir is stale when the writer that owns it is provably gone:
// its `p<pid>-<n>` name carries a pid that no longer exists, or — for
// unparseable names and recycled-pid doubt — it has sat untouched far
// longer than any staged write lives (commits rename out immediately).
constexpr std::int64_t kStaleStagingAgeSeconds = 24 * 60 * 60;

bool staging_dir_is_stale(const fs::path& dir) {
  const std::string name = dir.filename().string();
  if (name.size() > 1 && name[0] == 'p') {
    errno = 0;
    char* end = nullptr;
    const long pid = std::strtol(name.c_str() + 1, &end, 10);
    if (end && *end == '-' && errno == 0 && pid > 0) {
      if (::kill(static_cast<pid_t>(pid), 0) == -1 && errno == ESRCH)
        return true;  // owner is dead; its litter can never be committed
      return false;   // owner (or a pid reuse) is alive — leave it alone
    }
  }
  return age_seconds_of(dir) > kStaleStagingAgeSeconds;
}

}  // namespace

std::string ArtifactKey::full() const {
  // Newline-joined (no component may contain one: scopes and binding
  // hashes are single-line by construction, mode names are identifiers).
  return scope + '\n' + binding + '\n' + sa + '\n' + simd;
}

std::string ArtifactStore::content_address(const ArtifactKey& key) {
  return hex64(fnv1a64(key.full()));
}

std::string ArtifactStore::object_path(const ArtifactKey& key) const {
  return objects_ + "/" + content_address(key) + ".art";
}

std::string ArtifactStore::serialize(const ArtifactKey& key,
                                     const Entry& entry) {
  std::ostringstream payload;
  save_entry(payload, entry);
  const std::string body = payload.str();
  const std::size_t lines =
      static_cast<std::size_t>(std::count(body.begin(), body.end(), '\n'));
  std::ostringstream os;
  os << kMagic << ' ' << kVersion << '\n';
  os << "scope " << flow::encode_token(key.scope) << '\n';
  os << "binding " << flow::encode_token(key.binding) << '\n';
  os << "sa " << flow::encode_token(key.sa) << '\n';
  os << "simd " << flow::encode_token(key.simd) << '\n';
  os << "payload " << lines << '\n';
  os << body;
  os << "sum " << hex64(fnv1a64(body)) << '\n';
  os << "end " << kMagic << ' ' << lines << '\n';
  return os.str();
}

LoadedArtifact ArtifactStore::parse(const std::string& bytes,
                                    const std::string& what) {
  Reader r(bytes, what);
  {
    const auto tok = r.expect(kMagic);
    require_fields(tok, 2, what);
    HLP_REQUIRE(tok[1] == kVersion, "artifact " << what
                                                << ": unsupported version '"
                                                << tok[1] << "'");
  }
  LoadedArtifact art;
  auto tag = [&](const char* head) {
    const auto tok = r.expect(head);
    require_fields(tok, 2, what);
    return flow::decode_token(tok[1]);
  };
  art.key.scope = tag("scope");
  art.key.binding = tag("binding");
  art.key.sa = tag("sa");
  art.key.simd = tag("simd");
  const auto counted = r.expect("payload");
  require_fields(counted, 2, what);
  const std::uint64_t lines = parse_u64(counted[1], what);
  // Capture the raw payload bytes first: the checksum must vet them
  // before any semantic parse, so a bit flip is reported as corruption
  // rather than whatever parse error it happens to trip.
  std::string body;
  for (std::uint64_t i = 0; i < lines; ++i) {
    body += r.raw("a payload line");
    body += '\n';
  }
  const auto sum = r.expect("sum");
  require_fields(sum, 2, what);
  HLP_REQUIRE(sum[1] == hex64(fnv1a64(body)),
              "artifact " << what << ": payload checksum mismatch");
  const auto footer = r.expect("end");
  require_fields(footer, 3, what);
  HLP_REQUIRE(footer[1] == kMagic && parse_u64(footer[2], what) == lines,
              "artifact " << what << ": bad footer");
  HLP_REQUIRE(r.at_end(), "artifact " << what << ": trailing bytes after the "
                                      << "footer");
  Reader payload(body, what);
  art.entry = load_entry(payload);
  return art;
}

ArtifactStore::ArtifactStore(const std::string& root) : root_(root) {
  HLP_REQUIRE(!root_.empty(), "artifact store root path is empty");
  objects_ = root_ + "/objects";
  // Per-handle staging dir: many processes (and many handles within one)
  // share a store, so staged writes never collide before their rename.
  static std::atomic<std::uint64_t> handle_seq{0};
  staging_ = root_ + "/staging/p" + std::to_string(::getpid()) + "-" +
             std::to_string(handle_seq.fetch_add(1));
  std::error_code ec;
  fs::create_directories(objects_, ec);
  HLP_REQUIRE(!ec && fs::is_directory(objects_),
              "cannot create artifact store objects dir '" << objects_ << "'"
                  << (ec ? ": " + ec.message() : std::string()));
  fs::create_directories(staging_, ec);
  HLP_REQUIRE(!ec && fs::is_directory(staging_),
              "cannot create artifact store staging dir '" << staging_ << "'"
                  << (ec ? ": " + ec.message() : std::string()));
}

ArtifactStore::~ArtifactStore() {
  std::error_code ec;
  fs::remove_all(staging_, ec);  // best effort; litter is harmless
}

std::shared_ptr<const ArtifactStore::Entry> ArtifactStore::load_strict(
    const ArtifactKey& key) const {
  const std::string path = object_path(key);
  bool exists = false;
  const std::string bytes = read_file(path, &exists);
  HLP_REQUIRE(exists, "cannot open artifact '" << path << "'");
  LoadedArtifact art = parse(bytes, "'" + path + "'");
  HLP_REQUIRE(art.key.scope == key.scope && art.key.binding == key.binding,
              "artifact '" << path << "': key mismatch (address collision or "
                           << "tampered tags)");
  auto tag_check = [&](const char* name, const std::string& got,
                       const std::string& want) {
    HLP_REQUIRE(got == want, "artifact '" << path << "': " << name
                                          << " mode tag '" << got
                                          << "' != requested '" << want
                                          << "'");
  };
  tag_check("sa", art.key.sa, key.sa);
  tag_check("simd", art.key.simd, key.simd);
  return std::make_shared<const Entry>(std::move(art.entry));
}

std::shared_ptr<const ArtifactStore::Entry> ArtifactStore::find(
    const ArtifactKey& key) {
  bool exists = false;
  read_file(object_path(key), &exists);
  if (!exists) {
    ++misses_;
    return nullptr;
  }
  try {
    auto entry = load_strict(key);
    ++hits_;
    return entry;
  } catch (const std::exception&) {
    // Corruption costs a recompute, never an error — and never partial
    // state: the bad object stays untouched until a publish repairs it.
    ++rejected_;
    return nullptr;
  }
}

void ArtifactStore::write_object(const std::string& path,
                                 const std::string& bytes) {
  const std::string tmp =
      staging_ + "/" + std::to_string(tmp_seq_.fetch_add(1)) + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os << bytes;
    HLP_REQUIRE(os.good(), "cannot write artifact staging file '" << tmp
                                                                  << "'");
  }
  HLP_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
              "cannot move '" << tmp << "' to '" << path << "'");
  ++publishes_;
}

void ArtifactStore::publish(const ArtifactKey& key, const Entry& entry) {
  const std::string blob = serialize(key, entry);
  const std::string path = object_path(key);
  bool exists = false;
  const std::string existing = read_file(path, &exists);
  if (exists) {
    if (existing == blob) return;  // overlap agrees bit for bit
    bool valid = true;
    ArtifactKey recorded;
    try {
      recorded = parse(existing, "'" + path + "'").key;
    } catch (const std::exception&) {
      valid = false;
    }
    if (valid) {
      // Same key, different bytes: every producer is deterministic, so two
      // configurations that disagree are sharing a store they must not.
      HLP_REQUIRE(recorded != key,
                  "artifact store conflict on '"
                      << path << "': an existing valid entry for the same key "
                      << "disagrees with the published bytes");
      // A genuine 64-bit address collision hashes the recorded key to this
      // very path — first owner wins. A recorded key that does NOT hash
      // here means the file was planted (renamed, tampered tags): that is
      // damage, not a collision, so fall through and repair by overwrite.
      if (object_path(recorded) == path) return;
    }
    // Invalid/misplaced existing bytes (crash litter, bit rot, planted
    // files): repair by overwrite.
  }
  write_object(path, blob);
}

std::size_t ArtifactStore::merge_from(const std::string& other_root) {
  const fs::path src = fs::path(other_root) / "objects";
  std::error_code ec;
  HLP_REQUIRE(fs::is_directory(src, ec),
              "artifact store merge source '" << other_root
                                              << "' has no objects/ dir");
  std::vector<fs::path> files;
  for (const auto& de : fs::directory_iterator(src)) {
    if (de.is_regular_file() && de.path().extension() == ".art")
      files.push_back(de.path());
  }
  std::sort(files.begin(), files.end());
  // Stage strictly before writing anything: a corrupt source entry or an
  // overlap conflict rejects the whole merge with this store untouched.
  struct Staged {
    ArtifactKey key;
    std::string bytes;
  };
  std::vector<Staged> staged;
  staged.reserve(files.size());
  for (const auto& file : files) {
    bool exists = false;
    const std::string bytes = read_file(file.string(), &exists);
    HLP_REQUIRE(exists, "cannot open artifact '" << file.string() << "'");
    LoadedArtifact art = parse(bytes, "'" + file.string() + "'");
    HLP_REQUIRE(content_address(art.key) + ".art" == file.filename().string(),
                "artifact '" << file.string()
                             << "': file name does not match its content "
                             << "address (renamed or tampered)");
    staged.push_back({std::move(art.key), std::move(bytes)});
  }
  std::vector<const Staged*> writes;
  for (const Staged& s : staged) {
    const std::string path = object_path(s.key);
    bool exists = false;
    const std::string existing = read_file(path, &exists);
    if (exists) {
      if (existing == s.bytes) continue;
      bool valid = true;
      ArtifactKey recorded;
      try {
        recorded = parse(existing, "'" + path + "'").key;
      } catch (const std::exception&) {
        valid = false;
      }
      if (valid) {
        HLP_REQUIRE(recorded != s.key,
                    "artifact store merge conflict on '"
                        << path << "': the source entry disagrees with an "
                        << "existing valid entry for the same key");
        continue;  // address collision: keep ours
      }
    }
    writes.push_back(&s);
  }
  for (const Staged* s : writes) write_object(object_path(s->key), s->bytes);
  return writes.size();
}

std::size_t ArtifactStore::size() const {
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(objects_, ec)) {
    if (de.is_regular_file() && de.path().extension() == ".art") ++n;
  }
  return n;
}

std::vector<ObjectInfo> ArtifactStore::enumerate() const {
  std::vector<ObjectInfo> out;
  for (const fs::path& p : sorted_objects(objects_)) {
    ObjectInfo info;
    info.path = p.string();
    info.address = p.stem().string();
    std::error_code ec;
    const std::uintmax_t bytes = fs::file_size(p, ec);
    info.bytes = ec ? 0 : bytes;
    info.age_seconds = age_seconds_of(p);
    out.push_back(std::move(info));
  }
  return out;
}

std::size_t ArtifactStore::sweep_stale_staging() {
  std::size_t removed = 0;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(root_ + "/staging", ec)) {
    if (!de.is_directory()) continue;
    if (de.path() == fs::path(staging_)) continue;  // never our own
    if (!staging_dir_is_stale(de.path())) continue;
    std::error_code rec;
    fs::remove_all(de.path(), rec);
    if (!rec) ++removed;
  }
  return removed;
}

FsckReport ArtifactStore::fsck(bool repair) {
  FsckReport report;
  for (const fs::path& p : sorted_objects(objects_)) {
    ++report.scanned;
    std::string defect;
    try {
      bool exists = false;
      const std::string bytes = read_file(p.string(), &exists);
      HLP_REQUIRE(exists, "cannot open artifact '" << p.string() << "'");
      const LoadedArtifact art = parse(bytes, "'" + p.string() + "'");
      HLP_REQUIRE(
          content_address(art.key) + ".art" == p.filename().string(),
          "artifact '" << p.string() << "': file name does not match its "
                       << "content address (renamed or tampered)");
      ++report.valid;
      continue;
    } catch (const std::exception& e) {
      defect = e.what();
    }
    report.rejected.push_back(p.string() + ": " + defect);
    if (repair) {
      std::error_code ec;
      if (fs::remove(p, ec) && !ec) ++report.repaired;
    }
  }
  if (repair) report.staging_removed = sweep_stale_staging();
  return report;
}

GcReport ArtifactStore::gc(const GcOptions& opt) {
  GcReport report;
  std::vector<fs::path> drop;
  for (const fs::path& p : sorted_objects(objects_)) {
    ++report.scanned;
    bool valid = true;
    try {
      bool exists = false;
      const std::string bytes = read_file(p.string(), &exists);
      HLP_REQUIRE(exists, "cannot open artifact '" << p.string() << "'");
      const LoadedArtifact art = parse(bytes, "'" + p.string() + "'");
      HLP_REQUIRE(content_address(art.key) + ".art" == p.filename().string(),
                  "artifact '" << p.string() << "': misplaced");
    } catch (const std::exception&) {
      valid = false;
    }
    if (!valid) {
      ++report.dropped_invalid;
      drop.push_back(p);
    } else if (opt.live_addresses &&
               !opt.live_addresses->count(p.stem().string())) {
      ++report.dropped_unreferenced;
      drop.push_back(p);
    } else if (opt.max_age_seconds >= 0 &&
               age_seconds_of(p) > opt.max_age_seconds) {
      ++report.dropped_aged;
      drop.push_back(p);
    } else {
      ++report.kept;
    }
  }
  if (!opt.dry_run) {
    for (const fs::path& p : drop) {
      std::error_code ec;
      fs::remove(p, ec);
    }
    report.staging_removed = sweep_stale_staging();
  }
  return report;
}

}  // namespace hlp::store
