// Golden pin of the SA table and the 4-LUT mappings behind it.
//
// tests/golden/sa_w8.txt holds, for a fixed key set at width 8, one line
// per key: "<kind> <nA> <nB> <sa> <luts> <hash>", where <sa> is printed
// exactly as SaCache::save() prints it (17 significant digits), <luts> is
// the mapped LUT count and <hash> the FNV-1a 64 hash of the mapped
// netlist's BLIF text. The test recomputes every line and compares the
// text byte for byte, so any change to a cut table, a cut choice or an SA
// bit shows up here. The file changes only together with an explained
// CHANGES.md entry.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "mapper/techmap.hpp"
#include "netlist/blif.hpp"
#include "power/sa_cache.hpp"
#include "rtl/partial_datapath.hpp"

namespace hlp {
namespace {

constexpr int kWidth = 8;

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// add/mult x (nA, nB) in {1, 2, 3, 5, 9}^2, plus one wide mux per port.
std::vector<std::tuple<OpKind, int, int>> golden_keys() {
  std::vector<std::tuple<OpKind, int, int>> keys;
  for (const OpKind kind : {OpKind::kAdd, OpKind::kMult})
    for (const int a : {1, 2, 3, 5, 9})
      for (const int b : {1, 2, 3, 5, 9}) keys.emplace_back(kind, a, b);
  keys.emplace_back(OpKind::kMult, 63, 1);
  keys.emplace_back(OpKind::kAdd, 1, 63);
  return keys;
}

std::string golden_line(const SaCache& cache, OpKind kind, int a, int b) {
  const double sa = cache.compute_uncached(kind, a, b);
  const MapResult mapped =
      tech_map(make_partial_datapath(kind, a, b, kWidth), MapParams{});
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(
                    fnv1a64(blif_to_string(mapped.lut_netlist))));
  std::ostringstream os;
  os.precision(17);  // as SaCache::save
  os << to_string(kind) << " " << a << " " << b << " " << sa << " "
     << mapped.num_luts << " " << hash << "\n";
  return os.str();
}

TEST(SaGolden, Width8TableAndMappingsMatchGoldenFile) {
  const auto path =
      std::filesystem::path(__FILE__).parent_path() / "golden" / "sa_w8.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream want;
  want << in.rdbuf();

  const SaCache cache(kWidth);
  std::string got;
  for (const auto& [kind, a, b] : golden_keys())
    got += golden_line(cache, kind, a, b);
  // Byte for byte; gtest prints a line diff on mismatch.
  EXPECT_EQ(got, want.str()) << path;
}

}  // namespace
}  // namespace hlp
