#include "common/strings.hpp"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <ios>
#include <sstream>

#include "common/error.hpp"

namespace hlp {

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t j = i;
    while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j]))) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::vector<std::string> split_on(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string fmt_fixed(double v, int decimals) {
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(decimals);
  oss << v;
  return oss.str();
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string fmt_hexfloat(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

namespace {

// Run a strto* parse of all of `s`: nullopt on an empty parse, trailing
// text or ERANGE.
template <typename Parse>
auto whole_token(const std::string& s, Parse parse)
    -> std::optional<decltype(parse(s.c_str(), nullptr))> {
  errno = 0;
  char* end = nullptr;
  const auto v = parse(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) return std::nullopt;
  return v;
}

}  // namespace

std::optional<long long> parse_i64(const std::string& s) {
  return whole_token(s, [](const char* p, char** end) {
    return std::strtoll(p, end, 10);
  });
}

std::optional<std::uint64_t> parse_u64(const std::string& s) {
  if (s.find('-') != std::string::npos) return std::nullopt;
  return whole_token(s, [](const char* p, char** end) {
    return static_cast<std::uint64_t>(std::strtoull(p, end, 10));
  });
}

std::optional<int> parse_int(const std::string& s) {
  const std::optional<long long> v = parse_i64(s);
  if (!v || *v < INT_MIN || *v > INT_MAX) return std::nullopt;
  return static_cast<int>(*v);
}

std::optional<double> parse_double(const std::string& s) {
  return whole_token(s, [](const char* p, char** end) {
    return std::strtod(p, end);
  });
}

int env_int(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (!env || *env == '\0') return fallback;
  const std::optional<int> v = parse_int(env);
  HLP_REQUIRE(v && *v >= 1, name << "='" << env
                                 << "' is not an integer in [1, " << INT_MAX
                                 << "]");
  return *v;
}

}  // namespace hlp
