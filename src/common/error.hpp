// Error handling for the HLPower library.
//
// All invariant violations and malformed inputs throw hlp::Error, which
// carries a formatted message. The HLP_CHECK / HLP_REQUIRE macros are the
// preferred way to state invariants and input requirements in library code.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace hlp {

/// Exception type thrown on any library error (bad input, broken invariant,
/// I/O failure). Derives from std::runtime_error so callers can catch either.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
/// Throws hlp::Error. With a null `file` the message stands alone (input
/// errors); otherwise it is prefixed with `file:line` and the condition.
[[noreturn]] void throw_error(const char* file, int line, const char* cond,
                              const std::string& msg);
}  // namespace detail

}  // namespace hlp

// Shared body of HLP_CHECK and HLP_REQUIRE.
#define HLP_DETAIL_FAIL_IF_NOT(cond, msg, file_, line_)                    \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::ostringstream hlp_oss_;                                         \
      hlp_oss_ << msg; /* NOLINT */                                        \
      ::hlp::detail::throw_error(file_, line_, #cond, hlp_oss_.str());     \
    }                                                                      \
  } while (0)

/// Invariant check: throws hlp::Error when `cond` is false, naming the
/// library file:line and the condition. The streamed message is only
/// evaluated on failure.
#define HLP_CHECK(cond, msg) HLP_DETAIL_FAIL_IF_NOT(cond, msg, __FILE__, __LINE__)

/// Check for user-supplied input: the error carries the message alone,
/// which must name the offending input (a library source line means
/// nothing to whoever wrote the input).
#define HLP_REQUIRE(cond, msg) HLP_DETAIL_FAIL_IF_NOT(cond, msg, nullptr, 0)
