#include "common/error.hpp"

namespace hlp::detail {

void throw_error(const char* file, int line, const char* cond,
                 const std::string& msg) {
  if (!file && !msg.empty()) throw Error(msg);
  std::ostringstream oss;
  if (file) oss << file << ":" << line << ": ";
  oss << "check `" << cond << "` failed";
  if (!msg.empty()) oss << ": " << msg;
  throw Error(oss.str());
}

}  // namespace hlp::detail
