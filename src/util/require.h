// Invariant checking helpers (always on, including release builds).
//
// The simulator is deterministic, so a violated invariant is a programming
// error that should surface immediately rather than corrupt an experiment.
//
// Checks sit on the hottest paths of the engine, so a passing check with a
// literal message costs a branch and nothing else: the const char* overloads
// build no std::string unless the check fails. The std::string overloads
// serve messages assembled at run time.
#ifndef MCC_UTIL_REQUIRE_H
#define MCC_UTIL_REQUIRE_H

#include <sstream>
#include <stdexcept>
#include <string>

namespace mcc::util {

/// Thrown when a checked invariant fails.
class invariant_error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

template <typename Message, typename T>
[[noreturn]] void fail_with_context(const Message& what, const T& context) {
  std::ostringstream os;
  os << what << " (" << context << ")";
  throw invariant_error(os.str());
}

}  // namespace detail

/// Checks a precondition/invariant; throws invariant_error on failure.
inline void require(bool condition, const char* what) {
  if (!condition) throw invariant_error(what);
}
inline void require(bool condition, const std::string& what) {
  if (!condition) throw invariant_error(what);
}

/// require() with value context appended to the message.
template <typename T>
void require(bool condition, const char* what, const T& context) {
  if (!condition) detail::fail_with_context(what, context);
}
template <typename T>
void require(bool condition, const std::string& what, const T& context) {
  if (!condition) detail::fail_with_context(what, context);
}

}  // namespace mcc::util

#endif  // MCC_UTIL_REQUIRE_H
