// Assertion and error-handling primitives used across the ARCANE simulator.
//
// Two categories are distinguished (per the C++ Core Guidelines E.* rules):
//  * ARCANE_CHECK  -- recoverable, user-facing precondition violations
//                     (bad configuration, malformed programs). Throws
//                     arcane::Error which callers may catch.
//  * ARCANE_ASSERT -- internal invariants. Throws arcane::AssertionError so
//                     that unit tests can exercise invariant violations
//                     without aborting the test binary.
#ifndef ARCANE_COMMON_ASSERT_HPP_
#define ARCANE_COMMON_ASSERT_HPP_

#include <sstream>
#include <stdexcept>
#include <string>

namespace arcane {

/// Base class for all recoverable errors raised by the ARCANE library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when an internal invariant is violated (a simulator bug, not a
/// user error). Deliberately distinct from Error so tests can tell the two
/// apart.
class AssertionError : public std::logic_error {
 public:
  explicit AssertionError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] inline void throw_check_failure(const char* file, int line,
                                             const char* expr,
                                             const std::string& msg) {
  std::ostringstream os;
  os << file << ':' << line << ": check failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

[[noreturn]] inline void throw_assert_failure(const char* file, int line,
                                              const char* expr,
                                              const std::string& msg) {
  std::ostringstream os;
  os << file << ':' << line << ": internal invariant violated: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw AssertionError(os.str());
}

}  // namespace detail
}  // namespace arcane

#define ARCANE_CHECK(cond, msg)                                             \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::arcane::detail::throw_check_failure(__FILE__, __LINE__, #cond,      \
                                            (::std::ostringstream{} << msg) \
                                                .str());                    \
    }                                                                       \
  } while (false)

#define ARCANE_ASSERT(cond, msg)                                             \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::arcane::detail::throw_assert_failure(__FILE__, __LINE__, #cond,      \
                                             (::std::ostringstream{} << msg) \
                                                 .str());                    \
    }                                                                        \
  } while (false)

#endif  // ARCANE_COMMON_ASSERT_HPP_
