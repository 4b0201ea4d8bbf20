// Lightweight contract checking used across the library.
//
// PITFALLS_REQUIRE guards preconditions on public API boundaries and throws
// std::invalid_argument; PITFALLS_ENSURE guards internal invariants and
// throws std::logic_error. Both stay enabled in release builds: every caller
// of this library is an experiment harness where a silent out-of-contract
// call corrupts a measurement.
//
// PITFALLS_REQUIRE_INPUT refuses input from outside the program (a wire
// request, a job's fault policy) and throws std::invalid_argument carrying
// the message alone: the refusal a client reads names no source file, so it
// is the same wherever the program was built.
//
// Contract failure messages carry the enclosing function name (via
// __func__) next to file:line, so a contract tripping inside a pooled
// worker — where the calling stack is the pool's, not the experiment's —
// still names the API whose contract was violated.
#pragma once

#include <stdexcept>
#include <string>

namespace pitfalls::support {

inline std::string contract_message(const char* kind, const char* expr,
                                    const char* file, int line,
                                    const char* func,
                                    const std::string& msg) {
  std::string out(kind);
  out += ": ";
  out += expr;
  out += " in ";
  out += func;
  out += " at ";
  out += file;
  out += ":";
  out += std::to_string(line);
  if (!msg.empty()) {
    out += " — ";
    out += msg;
  }
  return out;
}

[[noreturn]] inline void require_failed(const char* expr, const char* file,
                                        int line, const char* func,
                                        const std::string& msg) {
  throw std::invalid_argument(
      contract_message("precondition failed", expr, file, line, func, msg));
}

[[noreturn]] inline void input_refused(const std::string& msg) {
  throw std::invalid_argument(msg);
}

[[noreturn]] inline void ensure_failed(const char* expr, const char* file,
                                       int line, const char* func,
                                       const std::string& msg) {
  throw std::logic_error(
      contract_message("invariant failed", expr, file, line, func, msg));
}

}  // namespace pitfalls::support

#define PITFALLS_REQUIRE(expr, msg)                                        \
  do {                                                                     \
    if (!(expr))                                                           \
      ::pitfalls::support::require_failed(#expr, __FILE__, __LINE__,       \
                                          __func__, msg);                  \
  } while (false)

#define PITFALLS_REQUIRE_INPUT(expr, msg)                                  \
  do {                                                                     \
    if (!(expr)) ::pitfalls::support::input_refused(msg);                  \
  } while (false)

#define PITFALLS_ENSURE(expr, msg)                                        \
  do {                                                                    \
    if (!(expr))                                                          \
      ::pitfalls::support::ensure_failed(#expr, __FILE__, __LINE__,       \
                                         __func__, msg);                  \
  } while (false)
