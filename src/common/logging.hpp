/**
 * @file
 * Error-reporting helpers in the spirit of gem5's panic()/fatal().
 *
 * panic() marks simulator bugs (conditions that should be impossible no
 * matter what the user does); fatal() marks user errors (bad configuration,
 * malformed assembly, invalid production syntax). Both throw typed
 * exceptions so that library users and tests can intercept them. panic()
 * also prints `panic: ...` to stderr; fatal() prints nothing — a user
 * error is the caller's to report (a batch or served response carries it,
 * a command-line tool prints `fatal: ...` once at its top level).
 */

#ifndef DISE_COMMON_LOGGING_HPP
#define DISE_COMMON_LOGGING_HPP

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace dise {

/** Thrown by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Thrown by fatal(): the user supplied an invalid input or config. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** printf-style string formatting. */
std::string strFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an internal simulator bug and throw PanicError. */
[[noreturn]] void panic(const std::string &msg);

/** Throw FatalError for a user-level error (prints nothing). */
[[noreturn]] void fatal(const std::string &msg);

/** Print a non-fatal warning to stderr. */
void warn(const std::string &msg);

} // namespace dise

/** Assert an invariant; panics with location info when violated. */
#define DISE_ASSERT(cond, msg)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::dise::panic(::dise::strFormat(                                \
                "%s:%d: assertion '%s' failed: %s", __FILE__, __LINE__,     \
                #cond, std::string(msg).c_str()));                          \
        }                                                                   \
    } while (0)

#endif // DISE_COMMON_LOGGING_HPP
