/**
 * @file
 * Error-handling primitives for the qzz library.
 *
 * Two failure categories, following the fatal-vs-panic convention of
 * large systems codebases:
 *  - fatal():  the *caller* made an error (bad argument, impossible
 *              configuration).  Throws qzz::UserError.
 *  - panic():  a qzz invariant was violated (library bug).  Throws
 *              qzz::InternalError.
 */

#ifndef QZZ_COMMON_ERROR_H
#define QZZ_COMMON_ERROR_H

#include <stdexcept>
#include <string>

namespace qzz {

/** Raised when a caller-supplied argument or configuration is invalid. */
class UserError : public std::runtime_error
{
  public:
    explicit UserError(const std::string &what) : std::runtime_error(what) {}
};

/** Raised when an internal invariant of the library is violated. */
class InternalError : public std::logic_error
{
  public:
    explicit InternalError(const std::string &what)
        : std::logic_error(what) {}
};

/**
 * Report a user-level error.
 *
 * @param msg description of what the user did wrong.
 * @throws UserError always.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Report a violated internal invariant.
 *
 * @param msg description of the broken invariant.
 * @throws InternalError always.
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Check a user-facing precondition; fatal() with @p msg on failure.
 *
 * The checks take a literal only: the simulation kernels run one per
 * call, millions of times per schedule, so the success path must not
 * build a std::string.  A message that needs formatting is built on
 * the failure branch instead: `if (!cond) fatal(...)`.
 */
inline void
require(bool cond, const char *msg)
{
    if (!cond)
        fatal(std::string(msg));
}

/** Check an internal invariant; panic() with @p msg on failure. */
inline void
ensure(bool cond, const char *msg)
{
    if (!cond)
        panic(std::string(msg));
}

} // namespace qzz

#endif // QZZ_COMMON_ERROR_H
