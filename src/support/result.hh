#ifndef FITS_SUPPORT_RESULT_HH_
#define FITS_SUPPORT_RESULT_HH_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

#include "support/status.hh"

namespace fits::support {

/**
 * A value-or-error result, used across module boundaries instead of
 * exceptions (firmware parsing in particular must report malformed
 * input as data, not control flow). Errors carry a typed Status
 * (stage + error code + message).
 */
template <typename T>
class Result
{
  public:
    /** Successful result. */
    static Result
    ok(T value)
    {
        Result r;
        r.value_ = std::move(value);
        return r;
    }

    /** Failed result carrying a typed status. */
    static Result
    error(Status status)
    {
        assert(!status.isOk());
        Result r;
        r.status_ = std::move(status);
        return r;
    }

    bool hasValue() const { return value_.has_value(); }
    explicit operator bool() const { return hasValue(); }

    /** Access the value; asserts on error results. */
    const T &
    value() const
    {
        assert(value_.has_value());
        return *value_;
    }

    T &
    value()
    {
        assert(value_.has_value());
        return *value_;
    }

    /** Move the value out; asserts on error results. */
    T
    take()
    {
        assert(value_.has_value());
        return std::move(*value_);
    }

    /** Typed status; Status::ok() for successful results. */
    const Status &status() const { return status_; }

    /** Error message; empty for successful results. */
    const std::string &errorMessage() const { return status_.message(); }

  private:
    Result() = default;
    std::optional<T> value_;
    Status status_;
};

} // namespace fits::support

#endif // FITS_SUPPORT_RESULT_HH_
