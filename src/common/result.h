#ifndef DYNAPROX_COMMON_RESULT_H_
#define DYNAPROX_COMMON_RESULT_H_

#include <cassert>
#include <optional>
#include <utility>

#include "common/status.h"

namespace dynaprox {

// Result<T> holds either a value of type T or a non-OK Status; the library's
// value-or-error return type (Arrow-style).
//
// Usage:
//   Result<DpcKey> key = directory.Insert(id, ttl_micros);
//   if (!key.ok()) return key.status();
//   Use(*key);
template <typename T>
class Result {
 public:
  // Intentionally implicit so `return value;` and `return status;` both work
  // in functions returning Result<T>.
  Result(T value) : value_(std::move(value)) {}
  Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  // Returns the contained value, or `fallback` on error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace dynaprox

// Evaluates `rexpr` (a Result<T>); on error returns its Status, otherwise
// move-assigns the value into `lhs` (which must already be declared).
#define DYNAPROX_ASSIGN_OR_RETURN(lhs, rexpr)       \
  do {                                              \
    auto _dp_result = (rexpr);                      \
    if (!_dp_result.ok()) return _dp_result.status(); \
    lhs = std::move(_dp_result).value();            \
  } while (false)

#endif  // DYNAPROX_COMMON_RESULT_H_
