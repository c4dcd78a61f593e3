#ifndef CBIR_UTIL_RESULT_H_
#define CBIR_UTIL_RESULT_H_

#include <utility>
#include <variant>

#include "util/logging.h"
#include "util/status.h"

namespace cbir {

/// \brief Holds either a value of type T or an error Status.
///
/// The library convention for fallible value-producing functions:
///
/// \code
///   Result<svm::Gram> gram = svm::Gram::Of(rows, kernel);
///   if (!gram.ok()) return gram.status();
///   Use(gram.value());
/// \endcode
template <typename T>
class Result {
 public:
  /// Implicit from value: allows `return some_value;`.
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit from error status: allows `return Status::IoError(...);`.
  /// Storing an OK status in a Result is a programming error.
  Result(Status status) : repr_(std::move(status)) {  // NOLINT
    CBIR_CHECK(!std::get<Status>(repr_).ok())
        << "Result constructed from OK status without a value";
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  /// Returns the error, or OK if a value is held.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(repr_);
  }

  /// Value accessors; it is a checked fatal error to call on a failed Result.
  const T& value() const& {
    CBIR_CHECK(ok()) << "Result::value() on error: " << status().ToString();
    return std::get<T>(repr_);
  }
  T& value() & {
    CBIR_CHECK(ok()) << "Result::value() on error: " << status().ToString();
    return std::get<T>(repr_);
  }
  T&& value() && {
    CBIR_CHECK(ok()) << "Result::value() on error: " << status().ToString();
    return std::move(std::get<T>(repr_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value or `fallback` when this Result holds an error.
  T ValueOr(T fallback) const {
    if (ok()) return std::get<T>(repr_);
    return fallback;
  }

 private:
  std::variant<T, Status> repr_;
};

/// Propagates the error of a Result expression, otherwise assigns its value.
#define CBIR_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                               \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()

#define CBIR_ASSIGN_OR_RETURN(lhs, rexpr) \
  CBIR_ASSIGN_OR_RETURN_IMPL(             \
      CBIR_CONCAT_NAME(_result_tmp_, __LINE__), lhs, rexpr)

#define CBIR_CONCAT_NAME_INNER(x, y) x##y
#define CBIR_CONCAT_NAME(x, y) CBIR_CONCAT_NAME_INNER(x, y)

}  // namespace cbir

#endif  // CBIR_UTIL_RESULT_H_
