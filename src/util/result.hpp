// Minimal Result<T> for recoverable, data-dependent failures.
//
// gcc 12 / C++20 has no std::expected, so this is a small local equivalent.
// Used by every parser in the library (GRUB configs, #PBS directives,
// ide.disk, diskpart.txt, detector wire records): parse errors are normal
// data, not exceptional control flow.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <variant>

#include "util/errors.hpp"

namespace hc::util {

/// Error payload: a human-readable message plus optional source location
/// (line number in the text being parsed; 0 = not applicable).
struct Error {
    std::string message;
    int line = 0;

    [[nodiscard]] std::string to_string() const {
        if (line > 0) return "line " + std::to_string(line) + ": " + message;
        return message;
    }
};

/// Result<T>: either a value or an Error. Deliberately small; no monadic
/// chaining beyond map/and_then, which is all the parsers need.
template <typename T>
class [[nodiscard]] Result {
public:
    Result(T value) : data_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
    Result(Error err) : data_(std::move(err)) {}  // NOLINT(google-explicit-constructor)

    [[nodiscard]] bool ok() const { return std::holds_alternative<T>(data_); }
    explicit operator bool() const { return ok(); }

    /// Access the value. Throws PreconditionError if this holds an error;
    /// callers must check ok() first. A successful call allocates nothing.
    [[nodiscard]] const T& value() const& {
        if (!ok()) [[unlikely]]
            throw PreconditionError("Result::value() called on error: " + error_message());
        return std::get<T>(data_);
    }
    [[nodiscard]] T& value() & { return const_cast<T&>(std::as_const(*this).value()); }
    [[nodiscard]] T&& take() && { return std::move(value()); }

    [[nodiscard]] const Error& error() const {
        require(!ok(), "Result::error() called on success value");
        return std::get<Error>(data_);
    }
    [[nodiscard]] std::string error_message() const {
        return ok() ? std::string{} : std::get<Error>(data_).to_string();
    }

    [[nodiscard]] T value_or(T fallback) const& {
        return ok() ? std::get<T>(data_) : std::move(fallback);
    }

    /// Apply `fn` to the value if present, propagate the error otherwise.
    template <typename Fn>
    [[nodiscard]] auto map(Fn&& fn) const -> Result<decltype(fn(std::declval<const T&>()))> {
        if (!ok()) return error();
        return fn(std::get<T>(data_));
    }

private:
    std::variant<T, Error> data_;
};

/// Result specialisation for operations with no payload.
class [[nodiscard]] Status {
public:
    Status() = default;
    Status(Error err) : err_(std::move(err)) {}  // NOLINT(google-explicit-constructor)

    [[nodiscard]] static Status ok_status() { return Status{}; }
    [[nodiscard]] bool ok() const { return !err_.has_value(); }
    explicit operator bool() const { return ok(); }

    [[nodiscard]] const Error& error() const {
        require(!ok(), "Status::error() called on OK status");
        return *err_;
    }
    [[nodiscard]] std::string error_message() const {
        return ok() ? std::string{} : err_->to_string();
    }

private:
    std::optional<Error> err_;
};

}  // namespace hc::util
