// String helpers used by the text-format layers (GRUB configs, PBS command
// output, diskpart scripts, detector wire records).
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace hc::util {

/// Remove leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Split on a single character; empty fields are kept ("a,,b" -> {a,"",b}).
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Split on runs of ASCII whitespace; empty fields are dropped.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view s);

/// Split into lines on '\n'; a trailing newline does not produce a final
/// empty line. '\r' before '\n' is stripped (Windows HPC config files).
[[nodiscard]] std::vector<std::string> split_lines(std::string_view s);

/// Join with separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lower-casing (config keywords are case-insensitive in diskpart).
[[nodiscard]] std::string to_lower(std::string_view s);

/// Replace every occurrence of `from` (non-empty) with `to`.
[[nodiscard]] std::string replace_all(std::string_view s, std::string_view from,
                                      std::string_view to);

/// Left-pad with `fill` to at least `width` characters.
[[nodiscard]] std::string pad_left(std::string_view s, std::size_t width, char fill = ' ');

/// Right-pad with `fill` to at least `width` characters.
[[nodiscard]] std::string pad_right(std::string_view s, std::size_t width, char fill = ' ');

/// Parse a non-negative integer; returns -1 on any non-digit content and on
/// a value that does not fit in long long.
/// (Fixed-width numeric fields in the detector record are always unsigned.)
[[nodiscard]] long long parse_uint(std::string_view s);

/// True if `s` consists only of ASCII digits (and is non-empty).
[[nodiscard]] bool all_digits(std::string_view s);

/// Append the decimal form of the integer `v`, as printf's "%lld"/"%llu"
/// prints it, through std::to_chars: no temporary string, so a reused `out`
/// never allocates.
template <class Int>
void append_int(std::string& out, Int v) {
    static_assert(std::is_integral_v<Int>, "append_int takes an integer");
    char buf[24];  // 20 digits of a 64-bit value, a sign, spare
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

/// Append `v` padded to two characters with `fill`, as printf's "%02lld"
/// (fill '0') or "%2lld" (fill ' ') prints it.
void append_int_pad2(std::string& out, long long v, char fill = '0');

/// Format a double with `digits` decimal places (bench table cells).
[[nodiscard]] std::string format_fixed(double v, int digits);

}  // namespace hc::util
