// Minimal JSON *reader*, shared by every hc-*/1 document loader (fault
// plans, cloud, sweep, grid and serve specs). The emitting counterpart
// lives in util/json_out.hpp.
//
// Scope is exactly what our own emitters produce: objects, arrays, strings
// (with the escapes util/json_out.hpp writes), numbers, booleans, null. No
// surrogate-pair \u decoding — all our documents are ASCII by construction.
// Errors carry the 1-based line number of the offending character.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/result.hpp"

namespace hc::util {

struct JsonValue {
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
    Type type = Type::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;  ///< insertion order

    [[nodiscard]] const JsonValue* find(std::string_view key) const {
        for (const auto& [k, v] : object)
            if (k == key) return &v;
        return nullptr;
    }
};

/// Member lookup with a fallback: `json_num_or(root, "seed", 0.0)`.
[[nodiscard]] inline double json_num_or(const JsonValue& obj, std::string_view key,
                                        double fallback) {
    const JsonValue* v = obj.find(key);
    return v != nullptr && v->type == JsonValue::Type::kNumber ? v->number : fallback;
}

[[nodiscard]] inline std::string json_str_or(const JsonValue& obj, std::string_view key,
                                             const std::string& fallback) {
    const JsonValue* v = obj.find(key);
    return v != nullptr && v->type == JsonValue::Type::kString ? v->string : fallback;
}

/// Limits every spec loader applies. Counts that size an allocation (nodes,
/// clients, seeds, queue bounds) stay at or below kSpecCountMax, and spans
/// at or below kSpecHoursMax hours (about 114 years), so a typo is a typed
/// error, not a terabyte allocation or an overflow of int64 milliseconds.
inline constexpr int kSpecCountMax = 1'000'000;
inline constexpr double kSpecHoursMax = 1e6;

/// Range-checked narrowing of one number named `name`: the one way a loaded
/// value becomes a count or a span (json_read_int and json_read_num below,
/// and the dualboot_sim numeric flags). An integer is truncated toward zero
/// like a static_cast, but only after checking that it is finite and lies
/// within [lo, hi], so an out-of-range double never reaches the cast, which
/// would be undefined behaviour. A real outside [lo, hi] (including the inf
/// and nan strtod accepts) is an error too: loaders bound every value they
/// turn into a sim::Duration, whose integer milliseconds a huge double would
/// overflow. On error `out` keeps its value.
template <typename T>
[[nodiscard]] Status read_number(std::string_view name, double number, T& out, T lo, T hi) {
    if constexpr (std::is_integral_v<T>) {
        // 2^digits is the first double past the type's maximum (the maximum
        // itself may round up to it), so the cast below is always defined.
        constexpr double kTop = static_cast<double>(std::numeric_limits<T>::max() / 2 + 1) * 2.0;
        const double t = std::trunc(number);  // NaN stays NaN and fails the test
        if (t >= static_cast<double>(std::numeric_limits<T>::min()) && t < kTop) {
            const T n = static_cast<T>(t);
            if (n >= lo && n <= hi) {
                out = n;
                return {};
            }
        }
        return Error{std::string(name) + " must be an integer in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]"};
    } else {
        if (!(number >= lo && number <= hi)) {
            char range[64];
            std::snprintf(range, sizeof range, " must be in [%g, %g]", lo, hi);
            return Error{std::string(name) + range};
        }
        out = number;
        return {};
    }
}

/// Range-checked integer member (by default [lo, hi] is the whole of Int).
/// Absent or not a number: `out` keeps its value (the caller's default), as
/// with json_num_or.
template <typename Int>
[[nodiscard]] Status json_read_int(const JsonValue& obj, std::string_view key, Int& out,
                                   Int lo = std::numeric_limits<Int>::min(),
                                   Int hi = std::numeric_limits<Int>::max()) {
    const JsonValue* v = obj.find(key);
    if (v == nullptr || v->type != JsonValue::Type::kNumber) return {};
    return read_number(key, v->number, out, lo, hi);
}

/// Range-checked real member: absent or not a number leaves `out` as is.
[[nodiscard]] inline Status json_read_num(const JsonValue& obj, std::string_view key,
                                          double& out, double lo, double hi) {
    const JsonValue* v = obj.find(key);
    if (v == nullptr || v->type != JsonValue::Type::kNumber) return {};
    return read_number(key, v->number, out, lo, hi);
}

/// Qualify a member's error with the JSON path of the object holding it
/// ("cloud", "members[2]"); an empty path leaves the error as it is.
[[nodiscard]] inline Error json_at(std::string_view where, Error error) {
    if (!where.empty()) error.message = std::string(where) + "." + error.message;
    return error;
}

class JsonReader {
public:
    explicit JsonReader(const std::string& text) : text_(text) {}

    Result<JsonValue> parse() {
        auto value = parse_value();
        if (!value) return value;
        skip_ws();
        if (pos_ != text_.size()) return fail("trailing characters after JSON value");
        return value;
    }

private:
    [[nodiscard]] Error fail(const std::string& what) const {
        int line = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i)
            if (text_[i] == '\n') ++line;
        return Error{what, line};
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])) != 0)
            ++pos_;
    }

    [[nodiscard]] bool eat(char c) {
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    Result<JsonValue> parse_value() {
        skip_ws();
        if (pos_ >= text_.size()) return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{' || c == '[') {
            // Bounded recursion: a deeply nested document is an error, not a
            // stack overflow.
            if (depth_ >= kMaxDepth) return fail("nesting deeper than 64 levels");
            ++depth_;
            auto nested = c == '{' ? parse_object() : parse_array();
            --depth_;
            return nested;
        }
        if (c == '"') return parse_string();
        if (c == 't' || c == 'f') return parse_keyword_bool();
        if (c == 'n') return parse_keyword_null();
        return parse_number();
    }

    Result<JsonValue> parse_object() {
        ++pos_;  // '{'
        JsonValue value;
        value.type = JsonValue::Type::kObject;
        if (eat('}')) return value;
        while (true) {
            skip_ws();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected string key in object");
            auto key = parse_string();
            if (!key) return key;
            if (!eat(':')) return fail("expected ':' after object key");
            auto member = parse_value();
            if (!member) return member;
            value.object.emplace_back(std::move(key.value().string),
                                      std::move(member.value()));
            if (eat(',')) continue;
            if (eat('}')) return value;
            return fail("expected ',' or '}' in object");
        }
    }

    Result<JsonValue> parse_array() {
        ++pos_;  // '['
        JsonValue value;
        value.type = JsonValue::Type::kArray;
        if (eat(']')) return value;
        while (true) {
            auto element = parse_value();
            if (!element) return element;
            value.array.push_back(std::move(element.value()));
            if (eat(',')) continue;
            if (eat(']')) return value;
            return fail("expected ',' or ']' in array");
        }
    }

    Result<JsonValue> parse_string() {
        ++pos_;  // '"'
        JsonValue value;
        value.type = JsonValue::Type::kString;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"') return value;
            if (c == '\\') {
                if (pos_ >= text_.size()) break;
                const char esc = text_[pos_++];
                switch (esc) {
                    case '"': value.string += '"'; break;
                    case '\\': value.string += '\\'; break;
                    case '/': value.string += '/'; break;
                    case 'n': value.string += '\n'; break;
                    case 'r': value.string += '\r'; break;
                    case 't': value.string += '\t'; break;
                    case 'b': value.string += '\b'; break;
                    case 'f': value.string += '\f'; break;
                    default: return fail(std::string("unsupported escape \\") + esc);
                }
                continue;
            }
            value.string += c;
        }
        return fail("unterminated string");
    }

    Result<JsonValue> parse_keyword_bool() {
        if (text_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            JsonValue v;
            v.type = JsonValue::Type::kBool;
            v.boolean = true;
            return v;
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            JsonValue v;
            v.type = JsonValue::Type::kBool;
            v.boolean = false;
            return v;
        }
        return fail("bad keyword");
    }

    Result<JsonValue> parse_keyword_null() {
        if (text_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            return JsonValue{};
        }
        return fail("bad keyword");
    }

    Result<JsonValue> parse_number() {
        const char* start = text_.c_str() + pos_;
        char* end = nullptr;
        const double parsed = std::strtod(start, &end);
        if (end == start) return fail("expected JSON value");
        pos_ += static_cast<std::size_t>(end - start);
        JsonValue v;
        v.type = JsonValue::Type::kNumber;
        v.number = parsed;
        return v;
    }

    static constexpr int kMaxDepth = 64;
    const std::string& text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

}  // namespace hc::util
