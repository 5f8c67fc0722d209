// Minimal JSON *reader*, shared by every input-parsing layer (fault plans,
// sweep specs). The emitting counterpart lives in util/json_out.hpp.
//
// Scope is exactly what our own emitters produce: objects, arrays, strings
// (with the escapes util/json_out.hpp writes), numbers, booleans, null. No
// surrogate-pair \u decoding — all our documents are ASCII by construction.
// Errors carry the 1-based line number of the offending character.
#pragma once

#include <cctype>
#include <cstdlib>
#include <string>
#include <string_view>
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
        if (c == '{') return parse_object();
        if (c == '[') return parse_array();
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

    const std::string& text_;
    std::size_t pos_ = 0;
};

}  // namespace hc::util
