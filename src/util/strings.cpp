#include "util/strings.hpp"

#include <cctype>
#include <cstdio>
#include <limits>

namespace hc::util {

namespace {
bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }
}  // namespace

std::string_view trim(std::string_view s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && is_space(s[b])) ++b;
    while (e > b && is_space(s[e - 1])) --e;
    return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char sep) {
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.emplace_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::vector<std::string> split_ws(std::string_view s) {
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() && is_space(s[i])) ++i;
        std::size_t start = i;
        while (i < s.size() && !is_space(s[i])) ++i;
        if (i > start) out.emplace_back(s.substr(start, i - start));
    }
    return out;
}

std::vector<std::string> split_lines(std::string_view s) {
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '\n') {
            std::size_t end = i;
            if (end > start && s[end - 1] == '\r') --end;
            out.emplace_back(s.substr(start, end - start));
            start = i + 1;
        }
    }
    if (start < s.size()) {
        std::size_t end = s.size();
        if (end > start && s[end - 1] == '\r') --end;
        out.emplace_back(s.substr(start, end - start));
    }
    return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) out.append(sep);
        out.append(parts[i]);
    }
    return out;
}

std::string to_lower(std::string_view s) {
    std::string out(s);
    for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::string replace_all(std::string_view s, std::string_view from, std::string_view to) {
    if (from.empty()) return std::string(s);
    std::string out;
    std::size_t pos = 0;
    while (true) {
        std::size_t hit = s.find(from, pos);
        if (hit == std::string_view::npos) {
            out.append(s.substr(pos));
            return out;
        }
        out.append(s.substr(pos, hit - pos));
        out.append(to);
        pos = hit + from.size();
    }
}

std::string pad_left(std::string_view s, std::size_t width, char fill) {
    std::string out(s);
    if (out.size() < width) out.insert(out.begin(), width - out.size(), fill);
    return out;
}

std::string pad_right(std::string_view s, std::size_t width, char fill) {
    std::string out(s);
    if (out.size() < width) out.append(width - out.size(), fill);
    return out;
}

long long parse_uint(std::string_view s) {
    if (s.empty()) return -1;
    long long v = 0;
    for (char c : s) {
        if (c < '0' || c > '9') return -1;
        const int digit = c - '0';
        if (v > (std::numeric_limits<long long>::max() - digit) / 10) return -1;  // overflow
        v = v * 10 + digit;
    }
    return v;
}

bool all_digits(std::string_view s) { return parse_uint(s) >= 0; }

void append_int_pad2(std::string& out, long long v, char fill) {
    if (v >= 0 && v < 10) out += fill;  // a sign or a second digit fills the width otherwise
    append_int(out, v);
}

std::string format_fixed(double v, int digits) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", digits, v);
    return buf;
}

}  // namespace hc::util
