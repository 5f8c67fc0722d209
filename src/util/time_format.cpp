#include "util/time_format.hpp"

#include <cstdio>

#include "util/errors.hpp"
#include "util/strings.hpp"

namespace hc::util {

namespace {

// Days from 1970-01-01 to the given civil date (Howard Hinnant's algorithm).
std::int64_t days_from_civil(int y, int m, int d) {
    y -= m <= 2;
    const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
    const unsigned yoe = static_cast<unsigned>(y - era * 400);             // [0, 399]
    const unsigned doy = (153u * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;  // [0, 365]
    const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;            // [0, 146096]
    return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

void civil_from_days(std::int64_t z, int& y, int& m, int& d) {
    z += 719468;
    const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
    const unsigned doe = static_cast<unsigned>(z - era * 146097);           // [0, 146096]
    const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;  // [0, 399]
    const std::int64_t yy = static_cast<std::int64_t>(yoe) + era * 400;
    const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);           // [0, 365]
    const unsigned mp = (5 * doy + 2) / 153;                                // [0, 11]
    d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
    m = static_cast<int>(mp + (mp < 10 ? 3 : -9));
    y = static_cast<int>(yy + (m <= 2));
}

constexpr const char* kWeekdays[] = {"Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"};
constexpr const char* kMonths[] = {"",    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                   "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

}  // namespace

std::int64_t civil_to_unix(int year, int month, int day, int hour, int minute, int second) {
    require(month >= 1 && month <= 12, "civil_to_unix: month out of range");
    require(day >= 1 && day <= 31, "civil_to_unix: day out of range");
    return days_from_civil(year, month, day) * 86400 + hour * 3600 + minute * 60 + second;
}

CivilTime unix_to_civil(std::int64_t t) {
    std::int64_t days = t / 86400;
    std::int64_t rem = t % 86400;
    if (rem < 0) {
        rem += 86400;
        days -= 1;
    }
    CivilTime c;
    civil_from_days(days, c.year, c.month, c.day);
    c.hour = static_cast<int>(rem / 3600);
    c.minute = static_cast<int>((rem % 3600) / 60);
    c.second = static_cast<int>(rem % 60);
    // 1970-01-01 (day 0) was a Thursday (weekday 4).
    std::int64_t wd = (days + 4) % 7;
    if (wd < 0) wd += 7;
    c.weekday = static_cast<int>(wd);
    return c;
}

std::int64_t default_sim_epoch() { return civil_to_unix(2010, 4, 16); }

void append_pbs_time(std::string& out, std::int64_t t) {
    // printf's "%s %s %2d %02d:%02d:%02d %d", without the format parse.
    const CivilTime c = unix_to_civil(t);
    out += kWeekdays[c.weekday];
    out += ' ';
    out += kMonths[c.month];
    out += ' ';
    append_int_pad2(out, c.day, ' ');
    out += ' ';
    append_int_pad2(out, c.hour);
    out += ':';
    append_int_pad2(out, c.minute);
    out += ':';
    append_int_pad2(out, c.second);
    out += ' ';
    append_int(out, c.year);
}

std::string format_pbs_time(std::int64_t t) {
    std::string out;
    append_pbs_time(out, t);
    return out;
}

std::string format_detector_time(std::int64_t t) {
    const CivilTime c = unix_to_civil(t);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%04d %02d %02d %02d %02d %02d", c.year, c.month, c.day,
                  c.hour, c.minute, c.second);
    return buf;
}

std::string format_duration(std::int64_t seconds) {
    const bool neg = seconds < 0;
    if (neg) seconds = -seconds;
    const std::int64_t days = seconds / 86400;
    const int h = static_cast<int>((seconds % 86400) / 3600);
    const int m = static_cast<int>((seconds % 3600) / 60);
    const int s = static_cast<int>(seconds % 60);
    char buf[64];
    if (days > 0) {
        std::snprintf(buf, sizeof buf, "%s%lldd %02d:%02d:%02d", neg ? "-" : "",
                      static_cast<long long>(days), h, m, s);
    } else {
        std::snprintf(buf, sizeof buf, "%s%02d:%02d:%02d", neg ? "-" : "", h, m, s);
    }
    return buf;
}

const char* weekday_name(int weekday) {
    require(weekday >= 0 && weekday <= 6, "weekday_name: out of range");
    return kWeekdays[weekday];
}

const char* month_name(int month) {
    require(month >= 1 && month <= 12, "month_name: out of range");
    return kMonths[month];
}

}  // namespace hc::util
