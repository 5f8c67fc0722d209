#include "util/log.hpp"

#include <cstdio>

namespace hc::util {

const char* log_level_name(LogLevel level) {
    switch (level) {
        case LogLevel::kTrace: return "TRACE";
        case LogLevel::kDebug: return "DEBUG";
        case LogLevel::kInfo: return "INFO";
        case LogLevel::kWarn: return "WARN";
        case LogLevel::kError: return "ERROR";
    }
    return "?";
}

void Logger::log(LogLevel level, std::string component, std::string message) {
    if (!enabled(level)) return;
    LogRecord r;
    r.level = level;
    r.sim_time = clock_ ? clock_() : 0;
    r.component = std::move(component);
    r.message = std::move(message);
    for (const auto& sink : sinks_) sink(r);
}

std::string format_log_record(const LogRecord& r) {
    char head[64];
    std::snprintf(head, sizeof head, "[%7llds] %-5s ",
                  static_cast<long long>(r.sim_time), log_level_name(r.level));
    return std::string(head) + r.component + ": " + r.message;
}

}  // namespace hc::util
