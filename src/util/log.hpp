// Lightweight, simulation-clock-aware logging.
//
// Daemons in the paper log to files (reboot_log.out, rebootjob.log); our
// components log through this sink so tests can capture and assert on the
// event stream, and benches can silence it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace hc::util {

enum class LogLevel { kTrace, kDebug, kInfo, kWarn, kError };

[[nodiscard]] const char* log_level_name(LogLevel level);

/// A single logged event.
struct LogRecord {
    LogLevel level = LogLevel::kInfo;
    std::int64_t sim_time = 0;  ///< simulated seconds at emission
    std::string component;     ///< e.g. "LINHEAD/detector"
    std::string message;
};

/// Logger with an injectable clock (the sim engine supplies it) and
/// pluggable sinks. Records below `min_level` are dropped.
class Logger {
public:
    using Clock = std::function<std::int64_t()>;
    using Sink = std::function<void(const LogRecord&)>;

    Logger() = default;

    void set_clock(Clock clock) { clock_ = std::move(clock); }
    void set_min_level(LogLevel level) { min_level_ = level; }
    [[nodiscard]] LogLevel min_level() const { return min_level_; }

    void add_sink(Sink sink) { sinks_.push_back(std::move(sink)); }
    void clear_sinks() { sinks_.clear(); }

    /// Whether a record at `level` would reach a sink: at or above
    /// min_level with at least one sink attached. Callers guard records that
    /// are costly to build with it.
    [[nodiscard]] bool enabled(LogLevel level) const {
        return static_cast<int>(level) >= static_cast<int>(min_level_) && !sinks_.empty();
    }

    void log(LogLevel level, std::string component, std::string message);

    void trace(std::string component, std::string message) {
        log(LogLevel::kTrace, std::move(component), std::move(message));
    }
    void debug(std::string component, std::string message) {
        log(LogLevel::kDebug, std::move(component), std::move(message));
    }
    void info(std::string component, std::string message) {
        log(LogLevel::kInfo, std::move(component), std::move(message));
    }
    void warn(std::string component, std::string message) {
        log(LogLevel::kWarn, std::move(component), std::move(message));
    }
    void error(std::string component, std::string message) {
        log(LogLevel::kError, std::move(component), std::move(message));
    }

private:
    Clock clock_;
    LogLevel min_level_ = LogLevel::kInfo;
    std::vector<Sink> sinks_;
};

/// Sink that appends records to a vector (for test assertions).
class CaptureSink {
public:
    void operator()(const LogRecord& r) { records_.push_back(r); }
    [[nodiscard]] const std::vector<LogRecord>& records() const { return records_; }

private:
    std::vector<LogRecord> records_;
};

/// Render a record as "[  123s] INFO  LINHEAD/detector: message".
[[nodiscard]] std::string format_log_record(const LogRecord& r);

}  // namespace hc::util
