// The decision journal: structured JSONL answering "why did the middleware
// do (or not do) X at time T?".
//
// Every record is one JSON object per line, always starting with the sim
// time ("t", integer sim milliseconds) and a "kind" tag, followed by
// caller-supplied fields in call order. Journalled throughout the stack:
//
//   detector   — each poll's verdict (stuck?, needed cpus, first stuck job)
//   decision   — every policy outcome, including *why not* (cooldown
//                active, no idle donors, threshold streak not reached)
//   switch.*   — switch-order lifecycle: ordered, flag set, executed on-node
//   node.state — each boot-FSM transition
//   watchdog   — staleness watchdog firings
//
// Records are deterministic (sim-time-stamped, no wall clock, no pointers),
// so a scenario's journal can be golden-tested byte for byte.
//
// Hot-path contract: call sites guard with `if (journal.enabled())` before
// building a record; a disabled journal costs one predictable branch.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace hc::obs {

class Journal {
public:
    Journal() = default;

    Journal(const Journal&) = delete;
    Journal& operator=(const Journal&) = delete;

    void set_enabled(bool on) { enabled_ = on; }
    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Sim clock in milliseconds (wired by the Hub).
    void set_clock(std::function<std::int64_t()> now_ms) { clock_ = std::move(now_ms); }

    /// Builder for one record; the line is appended when it goes out of
    /// scope. Usage:
    ///   if (j.enabled())
    ///       j.event("decision").str("target", "linux").num("nodes", 2);
    class Record {
    public:
        Record(Record&& o) noexcept : journal_(o.journal_), line_(std::move(o.line_)) {
            o.journal_ = nullptr;
        }
        Record(const Record&) = delete;
        Record& operator=(const Record&) = delete;
        Record& operator=(Record&&) = delete;
        ~Record();

        Record& str(std::string_view key, std::string_view value);
        Record& num(std::string_view key, std::int64_t value);
        Record& real(std::string_view key, double value);
        Record& flag(std::string_view key, bool value);

    private:
        friend class Journal;
        Record(Journal* journal, std::string line) : journal_(journal), line_(std::move(line)) {}
        Journal* journal_;
        std::string line_;
    };

    /// Start a record; no-op builder when disabled (but prefer guarding the
    /// whole call with enabled() so field rendering is skipped too).
    [[nodiscard]] Record event(std::string_view kind);

    /// The accumulated JSONL text (one record per line, chronological).
    [[nodiscard]] const std::string& text() const { return text_; }
    [[nodiscard]] std::size_t lines() const { return lines_; }

private:
    bool enabled_ = false;
    std::function<std::int64_t()> clock_;
    std::string text_;
    std::size_t lines_ = 0;
};

}  // namespace hc::obs
