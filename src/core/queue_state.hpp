// The detector wire record (Fig 5) and its Fig 6 presentation.
//
// The fixed-format character string the communicators exchange over TCP:
//
//   Position  Definition       Output
//   0         [Queue state]    Stuck=1, Others=0
//   1-4       [Needed CPUs]    Default=0000
//   5-67      [Stuck job ID]   Default=none
//   68-       [Undefined]
//
// Examples from the paper (Fig 6): "00000none" (not stuck) and
// "100041191.eridani.qgg.hud.ac.uk" (stuck; the first queued job,
// 1191.eridani.qgg.hud.ac.uk, needs 4 CPUs).
#pragma once

#include <cstdint>
#include <string>

#include "util/result.hpp"

namespace hc::core {

/// A queue is "stuck" when "the scheduler has no job running and several
/// jobs are queuing" (§III.B.4).
struct QueueStateRecord {
    bool stuck = false;
    int needed_cpus = 0;            ///< CPUs the first queued job needs (0 when not stuck)
    std::string stuck_job_id = "none";

    /// Encode as the wire string. The job id field is written as-is (the
    /// paper's own outputs are unpadded); ids longer than 63 characters are
    /// truncated to keep the record inside its 68-character frame.
    [[nodiscard]] std::string encode() const;

    /// Decode a wire string. Tolerant of trailing "undefined" bytes.
    [[nodiscard]] static util::Result<QueueStateRecord> decode(const std::string& wire);

    [[nodiscard]] bool operator==(const QueueStateRecord&) const = default;
};

/// Everything one detector poll learned; `record` is what goes on the wire,
/// the rest feeds logs and decisions.
struct QueueSnapshot {
    QueueStateRecord record;
    int running = 0;   ///< jobs currently executing
    int queued = 0;    ///< jobs waiting
    int idle_nodes = 0;    ///< fully idle nodes on this side (switch candidates)
    /// Simulated wall-clock (Unix seconds) when the detector computed this
    /// snapshot. Consumers that cache snapshots (hc::serve) report their
    /// staleness as `now - checked_unix`. -1 = detector had no clock.
    std::int64_t checked_unix = -1;
};

inline constexpr int kJobIdFieldWidth = 63;  ///< positions 5..67

}  // namespace hc::core
