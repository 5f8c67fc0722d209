#include "pbs/job.hpp"

namespace hc::pbs {

char job_state_char(JobState s) {
    switch (s) {
        case JobState::kQueued: return 'Q';
        case JobState::kRunning: return 'R';
        case JobState::kExiting: return 'E';
        case JobState::kCompleted: return 'C';
        case JobState::kHeld: return 'H';
    }
    return '?';
}

const char* completion_kind_name(CompletionKind k) {
    switch (k) {
        case CompletionKind::kNone: return "none";
        case CompletionKind::kNormal: return "normal";
        case CompletionKind::kDeleted: return "deleted";
        case CompletionKind::kNodeFailure: return "node-failure";
        case CompletionKind::kWalltime: return "walltime";
    }
    return "?";
}

std::int64_t Job::wait_seconds(std::int64_t now_unix) const {
    const std::int64_t until = stime_unix > 0 ? stime_unix : now_unix;
    return until > qtime_unix ? until - qtime_unix : 0;
}

}  // namespace hc::pbs
