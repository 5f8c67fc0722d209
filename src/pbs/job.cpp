#include "pbs/job.hpp"

#include "util/strings.hpp"

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

void Job::append_exec_host(std::string& out) const {
    for (std::size_t i = 0; i < exec_slots.size(); ++i) {
        if (i > 0) out += '+';
        out += *exec_slots[i].host;
        out += '/';
        util::append_int(out, exec_slots[i].cpu);
    }
}

std::string Job::exec_host_string() const {
    std::string out;
    append_exec_host(out);
    return out;
}

std::int64_t Job::wait_seconds(std::int64_t now_unix) const {
    const std::int64_t until = stime_unix > 0 ? stime_unix : now_unix;
    return until > qtime_unix ? until - qtime_unix : 0;
}

}  // namespace hc::pbs
