// PBS job records: one per submitted job, holding what `qstat -f` prints
// (Fig 8) plus the server's bookkeeping. A record carries no copy of
// anything constant across jobs: the server name and the Variable_List are
// rendered from the server's config and the owner, and an exec slot points
// at its node's hostname instead of copying it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pbs/resource_list.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "util/intrusive_fifo.hpp"

namespace hc::pbs {

/// TORQUE job states (the subset the paper's cluster exercises).
enum class JobState {
    kQueued,     ///< Q
    kRunning,    ///< R
    kExiting,    ///< E
    kCompleted,  ///< C
    kHeld,       ///< H
};

[[nodiscard]] char job_state_char(JobState s);

/// One "host/cpu" element of an exec_host string ("node16.../3"). `host`
/// points at the node's own hostname: nodes outlive every job placed on
/// them, and a snapshot is only restored into the world that took it.
struct ExecSlot {
    const std::string* host = nullptr;
    int cpu = 0;
};

/// How a job behaves once it runs. Real PBS executes a shell script; the
/// simulation attaches the script's *effects* instead: a natural run time
/// and an optional on_start hook (switch jobs use it to rewrite boot
/// configs and reboot their node).
struct JobBehavior {
    sim::Duration run_time = sim::seconds(1);
    std::function<void(struct Job&)> on_start;
    std::function<void(struct Job&)> on_finish;  ///< fires on any terminal transition
};

/// Why a job reached kCompleted.
enum class CompletionKind {
    kNone,          ///< not completed yet
    kNormal,
    kDeleted,       ///< qdel
    kNodeFailure,   ///< executing node went down (and job was not rerunnable)
    kWalltime,      ///< killed at its walltime limit
};

[[nodiscard]] const char* completion_kind_name(CompletionKind k);

struct Job {
    std::string id;         ///< "1185.eridani.qgg.hud.ac.uk"
    std::uint64_t seq = 0;  ///< numeric part of the id
    std::string name;
    std::string owner;      ///< "sliang@eridani.qgg.hud.ac.uk"
    JobState state = JobState::kQueued;
    std::string queue;
    ResourceList resources;
    bool rerunnable = true;
    bool join_oe = false;
    /// Set when this job's qstat -f stanza needs re-rendering; cleared by
    /// the text layer once the chunk is patched. (Beside the other flags,
    /// where it takes no room of its own.)
    bool text_dirty = false;
    std::string output_path;
    int priority = 0;

    std::int64_t qtime_unix = 0;   ///< submission time
    std::int64_t stime_unix = 0;   ///< start time (0 = never started)
    std::int64_t etime_unix = 0;   ///< end time (0 = not ended)

    std::vector<ExecSlot> exec_slots;     ///< filled while running
    std::vector<int> exec_node_indices;   ///< cluster node indices allocated
    std::vector<int> exec_record_indices; ///< server NodeRecord indices (release fast path)
    CompletionKind completion = CompletionKind::kNone;
    int requeue_count = 0;

    // Pending timers of the current run. Cancelling an id whose event has
    // already fired is a no-op, so they need no clearing when they fire.
    sim::EventId completion_event;
    sim::EventId walltime_event;  ///< valid only when walltime < run time

    JobBehavior behavior;

    // Links in the server's eligible-to-run list (seq order, kQueued only);
    // held, deleted and started jobs are unlinked eagerly, so a scheduler
    // pass walks only jobs it could actually start.
    util::FifoHook<Job> queue_link;

    /// "node16.../3+node16.../2+..." as qstat -f prints it (Fig 8).
    [[nodiscard]] std::string exec_host_string() const;
    /// exec_host_string() appended to `out`.
    void append_exec_host(std::string& out) const;

    /// Time spent waiting in the queue (so far, or total if started).
    [[nodiscard]] std::int64_t wait_seconds(std::int64_t now_unix) const;
};

}  // namespace hc::pbs
