// PBS job records: one per submitted job, holding what `qstat -f` prints
// (Fig 8) plus the server's bookkeeping. A record carries no copy of
// anything constant across jobs: the server name and the Variable_List are
// rendered from the server's config and the owner. A running job keeps only
// the node records it holds; which CPUs it owns there lives in the server's
// owner array, and exec_host is derived from both at render time
// (PbsServer::append_exec_host).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "cluster/node_table.hpp"
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
    // What the scheduler and the completion path read comes first (through
    // resources.ppn, about the first 112 bytes), so starting or finishing a
    // job reads one short run at the front of the record; the strings only
    // the text layer reads follow.
    std::uint64_t seq = 0;  ///< numeric part of the id
    JobState state = JobState::kQueued;
    CompletionKind completion = CompletionKind::kNone;
    bool rerunnable = true;
    bool join_oe = false;
    /// Set when this job's qstat -f stanza needs re-rendering; cleared by
    /// the text layer once the chunk is patched.
    bool text_dirty = false;
    int requeue_count = 0;
    int priority = 0;

    /// Node records held while running (empty otherwise); the job owns
    /// `resources.ppn` CPUs on each.
    cluster::RecordList exec_records;

    // Pending timers of the current run. Cancelling an id whose event has
    // already fired is a no-op, so they need no clearing when they fire.
    sim::EventId completion_event;
    sim::EventId walltime_event;  ///< valid only when walltime < run time

    // Links in the server's eligible-to-run list (seq order, kQueued only);
    // held, deleted and started jobs are unlinked eagerly, so a scheduler
    // pass walks only jobs it could actually start.
    util::FifoHook<Job> queue_link;

    ResourceList resources;

    std::int64_t qtime_unix = 0;   ///< submission time
    std::int64_t stime_unix = 0;   ///< start time (0 = never started)
    std::int64_t etime_unix = 0;   ///< end time (0 = not ended)

    std::string id;         ///< "1185.eridani.qgg.hud.ac.uk"
    std::string name;
    std::string owner;      ///< "sliang@eridani.qgg.hud.ac.uk"
    std::string queue;
    std::string output_path;

    JobBehavior behavior;

    /// Time spent waiting in the queue (so far, or total if started).
    [[nodiscard]] std::int64_t wait_seconds(std::int64_t now_unix) const;
};

}  // namespace hc::pbs
