// Windows HPC Server 2008 R2 -style scheduler.
//
// The Windows side of the hybrid cluster. Unlike PBS, "Microsoft provides a
// SDK for programs to fetch the data and send the tasks, e.g. get the queue
// state and nodes state" (§III.B.3) — so this substrate exposes a typed API
// (modelled on IScheduler/ISchedulerJob) and the Windows detector consumes
// it directly, preserving the paper's asymmetry with the text-scraping PBS
// detector.
//
// State is kept in PbsServer's shapes: nodes in a cluster::NodeTable whose
// fit level 1 and idle set are the core-unit and node-unit placement
// candidates, walked in ascending record order; jobs in a util::JobWindow
// keyed by id (ended jobs past completed_retention are purged), with a
// running job's pending timers on the job itself; and a util::IntrusiveFifo
// of the queued jobs (see DESIGN.md "Indexed scheduler state").
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/node_table.hpp"
#include "sim/engine.hpp"
#include "util/intrusive_fifo.hpp"
#include "util/job_window.hpp"
#include "util/result.hpp"

namespace hc::winhpc {

enum class HpcJobState {
    kConfiguring,
    kQueued,
    kRunning,
    kFinished,
    kFailed,
    kCanceled,
};

[[nodiscard]] const char* hpc_job_state_name(HpcJobState s);

/// Resource unit granularity (JobUnitType in the real SDK).
enum class JobUnitType { kCore, kNode };

enum class HpcNodeState {
    kOnline,       ///< reachable and accepting work
    kOffline,      ///< admin-paused
    kDraining,     ///< finishing current work, accepting none
    kUnreachable,  ///< heartbeat lost (off, rebooting, or running Linux)
};

[[nodiscard]] const char* hpc_node_state_name(HpcNodeState s);

/// One task inside a job (ISchedulerTask). MDCS submits a job with one
/// worker task per lab; tasks share the job's allocation and run in
/// parallel, one per allocated lane.
struct HpcTaskSpec {
    std::string command_line = "worker.exe";
    sim::Duration run_time = sim::seconds(1);
};

struct HpcTask {
    int id = 0;  ///< 1-based within the job
    std::string command_line;
    sim::Duration run_time{};
    HpcJobState state = HpcJobState::kConfiguring;
    std::int64_t start_unix = 0;
    std::int64_t end_unix = 0;
};

struct HpcJobSpec {
    std::string name = "Job";
    std::string owner = "HPC\\user";
    JobUnitType unit = JobUnitType::kNode;
    int min_resources = 1;  ///< nodes or cores depending on unit
    sim::Duration run_time = sim::seconds(1);  ///< used when `tasks` is empty
    /// Optional explicit task list. When non-empty, the job runs its tasks
    /// in parallel over its allocation (one per node for node-unit jobs,
    /// one per core for core-unit jobs) and finishes when all tasks do;
    /// `run_time` is ignored.
    std::vector<HpcTaskSpec> tasks;
    std::optional<sim::Duration> runtime_limit;  ///< job template runtime cap
    bool rerun_on_failure = false;
    std::function<void(struct HpcJob&)> on_start;
    std::function<void(struct HpcJob&)> on_finish;
};

struct HpcJob {
    int id = 0;
    std::string name;
    std::string owner;
    JobUnitType unit = JobUnitType::kNode;
    int min_resources = 1;
    HpcJobState state = HpcJobState::kConfiguring;
    bool rerun_on_failure = false;
    std::int64_t submit_unix = 0;
    std::int64_t start_unix = 0;
    std::int64_t end_unix = 0;
    /// Node records held while running, in placement order (the node of
    /// record r is HpcScheduler::node_records()[r].node).
    cluster::RecordList allocated_records;
    int requeue_count = 0;
    sim::Duration run_time{};
    std::vector<HpcTask> tasks;   ///< empty for implicit single-activity jobs
    int tasks_finished = 0;
    int next_task_index = 0;      ///< dispatch cursor while running
    std::optional<sim::Duration> runtime_limit;
    std::function<void(HpcJob&)> on_start;
    std::function<void(HpcJob&)> on_finish;

    // Pending timers of the current run. Cancelling an id whose event has
    // already fired is a no-op, so they need no clearing when they fire.
    sim::EventId completion_event;          ///< implicit single-activity jobs
    sim::EventId limit_event;               ///< runtime_limit kill
    std::vector<sim::EventId> task_events;  ///< one per launched task

    // Links in the scheduler's queued-job list (id order, kQueued only);
    // started or canceled jobs are unlinked eagerly, so a pass walks only
    // startable jobs.
    util::FifoHook<HpcJob> queue_link;

    /// CPUs this job books (the Fig 5 [Needed CPUs] field on the Windows
    /// side). Node-unit jobs count cores_per_node per node.
    [[nodiscard]] int needed_cpus(int cores_per_node) const {
        return unit == JobUnitType::kNode ? min_resources * cores_per_node : min_resources;
    }
};

/// The queued jobs in id order; walk from HpcScheduler::first_queued_job().
using HpcJobQueue = util::IntrusiveFifo<HpcJob, &HpcJob::queue_link, &HpcJob::id>;

/// Per-node record as the HPC management service sees it: the node table's
/// part (core owners hold job ids; counted = Online) plus the admin flag.
struct HpcNodeRecord : cluster::NodeSlot {
    bool admin_offline = false;

    [[nodiscard]] bool reachable() const;  ///< up and running Windows
    [[nodiscard]] HpcNodeState state() const;
};

struct HpcStats {
    std::uint64_t submitted = 0;
    std::uint64_t started = 0;
    std::uint64_t finished = 0;
    std::uint64_t failed_node_loss = 0;
    std::uint64_t canceled = 0;
    std::uint64_t killed_runtime_limit = 0;
    std::uint64_t requeued = 0;
};

struct HpcSchedulerConfig {
    std::string cluster_name = "WINHEAD";
    std::string node_template = "Eridani Compute";
    bool strict_fifo = true;
    /// Ended (finished, failed, canceled) job records retained before the
    /// oldest are purged, as PbsServerConfig's (0 = keep everything).
    std::size_t completed_retention = 0;
};

class HpcScheduler {
public:
    HpcScheduler(sim::Engine& engine, HpcSchedulerConfig config = {});

    HpcScheduler(const HpcScheduler&) = delete;
    HpcScheduler& operator=(const HpcScheduler&) = delete;

    [[nodiscard]] const std::string& cluster_name() const { return config_.cluster_name; }

    /// Register a compute node (deployed from the node template).
    void attach_node(cluster::Node& node);

    /// Submit a job; returns its integer id (Windows HPC job ids are ints).
    [[nodiscard]] int submit_job(HpcJobSpec spec);

    [[nodiscard]] util::Status cancel_job(int id);

    /// Job by id, or nullptr for an id never issued or already purged.
    [[nodiscard]] const HpcJob* get_job(int id) const;
    [[nodiscard]] std::vector<const HpcJob*> get_jobs(
        std::optional<HpcJobState> filter = std::nullopt) const;

    /// SDK-style queue metrics (what the Windows detector reads). All O(1):
    /// the counts are maintained incrementally, not recomputed per call.
    [[nodiscard]] int queued_job_count() const { return static_cast<int>(queue_.size()); }
    [[nodiscard]] int running_job_count() const { return static_cast<int>(running_count_); }
    [[nodiscard]] const HpcJob* first_queued_job() const { return queue_.head(); }

    [[nodiscard]] const std::vector<HpcNodeRecord>& node_records() const {
        return nodes_.records();
    }
    /// The owning HpcJob::id of each of the record's cores (0 = free).
    [[nodiscard]] std::span<const std::uint64_t> core_owners(const HpcNodeRecord& rec) const {
        return nodes_.owners(rec);
    }
    [[nodiscard]] int total_cores() const { return nodes_.total_cpus(); }
    /// Free cores across Online nodes. O(1): incrementally maintained.
    [[nodiscard]] int free_cores() const { return nodes_.free_cpus(); }
    /// Online nodes with zero allocation — OS-switch candidates.
    [[nodiscard]] std::vector<const HpcNodeRecord*> fully_idle_nodes() const {
        return nodes_.idle_records();
    }
    /// O(1) count of the above (the detector only needs the number).
    [[nodiscard]] int fully_idle_count() const {
        return static_cast<int>(nodes_.idle().count());
    }

    [[nodiscard]] util::Status set_node_online(const std::string& name, bool online);

    /// Test hook: cross-check every incremental shortcut (cached counts,
    /// aggregates, bitset membership, the queued list) against a brute-force
    /// recount each cycle and throw on divergence.
    void enable_consistency_checks(bool on) { consistency_checks_ = on; }

    [[nodiscard]] const HpcStats& stats() const { return stats_; }
    [[nodiscard]] sim::Engine& engine() { return engine_; }

    void on_job_terminal(std::function<void(const HpcJob&)> fn);

    /// One scheduler pass (normally automatic).
    void schedule_cycle();

    /// Cluster-manager-style text listing (`node list` view) for examples.
    [[nodiscard]] std::string node_list_output() const;

private:
    /// Allocate the records in placement_ (a try_place result) to `job` and
    /// run it.
    void start_job(HpcJob& job);
    void launch_next_task(int job_id);
    void finish_job(HpcJob& job, HpcJobState terminal, const char* why);
    void release_allocation(HpcJob& job);
    /// Cancel and forget the job's pending completion/task/limit events.
    void cancel_timers(HpcJob& job);
    /// Node transition handlers; attach_node binds each node's record index
    /// into the callbacks it registers.
    void handle_node_up(std::size_t idx, cluster::OsType os);
    void handle_node_down(std::size_t idx);
    void requeue_job(HpcJob& job);
    /// Fill placement_ with the records `job` would run on; false when it
    /// does not fit now.
    [[nodiscard]] bool try_place(const HpcJob& job);
    [[nodiscard]] std::optional<std::vector<int>> try_place_bruteforce(const HpcJob& job) const;
    /// Re-evaluate whether the record counts as Online after a reachability,
    /// admin or allocation change.
    void update_node_state(std::size_t idx);
    void verify_incremental_state() const;

    sim::Engine& engine_;
    HpcSchedulerConfig config_;
    cluster::NodeTable<HpcNodeRecord> nodes_;  ///< core owners hold HpcJob::id
    using JobTable = util::JobWindow<HpcJob, &HpcJob::id>;

    JobTable jobs_;  ///< every unpurged job; next_key() is the next id to issue
    HpcJobQueue queue_;  ///< kQueued jobs, id order
    std::vector<int> placement_;  ///< try_place's result; keeps its capacity
    std::size_t running_count_ = 0;
    bool consistency_checks_ = false;

    std::vector<std::function<void(const HpcJob&)>> terminal_subscribers_;
    bool in_cycle_ = false;
    bool cycle_again_ = false;
    HpcStats stats_;
    obs::Counter obs_cycles_;   ///< winhpc.sched.cycles (inert when obs is off)
    obs::TrackId obs_track_{};  ///< "winhpc/sched" trace row

public:
    /// World-snapshot hook, mirroring PbsServer::SavedState: the job table
    /// (deep copies of the unpurged jobs carry their pending EventIds but no
    /// queue links), the queued-list order and the node table. Pair with
    /// Engine::restore() of the calendar the ids point into.
    struct SavedState {
        JobTable::Saved table;  ///< ids [base, next), unpurged records in id order
        cluster::NodeTable<HpcNodeRecord>::Saved nodes;
        std::vector<int> queue_order;  ///< head→tail job-id list
        std::size_t running_count = 0;
        HpcStats stats;
    };
    [[nodiscard]] SavedState save_state() const;
    void restore_state(const SavedState& s);
};

}  // namespace hc::winhpc
