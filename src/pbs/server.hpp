// The TORQUE/PBS-style batch server that owns the Linux side of the hybrid
// cluster: queues, node records, a strictly first-come-first-served
// scheduler (the paper: "the daemons for queue monitoring are still
// following the rule 'first-come first-serve'"), and the text command layer
// (pbsnodes / qstat -f) the detector scrapes because "PBS does not provide
// APIs for other programs".
//
// State is indexed for 100k-node / million-job scale: the nodes live in a
// cluster::NodeTable (name index, CPU owners, fit levels, idle set and free
// total), and placement walks the fit level for ppn in ascending record
// order instead of every record; jobs live in a util::JobWindow keyed by
// their integer sequence number, never by the id string, so every
// seq-ordered walk is a table walk; the scheduler walks a
// util::IntrusiveFifo of the eligible queued jobs only; and the text layer
// re-renders just the stanzas whose backing state moved (see
// util::TextDocument and DESIGN.md "Indexed scheduler state").
// HpcScheduler keeps its nodes and jobs in the same three templates.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/node_table.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pbs/job.hpp"
#include "pbs/job_script.hpp"
#include "sim/engine.hpp"
#include "util/intrusive_fifo.hpp"
#include "util/job_window.hpp"
#include "util/result.hpp"
#include "util/text_document.hpp"

namespace hc::pbs {

/// Administrative + derived state of one compute node as PBS sees it.
enum class NodeState {
    kFree,          ///< up, running Linux, has idle cores
    kJobExclusive,  ///< every core allocated
    kDown,          ///< mom not reporting (off, rebooting, or running Windows)
    kOffline,       ///< administratively disabled
};

[[nodiscard]] const char* node_state_name(NodeState s);

/// Per-node bookkeeping: the node table's part (CPU owners, free count,
/// fit level; counted = schedulable, i.e. up, Linux and not offline) plus
/// what only PBS keeps.
struct NodeRecord : cluster::NodeSlot {
    bool offline = false;      ///< admin flag (pbsnodes -o)
    bool text_dirty = false;   ///< stanza needs re-rendering

    std::int64_t idle_since_unix = 0;
    /// Sim time of this node's last status report (the mom heartbeat the
    /// stanza's rectime/idletime/netload fields embed). Refreshed whenever
    /// the node's visible state changes, so a stanza is a pure function of
    /// the record — the precondition for incremental re-rendering.
    std::int64_t last_report_unix = 0;
    std::vector<std::string> properties{"all"};

    [[nodiscard]] bool reachable() const;  ///< node up and running Linux
    [[nodiscard]] NodeState state() const;
    [[nodiscard]] bool has_properties(const std::vector<std::string>& required) const;
};

struct ServerStats {
    std::uint64_t submitted = 0;
    std::uint64_t started = 0;
    std::uint64_t completed_normal = 0;
    std::uint64_t deleted = 0;
    std::uint64_t aborted_node_failure = 0;
    std::uint64_t killed_walltime = 0;
    std::uint64_t requeued = 0;
    std::uint64_t scheduler_cycles = 0;
    std::uint64_t purged = 0;  ///< completed records dropped by retention
};

/// Text-layer work counters: how many stanzas were actually re-rendered.
/// The scale tests pin these — a steady-state poll must render nothing.
struct TextStats {
    std::uint64_t node_stanza_renders = 0;
    std::uint64_t job_stanza_renders = 0;
};

struct PbsServerConfig {
    std::string server_name = "eridani.qgg.hud.ac.uk";
    std::string default_queue = "default";
    bool strict_fifo = true;       ///< pure FCFS: blocked head blocks the queue
    bool enforce_walltime = true;
    /// Ids start near the paper's listings. Must be > 0: seq 0 marks a free
    /// cpu slot in the server's owner array.
    std::uint64_t first_job_seq = 1185;
    /// Completed-job records retained before the oldest are purged (0 = keep
    /// everything, the TORQUE-ish default); million-job arrival streams set
    /// it. A long-held job still pins the table's span (util::JobWindow).
    std::size_t completed_retention = 0;
};

class PbsServer {
public:
    PbsServer(sim::Engine& engine, PbsServerConfig config = {});

    PbsServer(const PbsServer&) = delete;
    PbsServer& operator=(const PbsServer&) = delete;

    [[nodiscard]] const std::string& server_name() const { return config_.server_name; }
    [[nodiscard]] const PbsServerConfig& server_config() const { return config_; }

    /// Register a compute node: subscribes to its up/down transitions so the
    /// record tracks reboots (the pbs_mom heartbeat).
    void attach_node(cluster::Node& node);

    /// qsub: parse a script and enqueue. Returns the new job id.
    [[nodiscard]] util::Result<std::string> qsub(const std::string& script_text,
                                                 const std::string& owner,
                                                 JobBehavior behavior = {});

    /// API-level submit for pre-parsed scripts (workload replay).
    [[nodiscard]] util::Result<std::string> submit(const JobScript& script,
                                                   const std::string& owner,
                                                   JobBehavior behavior = {});

    /// qdel: delete a job (kills it if running).
    [[nodiscard]] util::Status qdel(const std::string& job_id);

    /// qhold: place a user hold on a queued job (it keeps its queue slot but
    /// the scheduler skips it; under strict FIFO a held head job no longer
    /// blocks the queue — TORQUE behaviour).
    [[nodiscard]] util::Status qhold(const std::string& job_id);

    /// qrls: release a held job back to eligible-to-run.
    [[nodiscard]] util::Status qrls(const std::string& job_id);

    /// Administrative node control (pbsnodes -o / -c). O(1) name lookup.
    [[nodiscard]] util::Status set_node_offline(const std::string& hostname, bool offline);

    /// qmgr `set node <host> properties = ...`: replace the property list
    /// that placement filters on and the node's stanza shows. O(1) lookup.
    [[nodiscard]] util::Status set_node_properties(const std::string& hostname,
                                                   std::vector<std::string> properties);

    /// Job by its full id, or nullptr for any id this server never issued
    /// or has purged (malformed ids included).
    [[nodiscard]] Job* find_job(const std::string& job_id);
    [[nodiscard]] const Job* find_job(const std::string& job_id) const;

    /// Jobs currently queued, in service (arrival) order.
    [[nodiscard]] std::vector<const Job*> queued_jobs() const;
    /// Number of eligible queued jobs. O(1): the intrusive queue keeps a
    /// live count, so admission control (hc::serve overload shedding) can
    /// consult depth every cycle without materialising the job list.
    [[nodiscard]] std::size_t queued_count() const { return eligible_.size(); }
    [[nodiscard]] std::vector<const Job*> running_jobs() const;
    [[nodiscard]] std::vector<const Job*> all_jobs() const;

    [[nodiscard]] const std::vector<NodeRecord>& node_records() const { return nodes_.records(); }
    /// The owning Job::seq of each of the record's CPU slots (0 = free).
    [[nodiscard]] std::span<const std::uint64_t> cpu_owners(const NodeRecord& rec) const {
        return nodes_.owners(rec);
    }
    /// Append the job's exec_host, "host/3+host/2+..." as qstat -f prints it
    /// (Fig 8): for each record it holds, in placement order, the CPUs it
    /// owns there from the top down, the order start_job hands them out.
    /// Empty unless the job holds an allocation.
    void append_exec_host(const Job& job, std::string& out) const;
    /// Cluster node index of the job's i-th placement record.
    [[nodiscard]] int exec_node_index(const Job& job, std::size_t i) const {
        return nodes_[static_cast<std::size_t>(job.exec_records.span()[i])].node->index();
    }
    [[nodiscard]] int total_cpus() const { return nodes_.total_cpus(); }
    /// Free CPUs across schedulable (up, Linux, not offline) nodes. O(1):
    /// maintained incrementally on allocate/release and node transitions.
    [[nodiscard]] int free_cpus() const { return nodes_.free_cpus(); }
    /// Nodes in kFree with *all* cpus idle — candidates for an OS switch,
    /// listed from the node table's idle set.
    [[nodiscard]] std::vector<const NodeRecord*> fully_idle_nodes() const {
        return nodes_.idle_records();
    }

    /// Monotonic mutation counter: bumps on every externally visible state
    /// change (job lifecycle, node transitions, admin commands). The text
    /// layer re-renders only when this moved; tests use it to pin caching.
    [[nodiscard]] std::uint64_t version() const { return version_; }

    /// Test hook: cross-check every incremental shortcut against the
    /// original brute-force logic (placement rescans, aggregate recounts,
    /// index-set membership, text-chunk freshness) and throw on divergence.
    void enable_consistency_checks(bool on) { consistency_checks_ = on; }

    [[nodiscard]] const ServerStats& stats() const { return stats_; }
    [[nodiscard]] sim::Engine& engine() { return engine_; }

    /// Subscribe to terminal job transitions (metrics collectors).
    void on_job_terminal(std::function<void(const Job&)> fn);

    /// Job lifecycle events, in the order the server's accounting sees them.
    enum class JobEvent {
        kQueued,    ///< accepted by qsub (accounting 'Q')
        kStarted,   ///< allocation made, script launched ('S')
        kEnded,     ///< ran to completion ('E')
        kDeleted,   ///< removed by qdel ('D')
        kAborted,   ///< killed by node failure or walltime ('A')
        kRequeued,  ///< rerunnable job returned to the queue ('R')
    };

    /// Subscribe to every lifecycle event (the accounting log uses this).
    void on_job_event(std::function<void(JobEvent, const Job&)> fn);

    /// Run one scheduler pass now. Normally triggered automatically by
    /// submissions, completions, and node-up events.
    void schedule_cycle();

    // ---- text command layer (Figs 7 & 8), implemented in text_output.cpp ----

    /// `pbsnodes` (all nodes, long format). Assembled from the chunk
    /// document; only dirty stanzas are re-rendered first.
    [[nodiscard]] const std::string& pbsnodes_output() const;

    /// `qstat -f` (full display of queued + running jobs, id order).
    [[nodiscard]] const std::string& qstat_f_output() const;

    /// Plain `qstat` (the brief table users run by hand).
    [[nodiscard]] std::string qstat_output() const;

    /// Chunked views of the same outputs for incremental consumers (the
    /// detector): one chunk per node / per active job, stamped per change.
    /// Refreshes dirty stanzas on access, exactly like the string API.
    [[nodiscard]] const util::TextDocument& pbsnodes_document() const;
    [[nodiscard]] const util::TextDocument& qstat_f_document() const;

    [[nodiscard]] const TextStats& text_stats() const { return text_stats_; }
    [[nodiscard]] const util::TextDocument::Stats& pbsnodes_doc_stats() const {
        return pbsnodes_doc_.stats();
    }

    /// Reference renders that rebuild the full output from primary state,
    /// bypassing every document/dirty-tracking shortcut. The churn tests
    /// compare these byte-for-byte against the incremental assembly.
    [[nodiscard]] std::string debug_full_render_pbsnodes() const;
    [[nodiscard]] std::string debug_full_render_qstat_f() const;

private:
    /// Append the id this server gives job `seq` ("<seq>.<server_name>").
    void append_job_id(std::string& out, std::uint64_t seq) const;
    /// Allocate the records in placement_ (a try_place result) to `job` and
    /// run it.
    void start_job(Job& job);
    void finish_job(Job& job, CompletionKind kind);
    void release_allocation(Job& job);
    /// Cancel and forget the job's pending completion/walltime events.
    void cancel_timers(Job& job);
    /// Node transition handlers; attach_node binds each node's record index
    /// into the callbacks it registers.
    void handle_node_up(std::size_t idx, cluster::OsType os);
    void handle_node_down(std::size_t idx);
    /// Fill placement_ with the records `job` would run on; false when it
    /// does not fit now.
    [[nodiscard]] bool try_place(const Job& job);
    void request_cycle();

    /// Bump the mutation counter.
    void mark_mutation();
    /// Count the record as schedulable when `schedulable` and not offline
    /// (idempotent), and dirty its stanza.
    void set_schedulable(std::size_t idx, bool schedulable);
    /// Mark the node's stanza dirty and refresh its report timestamp.
    void touch_node(std::size_t idx);
    /// Mark the job's qstat -f stanza dirty.
    void touch_job(Job& job);

    /// Brute-force check of the node table, the placements, the eligible
    /// list and chunk freshness; throws on divergence from the incremental
    /// state (consistency-check hook).
    void verify_incremental_state() const;
    [[nodiscard]] std::optional<std::vector<int>> try_place_bruteforce(const Job& job) const;

    // ---- incremental text rendering (text_output.cpp) ----
    /// Append the stanza for one node / one active job to `out`.
    void render_node_stanza(const NodeRecord& rec, std::string& out) const;
    void render_job_stanza(const Job& job, std::string& out) const;
    [[nodiscard]] std::string render_qstat(bool& time_sensitive) const;
    /// Patch every dirty stanza into the documents (lazy, on output access).
    void refresh_documents() const;

    sim::Engine& engine_;
    PbsServerConfig config_;
    /// CPU owners hold Job::seq. Placement walks fit level ppn in ascending
    /// record order, the order of a full scan.
    cluster::NodeTable<NodeRecord> nodes_;
    using JobTable = util::JobWindow<Job, &Job::seq>;
    using EligibleQueue = util::IntrusiveFifo<Job, &Job::queue_link, &Job::seq>;

    JobTable jobs_;  ///< every unpurged job; next_key() is the next seq to issue
    EligibleQueue eligible_;  ///< kQueued jobs, seq order
    std::vector<int> placement_;  ///< try_place's result; keeps its capacity

    void emit_event(JobEvent event, const Job& job);

    std::vector<std::function<void(const Job&)>> terminal_subscribers_;
    std::vector<std::function<void(JobEvent, const Job&)>> event_subscribers_;
    bool in_cycle_ = false;
    bool cycle_again_ = false;
    ServerStats stats_;
    obs::Counter obs_cycles_;   ///< pbs.sched.cycles (inert when obs is off)
    obs::TrackId obs_track_{};  ///< "pbs/sched" trace row

    std::uint64_t version_ = 0;     ///< monotonic mutation counter
    bool consistency_checks_ = false;

    // Dirty stanzas awaiting re-render (consumed by refresh_documents).
    mutable std::vector<int> dirty_nodes_;
    mutable std::vector<std::uint64_t> dirty_job_seqs_;
    mutable std::vector<std::uint64_t> removed_job_seqs_;
    mutable util::TextDocument pbsnodes_doc_;
    mutable util::TextDocument qstat_f_doc_;
    mutable TextStats text_stats_;
    mutable std::string render_buf_;  ///< one stanza at a time; keeps its capacity

    // Brief qstat stays a whole-string memoized render (human-facing only).
    struct TextCache {
        std::uint64_t version = ~0ull;  ///< server version the text was built at
        std::int64_t now_unix = -1;     ///< sim time it was built at
        bool time_sensitive = false;    ///< render embeds the current clock
        std::string text;
    };
    mutable TextCache qstat_cache_;

public:
    /// World-snapshot hook (DESIGN.md "Snapshot / fork"). Captures every
    /// mutable field — the job table (its seq window, retention queue and
    /// deep copies of the unpurged records, which carry their pending
    /// completion/walltime EventIds and placement record indices but no
    /// queue links), the eligible-queue order, the node table (records, CPU
    /// owners, fit levels, idle set, free total), the incremental text
    /// documents and their dirty lists — so a restore resumes
    /// byte-identically, including the qstat/pbsnodes document versions the
    /// detector streams against. The name index and subscribers are
    /// construction wiring and are left untouched; node records point into
    /// the nodes (NodeRecord::node), so a
    /// snapshot is restored only into the world that took it. Must be
    /// taken/restored outside a scheduler cycle, paired with an
    /// Engine::restore() of the calendar the EventIds point into.
    struct SavedState {
        JobTable::Saved table;  ///< seqs [base, next), unpurged records in seq order
        cluster::NodeTable<NodeRecord>::Saved nodes;
        std::vector<std::uint64_t> eligible_order;  ///< head→tail seq list
        ServerStats stats;
        std::uint64_t version = 0;
        std::vector<int> dirty_nodes;
        std::vector<std::uint64_t> dirty_job_seqs;
        std::vector<std::uint64_t> removed_job_seqs;
        util::TextDocument pbsnodes_doc;
        util::TextDocument qstat_f_doc;
        TextStats text_stats;
        TextCache qstat_cache;
    };
    [[nodiscard]] SavedState save_state() const;
    void restore_state(const SavedState& s);
};

}  // namespace hc::pbs
