// The TORQUE/PBS-style batch server that owns the Linux side of the hybrid
// cluster: queues, node records, a strictly first-come-first-served
// scheduler (the paper: "the daemons for queue monitoring are still
// following the rule 'first-come first-serve'"), and the text command layer
// (pbsnodes / qstat -f) the detector scrapes because "PBS does not provide
// APIs for other programs".
//
// State is indexed for 100k-node / million-job scale: node lookups go
// through hash maps (never a pointer scan); jobs are keyed by their integer
// sequence number, never by the id string; placement walks a bitset fit
// index (one util::IndexBitset per free-CPU threshold) in ascending record
// order instead of every record; the scheduler walks an intrusive list of
// eligible queued jobs only; and the text layer re-renders just the stanzas
// whose backing state moved (see util::TextDocument and DESIGN.md "Indexed
// scheduler state").
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/node.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pbs/job.hpp"
#include "pbs/job_script.hpp"
#include "sim/engine.hpp"
#include "util/index_bitset.hpp"
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

/// Per-node bookkeeping.
struct NodeRecord {
    cluster::Node* node = nullptr;
    bool offline = false;        ///< admin flag (pbsnodes -o)
    std::vector<std::uint64_t> cpu_owner;  ///< owning Job::seq per cpu slot (0 = free)
    std::int64_t idle_since_unix = 0;
    std::vector<std::string> properties{"all"};

    // Incrementally maintained by the server (allocate/release/up/down), so
    // free_cpus() and the placement scan never re-count cpu_owner.
    int free_count = 0;       ///< cached number of empty cpu_owner slots
    bool in_free_agg = false; ///< contributing to the server's free-CPU total
    /// Number of fit-index levels holding this record: free_count while
    /// schedulable, else 0. The record is in fit level p for p <= fit_level.
    int fit_level = 0;

    /// Sim time of this node's last status report (the mom heartbeat the
    /// stanza's rectime/idletime/netload fields embed). Refreshed whenever
    /// the node's visible state changes, so a stanza is a pure function of
    /// the record — the precondition for incremental re-rendering.
    std::int64_t last_report_unix = 0;
    bool text_dirty = false;  ///< stanza needs re-rendering

    [[nodiscard]] int free_cpus() const { return free_count; }
    [[nodiscard]] int used_cpus() const {
        return static_cast<int>(cpu_owner.size()) - free_count;
    }
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
    /// cpu slot in NodeRecord::cpu_owner.
    std::uint64_t first_job_seq = 1185;
    /// Completed-job records retained before the oldest are purged from the
    /// server (0 = keep everything, the TORQUE-ish default). Million-job
    /// arrival streams set this so resident memory tracks the *active* set,
    /// not the lifetime total.
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
    [[nodiscard]] std::size_t queued_count() const { return eligible_count_; }
    [[nodiscard]] std::vector<const Job*> running_jobs() const;
    [[nodiscard]] std::vector<const Job*> all_jobs() const;

    [[nodiscard]] const std::vector<NodeRecord>& node_records() const { return nodes_; }
    [[nodiscard]] int total_cpus() const { return total_cpus_; }
    /// Free CPUs across schedulable (up, Linux, not offline) nodes. O(1):
    /// maintained incrementally on allocate/release and node transitions.
    [[nodiscard]] int free_cpus() const { return free_cpu_agg_; }
    /// Nodes in kFree with *all* cpus idle — candidates for an OS switch.
    /// Materialised from the incrementally maintained idle-node set.
    [[nodiscard]] const std::vector<const NodeRecord*>& fully_idle_nodes() const;

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
    friend struct PbsTextFormatter;

    [[nodiscard]] std::string make_job_id();
    /// The id this server gives job `seq`: "<seq>.<server_name>".
    [[nodiscard]] std::string job_id_for(std::uint64_t seq) const;
    /// Job by sequence number, or nullptr (purged or never issued). O(1).
    [[nodiscard]] Job* job_by_seq(std::uint64_t seq);
    [[nodiscard]] const Job* job_by_seq(std::uint64_t seq) const;
    void start_job(Job& job, const std::vector<int>& record_indices);
    void finish_job(Job& job, CompletionKind kind);
    void release_allocation(Job& job);
    /// Cancel and forget the job's pending completion/walltime events.
    void cancel_timers(std::uint64_t seq);
    void handle_node_up(cluster::Node& node, cluster::OsType os);
    void handle_node_down(cluster::Node& node);
    [[nodiscard]] std::optional<std::vector<int>> try_place(const Job& job) const;
    /// Index of the record for `node`, or npos when not attached. O(1).
    [[nodiscard]] std::size_t record_index_for(const cluster::Node& node) const;
    void request_cycle();

    /// Bump the mutation counter.
    void mark_mutation();
    /// Adjust a record's free count by `delta`, keep the aggregate exact,
    /// and update candidate-set membership + the node's dirty stanza.
    void adjust_free(std::size_t idx, int delta);
    /// Add/remove the record from the free-CPU aggregate (idempotent).
    void set_schedulable(std::size_t idx, bool schedulable);
    /// Recompute fit-index and idle-set membership from the record's counters.
    void update_node_sets(std::size_t idx);
    /// Mark the node's stanza dirty and refresh its report timestamp.
    void touch_node(std::size_t idx);
    /// Mark the job's qstat -f stanza dirty.
    void touch_job(Job& job);
    /// Drop the oldest completed records beyond the configured retention.
    void purge_completed();

    // ---- eligible-queue intrusive list (seq order, kQueued only) ----
    void queue_push_back(Job& job);
    void queue_insert_by_seq(Job& job);
    void queue_unlink(Job& job);

    /// Brute-force recount of free counts, aggregates, set memberships, the
    /// eligible list, and chunk freshness; throws on divergence from the
    /// incremental state (consistency-check hook).
    void verify_incremental_state() const;
    [[nodiscard]] std::optional<std::vector<int>> try_place_bruteforce(const Job& job) const;

    // ---- incremental text rendering (text_output.cpp) ----
    /// Render the stanza for one node / one active job.
    [[nodiscard]] std::string render_node_stanza(const NodeRecord& rec) const;
    [[nodiscard]] std::string render_job_stanza(const Job& job) const;
    [[nodiscard]] std::string render_qstat(bool& time_sensitive) const;
    /// Patch every dirty stanza into the documents (lazy, on output access).
    void refresh_documents() const;

    sim::Engine& engine_;
    PbsServerConfig config_;
    std::uint64_t next_seq_;
    std::vector<NodeRecord> nodes_;
    std::unordered_map<const cluster::Node*, std::size_t> node_index_;  ///< ptr → record
    std::unordered_map<std::string, std::size_t> name_index_;  ///< hostname/short → record
    std::unordered_map<std::uint64_t, std::unique_ptr<Job>> jobs_;  ///< by seq
    std::map<std::uint64_t, Job*> active_by_seq_;  ///< non-completed, seq order
    std::deque<std::uint64_t> completed_order_;    ///< seqs in completion order (retention)

    // Eligible queued jobs (state kQueued), seq order. Head/tail of the
    // intrusive list threaded through Job::queue_prev/queue_next.
    Job* queue_head_ = nullptr;
    Job* queue_tail_ = nullptr;
    std::size_t eligible_count_ = 0;
    std::uint64_t queue_unlinks_ = 0;  ///< guards cycle iteration vs. reentrant removal

    std::unordered_map<std::uint64_t, sim::EventId> completion_events_;  ///< by seq
    std::unordered_map<std::uint64_t, sim::EventId> walltime_events_;    ///< by seq
    void emit_event(JobEvent event, const Job& job);

    std::vector<std::function<void(const Job&)>> terminal_subscribers_;
    std::vector<std::function<void(JobEvent, const Job&)>> event_subscribers_;
    bool in_cycle_ = false;
    bool cycle_again_ = false;
    ServerStats stats_;
    obs::Counter obs_cycles_;   ///< pbs.sched.cycles (inert when obs is off)
    obs::TrackId obs_track_{};  ///< "pbs/sched" trace row

    std::uint64_t version_ = 0;     ///< monotonic mutation counter
    int total_cpus_ = 0;
    int free_cpu_agg_ = 0;          ///< free CPUs on schedulable nodes
    bool consistency_checks_ = false;

    // Fit index: fit_[p - 1] holds the schedulable records with
    // free_count >= p, so a job needing ppn cpus per node walks only
    // fit_[ppn - 1], in the same ascending-index order as the original full
    // scan. idle_ holds the schedulable records with every cpu free.
    std::vector<util::IndexBitset> fit_;
    util::IndexBitset idle_;
    mutable std::vector<const NodeRecord*> idle_cache_;
    mutable std::uint64_t idle_cache_version_ = ~0ull;

    // Dirty stanzas awaiting re-render (consumed by refresh_documents).
    mutable std::vector<int> dirty_nodes_;
    mutable std::vector<std::uint64_t> dirty_job_seqs_;
    mutable std::vector<std::uint64_t> removed_job_seqs_;
    mutable util::TextDocument pbsnodes_doc_;
    mutable util::TextDocument qstat_f_doc_;
    mutable TextStats text_stats_;

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
    /// mutable field — job records (deep copies), the eligible-queue order,
    /// node records, index sets, pending completion/walltime EventIds, the
    /// incremental text documents and their dirty lists — so a restore
    /// resumes byte-identically, including qstat/pbsnodes document versions
    /// the detector streams against. Node/name indices and subscribers are
    /// construction wiring and are left untouched. Must be taken/restored
    /// outside a scheduler cycle, paired with an Engine::restore() of the
    /// calendar the EventIds point into.
    struct SavedState {
        std::uint64_t next_seq = 0;
        std::vector<NodeRecord> nodes;
        std::vector<Job> jobs;
        std::vector<std::uint64_t> eligible_order;  ///< head→tail seq list
        std::deque<std::uint64_t> completed_order;
        std::uint64_t queue_unlinks = 0;
        std::unordered_map<std::uint64_t, sim::EventId> completion_events;
        std::unordered_map<std::uint64_t, sim::EventId> walltime_events;
        ServerStats stats;
        std::uint64_t version = 0;
        int free_cpu_agg = 0;
        std::vector<util::IndexBitset> fit;
        util::IndexBitset idle;
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
