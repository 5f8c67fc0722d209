#include "pbs/server.hpp"

#include <algorithm>
#include <charconv>
#include <utility>

#include "util/errors.hpp"
#include "util/strings.hpp"

namespace hc::pbs {

using cluster::Node;
using cluster::OsType;
using util::Error;
using util::Result;
using util::Status;

const char* node_state_name(NodeState s) {
    switch (s) {
        case NodeState::kFree: return "free";
        case NodeState::kJobExclusive: return "job-exclusive";
        case NodeState::kDown: return "down";
        case NodeState::kOffline: return "offline";
    }
    return "?";
}

bool NodeRecord::reachable() const {
    return node != nullptr && node->is_up() && node->os() == OsType::kLinux;
}

NodeState NodeRecord::state() const {
    if (offline) return NodeState::kOffline;
    if (!reachable()) return NodeState::kDown;
    return free_cpus() == 0 ? NodeState::kJobExclusive : NodeState::kFree;
}

bool NodeRecord::has_properties(const std::vector<std::string>& required) const {
    for (const auto& want : required)
        if (std::find(properties.begin(), properties.end(), want) == properties.end())
            return false;
    return true;
}

PbsServer::PbsServer(sim::Engine& engine, PbsServerConfig config)
    : engine_(engine),
      config_(std::move(config)),
      jobs_(config_.first_job_seq, config_.completed_retention) {
    util::require(!config_.server_name.empty(), "PbsServer: server_name required");
    util::require(config_.first_job_seq > 0, "PbsServer: first_job_seq must be > 0");
    obs::Hub& hub = engine_.obs();
    obs_cycles_ = hub.metrics().counter("pbs.sched.cycles");
    obs_track_ = hub.tracer().track("pbs/sched");
    // Queue-state gauges are computed at snapshot time only, keeping the
    // scheduler's hot path free of bookkeeping.
    hub.metrics().add_provider([this](obs::Registry& reg) {
        reg.gauge("pbs.queue.depth").set(static_cast<double>(eligible_.size()));
        reg.gauge("pbs.free_cpus").set(static_cast<double>(nodes_.free_cpus()));
        reg.gauge("pbs.jobs.started").set(static_cast<double>(stats_.started));
        reg.gauge("pbs.jobs.completed").set(static_cast<double>(stats_.completed_normal));
    });
}

void PbsServer::attach_node(Node& node) {
    NodeRecord rec;
    rec.idle_since_unix = engine_.unix_now();
    const std::size_t idx = nodes_.attach(node, std::move(rec));
    set_schedulable(idx, nodes_[idx].reachable());
    node.on_up([this, idx](Node&, OsType os) { handle_node_up(idx, os); });
    node.on_down([this, idx](Node&) { handle_node_down(idx); });
    mark_mutation();
}

void PbsServer::mark_mutation() { ++version_; }

void PbsServer::touch_node(std::size_t idx) {
    NodeRecord& rec = nodes_[idx];
    rec.last_report_unix = engine_.unix_now();
    if (!rec.text_dirty) {
        rec.text_dirty = true;
        dirty_nodes_.push_back(static_cast<int>(idx));
    }
}

void PbsServer::touch_job(Job& job) {
    if (!job.text_dirty) {
        job.text_dirty = true;
        dirty_job_seqs_.push_back(job.seq);
    }
}

void PbsServer::set_schedulable(std::size_t idx, bool schedulable) {
    nodes_.set_counted(idx, schedulable && !nodes_[idx].offline);
    touch_node(idx);
}

void PbsServer::verify_incremental_state() const {
    nodes_.verify([](const NodeRecord& rec) { return rec.reachable() && !rec.offline; });
    int used = 0;
    std::string fresh;  // a stanza rendered from primary state
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const NodeRecord& rec = nodes_[i];
        used += rec.used_cpus();
        // A clean stanza must equal a fresh render of the record.
        if (!rec.text_dirty) {
            const auto* chunk = pbsnodes_doc_.find(static_cast<util::TextDocument::Key>(i));
            fresh.clear();
            render_node_stanza(rec, fresh);
            util::ensure(chunk != nullptr && chunk->text == fresh,
                         "consistency: clean pbsnodes stanza diverged from state");
        }
    }

    // Beyond their own checks: retired jobs are completed, queued ones linked.
    jobs_.verify([](const Job& job) { return job.state == JobState::kCompleted; });
    eligible_.verify();
    std::size_t queued = 0;
    int held_by_running = 0;
    std::string reference;  // exec_host rebuilt bottom-up, then reversed per record
    jobs_.for_each([&](const Job& job) {
        util::ensure(EligibleQueue::linked(job) == (job.state == JobState::kQueued),
                     "consistency: eligible-list membership diverged from job state");
        // Placement: a running job holds `nodes` distinct records and exactly
        // ppn CPUs on each; any other job holds none.
        const auto records = job.exec_records.span();
        const bool runs = job.state == JobState::kRunning || job.state == JobState::kExiting;
        if (!runs) {
            util::ensure(records.empty(), "consistency: a job that is not running holds records");
        } else {
            util::ensure(static_cast<int>(records.size()) == job.resources.nodes,
                         "consistency: a running job holds the wrong number of records");
            reference.clear();
            for (const int r : records) {
                util::ensure(r >= 0 && static_cast<std::size_t>(r) < nodes_.size() &&
                                 std::count(records.begin(), records.end(), r) == 1,
                             "consistency: a running job's records are not distinct records");
                const NodeRecord& rec = nodes_[static_cast<std::size_t>(r)];
                const auto owners = cpu_owners(rec);
                std::vector<int> mine;
                for (std::size_t cpu = 0; cpu < owners.size(); ++cpu)
                    if (owners[cpu] == job.seq) mine.push_back(static_cast<int>(cpu));
                util::ensure(static_cast<int>(mine.size()) == job.resources.ppn,
                             "consistency: a running job does not own ppn CPUs on its record");
                for (auto cpu = mine.rbegin(); cpu != mine.rend(); ++cpu) {
                    if (!reference.empty()) reference += '+';
                    reference += rec.node->hostname();
                    reference += '/';
                    util::append_int(reference, *cpu);
                }
            }
            held_by_running += job.resources.total_cpus();
            fresh.clear();
            append_exec_host(job, fresh);
            util::ensure(fresh == reference,
                         "consistency: exec_host is not the job's CPUs, highest first per record");
        }
        if (job.state == JobState::kCompleted) return;
        if (job.state == JobState::kQueued) ++queued;
        if (!job.text_dirty) {
            const auto* chunk = qstat_f_doc_.find(job.seq);
            fresh.clear();
            render_job_stanza(job, fresh);
            util::ensure(chunk != nullptr && chunk->text == fresh,
                         "consistency: clean qstat -f stanza diverged from state");
        }
    });
    util::ensure(queued == eligible_.size(),
                 "consistency: a queued job is missing from the eligible list");
    // Each running job owns exactly its nodes x ppn slots on its records
    // (above), so equal totals leave no slot owned by anything else.
    util::ensure(used == held_by_running,
                 "consistency: a CPU slot is owned outside the running jobs' placements");
}

void PbsServer::append_job_id(std::string& out, std::uint64_t seq) const {
    util::append_int(out, seq);
    out += '.';
    out += config_.server_name;
}

Result<std::string> PbsServer::qsub(const std::string& script_text, const std::string& owner,
                                    JobBehavior behavior) {
    auto script = JobScript::parse(script_text);
    if (!script) return Error{"qsub: " + script.error_message()};
    return submit(script.value(), owner, std::move(behavior));
}

Result<std::string> PbsServer::submit(const JobScript& script, const std::string& owner,
                                      JobBehavior behavior) {
    if (owner.empty()) return Error{"submit: owner required"};
    auto job = std::make_unique<Job>();
    job->seq = jobs_.next_key();
    append_job_id(job->id, job->seq);
    job->name = script.name;
    job->owner = owner;
    if (owner.find('@') == std::string::npos) {
        job->owner += '@';
        job->owner += config_.server_name;
    }
    job->queue = script.queue.empty() ? config_.default_queue : script.queue;
    job->resources = script.resources;
    job->rerunnable = script.rerunnable;
    job->join_oe = script.join_oe;
    job->output_path = script.output_path;
    job->qtime_unix = engine_.unix_now();
    job->behavior = std::move(behavior);

    std::string id = job->id;
    Job* raw = &jobs_.push(std::move(job));
    eligible_.push_back(*raw);  // new seqs are monotonic, so append keeps order
    touch_job(*raw);
    ++stats_.submitted;
    mark_mutation();
    if (engine_.logger().enabled(util::LogLevel::kDebug))
        engine_.logger().debug("pbs/" + config_.server_name, "qsub " + id);
    emit_event(JobEvent::kQueued, *raw);
    request_cycle();
    return id;
}

Status PbsServer::qdel(const std::string& job_id) {
    Job* job = find_job(job_id);
    if (job == nullptr) return Error{"qdel: unknown job " + job_id};
    switch (job->state) {
        case JobState::kQueued:
        case JobState::kHeld:
        case JobState::kRunning:
        case JobState::kExiting:
            finish_job(*job, CompletionKind::kDeleted);
            return Status::ok_status();
        case JobState::kCompleted:
            return Error{"qdel: job already completed: " + job_id};
    }
    return Error{"qdel: bad state"};
}

Status PbsServer::qhold(const std::string& job_id) {
    Job* job = find_job(job_id);
    if (job == nullptr) return Error{"qhold: unknown job " + job_id};
    if (job->state != JobState::kQueued)
        return Error{"qhold: job not in a holdable state: " + job_id};
    job->state = JobState::kHeld;
    eligible_.unlink(*job);  // held jobs are invisible to the scheduler walk
    touch_job(*job);
    mark_mutation();
    if (engine_.logger().enabled(util::LogLevel::kDebug))
        engine_.logger().debug("pbs/" + config_.server_name, "hold " + job_id);
    // Holding the head job can unblock the rest of a strict-FIFO queue.
    request_cycle();
    return Status::ok_status();
}

Status PbsServer::qrls(const std::string& job_id) {
    Job* job = find_job(job_id);
    if (job == nullptr) return Error{"qrls: unknown job " + job_id};
    if (job->state != JobState::kHeld) return Error{"qrls: job not held: " + job_id};
    job->state = JobState::kQueued;
    eligible_.insert_by_key(*job);  // back to its arrival slot
    touch_job(*job);
    mark_mutation();
    if (engine_.logger().enabled(util::LogLevel::kDebug))
        engine_.logger().debug("pbs/" + config_.server_name, "release " + job_id);
    request_cycle();
    return Status::ok_status();
}

Status PbsServer::set_node_offline(const std::string& hostname, bool offline) {
    const std::size_t idx = nodes_.find(hostname);
    if (idx == nodes_.npos) return Error{"unknown node: " + hostname};
    NodeRecord& rec = nodes_[idx];
    rec.offline = offline;
    set_schedulable(idx, rec.reachable());
    mark_mutation();
    if (!offline) request_cycle();
    return Status::ok_status();
}

Status PbsServer::set_node_properties(const std::string& hostname,
                                      std::vector<std::string> properties) {
    const std::size_t idx = nodes_.find(hostname);
    if (idx == nodes_.npos) return Error{"unknown node: " + hostname};
    nodes_[idx].properties = std::move(properties);
    touch_node(idx);
    mark_mutation();
    request_cycle();  // a blocked job may match the new properties
    return Status::ok_status();
}

Job* PbsServer::find_job(const std::string& job_id) {
    return const_cast<Job*>(std::as_const(*this).find_job(job_id));
}

const Job* PbsServer::find_job(const std::string& job_id) const {
    // Ids are "<seq>.<server>": the leading digits pick the record, the full
    // compare rejects a wrong suffix, a bare seq or a non-canonical number.
    std::uint64_t seq = 0;
    const std::from_chars_result parsed =
        std::from_chars(job_id.data(), job_id.data() + job_id.size(), seq);
    if (parsed.ec != std::errc{}) return nullptr;
    const Job* job = jobs_.find(seq);
    return job != nullptr && job->id == job_id ? job : nullptr;
}

std::vector<const Job*> PbsServer::queued_jobs() const {
    std::vector<const Job*> out;
    out.reserve(eligible_.size());
    for (const Job* j = eligible_.head(); j != nullptr; j = EligibleQueue::next(*j))
        out.push_back(j);
    return out;
}

std::vector<const Job*> PbsServer::running_jobs() const {
    std::vector<const Job*> out;
    jobs_.for_each([&out](const Job& job) {
        if (job.state == JobState::kRunning || job.state == JobState::kExiting)
            out.push_back(&job);
    });
    return out;
}

std::vector<const Job*> PbsServer::all_jobs() const {
    std::vector<const Job*> out;
    jobs_.for_each([&out](const Job& job) { out.push_back(&job); });
    return out;
}

void PbsServer::on_job_terminal(std::function<void(const Job&)> fn) {
    terminal_subscribers_.push_back(std::move(fn));
}

void PbsServer::on_job_event(std::function<void(JobEvent, const Job&)> fn) {
    event_subscribers_.push_back(std::move(fn));
}

void PbsServer::emit_event(JobEvent event, const Job& job) {
    for (const auto& fn : event_subscribers_) fn(event, job);
}

bool PbsServer::try_place(const Job& job) {
    // Each of the `nodes` chunks goes on a distinct node with >= ppn free
    // cpus and the required properties. Candidates come from the fit level
    // for ppn (ascending index, same visit order as a full scan), so every
    // candidate has room and only the property filter can skip one.
    std::vector<int>& chosen = placement_;
    chosen.clear();
    const util::IndexBitset& fit = nodes_.fit(std::max(job.resources.ppn, 1));
    for (std::size_t idx = fit.next(0);
         idx != util::IndexBitset::npos && static_cast<int>(chosen.size()) < job.resources.nodes;
         idx = fit.next(idx + 1)) {
        if (!nodes_[idx].has_properties(job.resources.properties)) continue;
        chosen.push_back(static_cast<int>(idx));
    }
    return static_cast<int>(chosen.size()) >= job.resources.nodes;
}

std::optional<std::vector<int>> PbsServer::try_place_bruteforce(const Job& job) const {
    // The pre-optimization placement logic, kept as the reference for the
    // consistency-check hook: recounts the owner slots instead of trusting the
    // cached free counts. Must stay byte-for-byte equivalent in outcome.
    std::vector<int> chosen;
    for (std::size_t i = 0; i < nodes_.size() && static_cast<int>(chosen.size()) < job.resources.nodes;
         ++i) {
        const NodeRecord& rec = nodes_[i];
        if (rec.offline || !rec.reachable()) continue;
        const auto owners = cpu_owners(rec);
        const int free =
            static_cast<int>(std::count(owners.begin(), owners.end(), std::uint64_t{0}));
        if (free == 0) continue;  // kJobExclusive, not kFree
        if (free < job.resources.ppn) continue;
        if (!rec.has_properties(job.resources.properties)) continue;
        chosen.push_back(static_cast<int>(i));
    }
    if (static_cast<int>(chosen.size()) < job.resources.nodes) return std::nullopt;
    return chosen;
}

void PbsServer::schedule_cycle() {
    if (in_cycle_) {
        cycle_again_ = true;
        return;
    }
    in_cycle_ = true;
    // One span covers the whole pass (including re-runs); inert when tracing
    // is off — this is the bench_p1_hotpath path, keep it lean.
    obs::Tracer::Span cycle_span = engine_.obs().tracer().span(obs_track_, "cycle");
    do {
        cycle_again_ = false;
        ++stats_.scheduler_cycles;
        obs_cycles_.inc();
        if (consistency_checks_) verify_incremental_state();
        // Walk the eligible list head-first. Held jobs were unlinked at
        // qhold time, so (TORQUE behaviour) they neither block nor slow a
        // strict-FIFO pass; with strict FIFO a blocked head stops the pass
        // (this is what makes a queue "stuck" in the Fig 5 sense).
        Job* next = eligible_.head();
        while (next != nullptr) {
            Job* job = next;
            next = EligibleQueue::next(*job);
            // Aggregate early-exit: the free-CPU total is an upper bound on
            // what any placement can use, so a request above it cannot fit
            // and the node scan is skipped. In the stuck steady state this
            // makes the whole cycle O(1).
            const bool placed =
                job->resources.total_cpus() <= nodes_.free_cpus() && try_place(*job);
            if (consistency_checks_) {
                const auto reference = try_place_bruteforce(*job);
                util::ensure(placed == reference.has_value() &&
                                 (!placed || placement_ == *reference),
                             "consistency: incremental placement diverged from brute force");
            }
            if (!placed) {
                if (config_.strict_fifo) break;
                continue;
            }
            // start_job runs the job's on_start hook, which may mutate the
            // queue (qdel/qhold of any job — including `next`). Detect that
            // via the unlink epoch and restart the pass from the new head.
            const std::uint64_t unlinks_before = eligible_.unlinks();
            eligible_.unlink(*job);
            start_job(*job);
            if (eligible_.unlinks() != unlinks_before + 1) {
                cycle_again_ = true;
                break;
            }
        }
    } while (cycle_again_);
    in_cycle_ = false;
}

void PbsServer::request_cycle() { schedule_cycle(); }

void PbsServer::start_job(Job& job) {
    job.state = JobState::kRunning;
    job.stime_unix = engine_.unix_now();
    for (const int idx : placement_) {
        // TORQUE hands out cpu indices descending (Fig 8: .../3+.../2+...).
        const int assigned = nodes_.take(static_cast<std::size_t>(idx), job.seq,
                                         job.resources.ppn, cluster::CpuOrder::kHighFirst);
        util::ensure(assigned == job.resources.ppn, "start_job: placement raced allocation");
        touch_node(static_cast<std::size_t>(idx));
    }
    job.exec_records.assign(placement_);
    ++stats_.started;
    touch_job(job);
    mark_mutation();
    if (engine_.logger().enabled(util::LogLevel::kDebug)) {
        std::string line = "run " + job.id + " on ";
        append_exec_host(job, line);
        engine_.logger().debug("pbs/" + config_.server_name, line);
    }
    emit_event(JobEvent::kStarted, job);

    if (job.behavior.on_start) job.behavior.on_start(job);

    // Natural completion.
    const std::uint64_t seq = job.seq;
    job.completion_event = engine_.schedule_after(job.behavior.run_time, [this, seq] {
        Job* j = jobs_.find(seq);
        if (j != nullptr && j->state == JobState::kRunning)
            finish_job(*j, CompletionKind::kNormal);
    });

    // Walltime enforcement.
    if (config_.enforce_walltime && job.resources.walltime.has_value() &&
        *job.resources.walltime < job.behavior.run_time) {
        job.walltime_event = engine_.schedule_after(*job.resources.walltime, [this, seq] {
            Job* j = jobs_.find(seq);
            if (j != nullptr && j->state == JobState::kRunning)
                finish_job(*j, CompletionKind::kWalltime);
        });
    }
}

void PbsServer::cancel_timers(Job& job) {
    engine_.cancel(std::exchange(job.completion_event, {}));
    engine_.cancel(std::exchange(job.walltime_event, {}));
}

void PbsServer::append_exec_host(const Job& job, std::string& out) const {
    bool first = true;
    for (const int idx : job.exec_records.span()) {
        const NodeRecord& rec = nodes_[static_cast<std::size_t>(idx)];
        const auto owner = cpu_owners(rec);
        for (int cpu = rec.np - 1; cpu >= 0; --cpu) {
            if (owner[cpu] != job.seq) continue;
            if (!first) out += '+';
            first = false;
            out += rec.node->hostname();
            out += '/';
            util::append_int(out, cpu);
        }
    }
}

void PbsServer::release_allocation(Job& job) {
    // O(allocated): only the records the job holds are touched, each from
    // the top down (where start_job put the job's CPUs) until its ppn CPUs
    // are free.
    for (const int r : job.exec_records.span()) {
        const auto idx = static_cast<std::size_t>(r);
        if (nodes_.release(idx, job.seq, job.resources.ppn) == 0) continue;
        NodeRecord& rec = nodes_[idx];
        if (rec.used_cpus() == 0) rec.idle_since_unix = engine_.unix_now();
        touch_node(idx);
    }
    job.exec_records.clear();
}

void PbsServer::finish_job(Job& job, CompletionKind kind) {
    cancel_timers(job);
    eligible_.unlink(job);  // no-op unless the job was still queued
    release_allocation(job);
    job.state = JobState::kCompleted;
    job.completion = kind;
    job.etime_unix = engine_.unix_now();
    removed_job_seqs_.push_back(job.seq);  // drop its qstat -f stanza
    job.text_dirty = false;  // completed jobs never re-render
    jobs_.retire(job.seq);
    mark_mutation();
    switch (kind) {
        case CompletionKind::kNormal: ++stats_.completed_normal; break;
        case CompletionKind::kDeleted: ++stats_.deleted; break;
        case CompletionKind::kNodeFailure: ++stats_.aborted_node_failure; break;
        case CompletionKind::kWalltime: ++stats_.killed_walltime; break;
        case CompletionKind::kNone: break;
    }
    if (engine_.logger().enabled(util::LogLevel::kDebug))
        engine_.logger().debug("pbs/" + config_.server_name, "job " + job.id + " completed (" +
                                                                 completion_kind_name(kind) + ")");
    switch (kind) {
        case CompletionKind::kNormal: emit_event(JobEvent::kEnded, job); break;
        case CompletionKind::kDeleted: emit_event(JobEvent::kDeleted, job); break;
        case CompletionKind::kNodeFailure:
        case CompletionKind::kWalltime: emit_event(JobEvent::kAborted, job); break;
        case CompletionKind::kNone: break;
    }
    if (job.behavior.on_finish) job.behavior.on_finish(job);
    for (const auto& fn : terminal_subscribers_) fn(job);
    request_cycle();
    // Last: `job` may be destroyed here (it is completed, so it is purge
    // eligible). Nothing below may touch it.
    stats_.purged += jobs_.purge();
}

void PbsServer::handle_node_up(std::size_t idx, OsType os) {
    NodeRecord& rec = nodes_[idx];
    set_schedulable(idx, rec.reachable());
    mark_mutation();
    if (os == OsType::kLinux) {
        rec.idle_since_unix = engine_.unix_now();
        touch_node(idx);
        request_cycle();
    }
    // A node that came up in Windows stays kDown from PBS's point of view;
    // set_schedulable saw reachable() == false and left it out of the
    // aggregate — state() derives the rest from the node itself.
}

void PbsServer::handle_node_down(std::size_t idx) {
    // Drop the node from the free-CPU aggregate *before* releasing victim
    // allocations, so the frees below don't count toward schedulable CPUs.
    set_schedulable(idx, false);
    mark_mutation();
    // Abort or requeue every job with an allocation on this node.
    std::vector<std::uint64_t> victims;
    for (const std::uint64_t owner : cpu_owners(nodes_[idx]))
        if (owner != 0 && std::find(victims.begin(), victims.end(), owner) == victims.end())
            victims.push_back(owner);
    for (const std::uint64_t seq : victims) {
        Job* job = jobs_.find(seq);
        if (job == nullptr || job->state != JobState::kRunning) continue;
        if (job->rerunnable) {
            // Requeue: release everything, restore queued state. The job
            // keeps its original qtime, so FCFS order is preserved (it goes
            // back to the head region of the queue by seq order).
            cancel_timers(*job);
            release_allocation(*job);
            job->state = JobState::kQueued;
            job->stime_unix = 0;
            ++job->requeue_count;
            ++stats_.requeued;
            // Reinsert preserving seq (arrival) order among queued jobs.
            eligible_.insert_by_key(*job);
            touch_job(*job);
            if (engine_.logger().enabled(util::LogLevel::kInfo))
                engine_.logger().info("pbs/" + config_.server_name,
                                      "requeued " + job->id + " after node failure");
            emit_event(JobEvent::kRequeued, *job);
        } else {
            finish_job(*job, CompletionKind::kNodeFailure);
        }
    }
    request_cycle();
}

PbsServer::SavedState PbsServer::save_state() const {
    util::require(!in_cycle_, "PbsServer::save_state: cannot snapshot mid-cycle");
    SavedState s;
    s.table = jobs_.save();
    s.nodes = nodes_.save();
    s.eligible_order = eligible_.keys();
    s.stats = stats_;
    s.version = version_;
    s.dirty_nodes = dirty_nodes_;
    s.dirty_job_seqs = dirty_job_seqs_;
    s.removed_job_seqs = removed_job_seqs_;
    s.pbsnodes_doc = pbsnodes_doc_;
    s.qstat_f_doc = qstat_f_doc_;
    s.text_stats = text_stats_;
    s.qstat_cache = qstat_cache_;
    return s;
}

void PbsServer::restore_state(const SavedState& s) {
    util::require(!in_cycle_, "PbsServer::restore_state: cannot restore mid-cycle");
    nodes_.restore(s.nodes);
    jobs_.restore(s.table);
    eligible_.relink(s.eligible_order, [this](std::uint64_t seq) { return jobs_.find(seq); });
    in_cycle_ = false;
    cycle_again_ = false;
    stats_ = s.stats;
    version_ = s.version;
    dirty_nodes_ = s.dirty_nodes;
    dirty_job_seqs_ = s.dirty_job_seqs;
    removed_job_seqs_ = s.removed_job_seqs;
    pbsnodes_doc_ = s.pbsnodes_doc;
    qstat_f_doc_ = s.qstat_f_doc;
    text_stats_ = s.text_stats;
    qstat_cache_ = s.qstat_cache;
}

}  // namespace hc::pbs
