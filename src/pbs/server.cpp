#include "pbs/server.hpp"

#include <algorithm>
#include <charconv>
#include <utility>

#include "util/errors.hpp"

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
    : engine_(engine), config_(std::move(config)), next_seq_(config_.first_job_seq) {
    util::require(!config_.server_name.empty(), "PbsServer: server_name required");
    util::require(config_.first_job_seq > 0, "PbsServer: first_job_seq must be > 0");
    obs::Hub& hub = engine_.obs();
    obs_cycles_ = hub.metrics().counter("pbs.sched.cycles");
    obs_track_ = hub.tracer().track("pbs/sched");
    // Queue-state gauges are computed at snapshot time only, keeping the
    // scheduler's hot path free of bookkeeping.
    hub.metrics().add_provider([this](obs::Registry& reg) {
        reg.gauge("pbs.queue.depth").set(static_cast<double>(eligible_count_));
        reg.gauge("pbs.free_cpus").set(static_cast<double>(free_cpu_agg_));
        reg.gauge("pbs.jobs.started").set(static_cast<double>(stats_.started));
        reg.gauge("pbs.jobs.completed").set(static_cast<double>(stats_.completed_normal));
    });
}

std::size_t PbsServer::record_index_for(const Node& node) const {
    auto it = node_index_.find(&node);
    return it == node_index_.end() ? static_cast<std::size_t>(-1) : it->second;
}

void PbsServer::attach_node(Node& node) {
    util::require(record_index_for(node) == static_cast<std::size_t>(-1),
                  "PbsServer::attach_node: node already attached");
    const std::size_t idx = nodes_.size();
    NodeRecord rec;
    rec.node = &node;
    rec.cpu_owner.assign(static_cast<std::size_t>(node.np()), 0);
    rec.free_count = node.np();
    if (fit_.size() < rec.cpu_owner.size()) fit_.resize(rec.cpu_owner.size());
    rec.idle_since_unix = engine_.unix_now();
    nodes_.push_back(std::move(rec));
    node_index_[&node] = idx;
    name_index_[node.hostname()] = idx;
    name_index_[node.short_name()] = idx;
    total_cpus_ += node.np();
    set_schedulable(idx, nodes_[idx].reachable());
    touch_node(idx);
    node.on_up([this](Node& n, OsType os) { handle_node_up(n, os); });
    node.on_down([this](Node& n) { handle_node_down(n); });
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

void PbsServer::update_node_sets(std::size_t idx) {
    NodeRecord& rec = nodes_[idx];
    // A free-count move from a to b flips exactly |a - b| fit bits.
    const int level = rec.in_free_agg ? rec.free_count : 0;
    for (int p = rec.fit_level; p < level; ++p) fit_[static_cast<std::size_t>(p)].set(idx);
    for (int p = level; p < rec.fit_level; ++p) fit_[static_cast<std::size_t>(p)].reset(idx);
    rec.fit_level = level;
    if (rec.in_free_agg && rec.used_cpus() == 0)
        idle_.set(idx);
    else
        idle_.reset(idx);
}

void PbsServer::adjust_free(std::size_t idx, int delta) {
    NodeRecord& rec = nodes_[idx];
    rec.free_count += delta;
    util::ensure(rec.free_count >= 0 &&
                     rec.free_count <= static_cast<int>(rec.cpu_owner.size()),
                 "PbsServer::adjust_free: free count out of range");
    if (rec.in_free_agg) free_cpu_agg_ += delta;
    update_node_sets(idx);
    touch_node(idx);
}

void PbsServer::set_schedulable(std::size_t idx, bool schedulable) {
    NodeRecord& rec = nodes_[idx];
    const bool want = schedulable && !rec.offline;
    if (rec.in_free_agg != want) {
        rec.in_free_agg = want;
        free_cpu_agg_ += want ? rec.free_count : -rec.free_count;
    }
    update_node_sets(idx);
    touch_node(idx);
}

// ---- eligible-queue intrusive list ---------------------------------------

void PbsServer::queue_push_back(Job& job) {
    util::ensure(!job.in_eligible_queue, "queue_push_back: already linked");
    job.queue_prev = queue_tail_;
    job.queue_next = nullptr;
    if (queue_tail_ != nullptr)
        queue_tail_->queue_next = &job;
    else
        queue_head_ = &job;
    queue_tail_ = &job;
    job.in_eligible_queue = true;
    ++eligible_count_;
}

void PbsServer::queue_insert_by_seq(Job& job) {
    util::ensure(!job.in_eligible_queue, "queue_insert_by_seq: already linked");
    Job* after = queue_head_;
    while (after != nullptr && after->seq < job.seq) after = after->queue_next;
    // Insert before `after` (nullptr = append at tail).
    job.queue_next = after;
    job.queue_prev = after != nullptr ? after->queue_prev : queue_tail_;
    if (job.queue_prev != nullptr)
        job.queue_prev->queue_next = &job;
    else
        queue_head_ = &job;
    if (after != nullptr)
        after->queue_prev = &job;
    else
        queue_tail_ = &job;
    job.in_eligible_queue = true;
    ++eligible_count_;
}

void PbsServer::queue_unlink(Job& job) {
    if (!job.in_eligible_queue) return;
    if (job.queue_prev != nullptr)
        job.queue_prev->queue_next = job.queue_next;
    else
        queue_head_ = job.queue_next;
    if (job.queue_next != nullptr)
        job.queue_next->queue_prev = job.queue_prev;
    else
        queue_tail_ = job.queue_prev;
    job.queue_prev = nullptr;
    job.queue_next = nullptr;
    job.in_eligible_queue = false;
    --eligible_count_;
    ++queue_unlinks_;
}

void PbsServer::verify_incremental_state() const {
    int agg = 0;
    int total = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const NodeRecord& rec = nodes_[i];
        const int free = static_cast<int>(
            std::count(rec.cpu_owner.begin(), rec.cpu_owner.end(), std::uint64_t{0}));
        util::ensure(free == rec.free_count,
                     "consistency: cached free count diverged from cpu_owner");
        const bool should_count = rec.reachable() && !rec.offline;
        util::ensure(rec.in_free_agg == should_count,
                     "consistency: in_free_agg diverged from node state");
        if (should_count) agg += free;
        total += static_cast<int>(rec.cpu_owner.size());
        // Index maps point back at this record.
        auto pit = node_index_.find(rec.node);
        util::ensure(pit != node_index_.end() && pit->second == i,
                     "consistency: node_index_ diverged");
        auto nit = name_index_.find(rec.node->hostname());
        util::ensure(nit != name_index_.end() && nit->second == i,
                     "consistency: name_index_ diverged");
        // Every fit-index bit and the idle bit match the brute-force predicate.
        util::ensure(rec.fit_level == (should_count ? free : 0),
                     "consistency: fit level diverged from node state");
        for (std::size_t p = 1; p <= fit_.size(); ++p)
            util::ensure(fit_[p - 1].test(i) == (should_count && free >= static_cast<int>(p)),
                         "consistency: fit-index membership diverged");
        util::ensure(idle_.test(i) == (should_count && rec.used_cpus() == 0),
                     "consistency: idle-node set membership diverged");
        // A clean stanza must equal a fresh render of the record.
        if (!rec.text_dirty) {
            const auto* chunk = pbsnodes_doc_.find(static_cast<util::TextDocument::Key>(i));
            util::ensure(chunk != nullptr && chunk->text == render_node_stanza(rec),
                         "consistency: clean pbsnodes stanza diverged from state");
        }
    }
    util::ensure(agg == free_cpu_agg_, "consistency: free-CPU aggregate diverged");
    // No bit beyond the last record (next() would hand placement a bad index).
    for (const auto& fit : fit_)
        util::ensure(fit.next(nodes_.size()) == util::IndexBitset::npos,
                     "consistency: fit index holds a stale record");
    util::ensure(idle_.next(nodes_.size()) == util::IndexBitset::npos,
                 "consistency: idle set holds a stale record");
    util::ensure(total == total_cpus_, "consistency: total-CPU count diverged");

    // active_by_seq_ holds exactly the non-completed jobs.
    std::size_t active = 0;
    for (const auto& [seq, job] : jobs_) {
        util::ensure(job->seq == seq, "consistency: jobs_ key diverged from Job::seq");
        if (job->state == JobState::kCompleted) continue;
        ++active;
        auto it = active_by_seq_.find(job->seq);
        util::ensure(it != active_by_seq_.end() && it->second == job.get(),
                     "consistency: active_by_seq_ missing an active job");
        if (!job->text_dirty) {
            const auto* chunk = qstat_f_doc_.find(job->seq);
            util::ensure(chunk != nullptr && chunk->text == render_job_stanza(*job),
                         "consistency: clean qstat -f stanza diverged from state");
        }
    }
    util::ensure(active == active_by_seq_.size(),
                 "consistency: active_by_seq_ holds stale entries");

    // Eligible list: strictly increasing seq, kQueued only, symmetric links.
    std::size_t linked = 0;
    const Job* prev = nullptr;
    for (const Job* j = queue_head_; j != nullptr; j = j->queue_next) {
        util::ensure(j->in_eligible_queue, "consistency: linked job missing flag");
        util::ensure(j->state == JobState::kQueued,
                     "consistency: non-queued job in eligible list");
        util::ensure(j->queue_prev == prev, "consistency: eligible list links broken");
        util::ensure(prev == nullptr || prev->seq < j->seq,
                     "consistency: eligible list out of seq order");
        prev = j;
        ++linked;
    }
    util::ensure(prev == queue_tail_, "consistency: eligible tail diverged");
    util::ensure(linked == eligible_count_, "consistency: eligible count diverged");
    std::size_t queued = 0;
    for (const auto& [_, job] : active_by_seq_)
        if (job->state == JobState::kQueued) ++queued;
    util::ensure(queued == eligible_count_,
                 "consistency: a queued job is missing from the eligible list");
}

std::string PbsServer::job_id_for(std::uint64_t seq) const {
    return std::to_string(seq) + "." + config_.server_name;
}

std::string PbsServer::make_job_id() { return job_id_for(next_seq_++); }

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
    job->seq = next_seq_;
    job->id = make_job_id();
    job->name = script.name;
    job->owner = owner.find('@') != std::string::npos
                     ? owner
                     : owner + "@" + config_.server_name;
    job->queue = script.queue.empty() ? config_.default_queue : script.queue;
    job->server = config_.server_name;
    job->resources = script.resources;
    job->rerunnable = script.rerunnable;
    job->join_oe = script.join_oe;
    job->output_path = script.output_path;
    job->qtime_unix = engine_.unix_now();
    job->behavior = std::move(behavior);
    job->variable_list = {"PBS_O_HOME=/home/" + owner.substr(0, owner.find('@')),
                          "PBS_O_LANG=en_US.UTF-8",
                          "PBS_O_PATH=/usr/kerberos/bin:/usr/local/bin:/usr/bin:/bin"};

    const std::string id = job->id;
    Job* raw = job.get();
    jobs_[raw->seq] = std::move(job);
    active_by_seq_[raw->seq] = raw;
    queue_push_back(*raw);  // new seqs are monotonic, so append keeps order
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
    queue_unlink(*job);  // held jobs are invisible to the scheduler walk
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
    queue_insert_by_seq(*job);  // back to its arrival slot
    touch_job(*job);
    mark_mutation();
    if (engine_.logger().enabled(util::LogLevel::kDebug))
        engine_.logger().debug("pbs/" + config_.server_name, "release " + job_id);
    request_cycle();
    return Status::ok_status();
}

Status PbsServer::set_node_offline(const std::string& hostname, bool offline) {
    auto it = name_index_.find(hostname);
    if (it == name_index_.end()) return Error{"unknown node: " + hostname};
    NodeRecord& rec = nodes_[it->second];
    rec.offline = offline;
    set_schedulable(it->second, rec.reachable());
    mark_mutation();
    if (!offline) request_cycle();
    return Status::ok_status();
}

Status PbsServer::set_node_properties(const std::string& hostname,
                                      std::vector<std::string> properties) {
    auto it = name_index_.find(hostname);
    if (it == name_index_.end()) return Error{"unknown node: " + hostname};
    nodes_[it->second].properties = std::move(properties);
    touch_node(it->second);
    mark_mutation();
    request_cycle();  // a blocked job may match the new properties
    return Status::ok_status();
}

Job* PbsServer::job_by_seq(std::uint64_t seq) {
    auto it = jobs_.find(seq);
    return it == jobs_.end() ? nullptr : it->second.get();
}

const Job* PbsServer::job_by_seq(std::uint64_t seq) const {
    auto it = jobs_.find(seq);
    return it == jobs_.end() ? nullptr : it->second.get();
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
    const Job* job = job_by_seq(seq);
    return job != nullptr && job->id == job_id ? job : nullptr;
}

std::vector<const Job*> PbsServer::queued_jobs() const {
    std::vector<const Job*> out;
    out.reserve(eligible_count_);
    for (const Job* j = queue_head_; j != nullptr; j = j->queue_next) out.push_back(j);
    return out;
}

std::vector<const Job*> PbsServer::running_jobs() const {
    std::vector<const Job*> out;
    for (const auto& [_, job] : active_by_seq_)
        if (job->state == JobState::kRunning || job->state == JobState::kExiting)
            out.push_back(job);
    return out;  // active_by_seq_ iterates in seq order already
}

std::vector<const Job*> PbsServer::all_jobs() const {
    std::vector<const Job*> out;
    out.reserve(jobs_.size());
    for (const auto& [_, job] : jobs_) out.push_back(job.get());
    std::sort(out.begin(), out.end(),
              [](const Job* a, const Job* b) { return a->seq < b->seq; });
    return out;
}

const std::vector<const NodeRecord*>& PbsServer::fully_idle_nodes() const {
    // Materialise from the incrementally maintained set; the set tracks
    // in_free_agg && used == 0, which is exactly kFree with all cpus idle.
    if (idle_cache_version_ != version_) {
        idle_cache_.clear();
        idle_cache_.reserve(idle_.count());
        for (std::size_t idx = idle_.next(0); idx != util::IndexBitset::npos;
             idx = idle_.next(idx + 1))
            idle_cache_.push_back(&nodes_[idx]);
        idle_cache_version_ = version_;
    }
    return idle_cache_;
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

std::optional<std::vector<int>> PbsServer::try_place(const Job& job) const {
    // Each of the `nodes` chunks goes on a distinct node with >= ppn free
    // cpus and the required properties. Candidates come from the fit level
    // for ppn (ascending index, same visit order as a full scan), so every
    // candidate has room and only the property filter can skip one.
    std::vector<int> chosen;
    const auto level = static_cast<std::size_t>(std::max(job.resources.ppn, 1));
    if (level <= fit_.size()) {
        const util::IndexBitset& fit = fit_[level - 1];
        for (std::size_t idx = fit.next(0);
             idx != util::IndexBitset::npos &&
             static_cast<int>(chosen.size()) < job.resources.nodes;
             idx = fit.next(idx + 1)) {
            if (!nodes_[idx].has_properties(job.resources.properties)) continue;
            chosen.push_back(static_cast<int>(idx));
        }
    }
    if (static_cast<int>(chosen.size()) < job.resources.nodes) return std::nullopt;
    return chosen;
}

std::optional<std::vector<int>> PbsServer::try_place_bruteforce(const Job& job) const {
    // The pre-optimization placement logic, kept as the reference for the
    // consistency-check hook: recounts cpu_owner instead of trusting the
    // cached free counts. Must stay byte-for-byte equivalent in outcome.
    std::vector<int> chosen;
    for (std::size_t i = 0; i < nodes_.size() && static_cast<int>(chosen.size()) < job.resources.nodes;
         ++i) {
        const NodeRecord& rec = nodes_[i];
        if (rec.offline || !rec.reachable()) continue;
        const int free = static_cast<int>(
            std::count(rec.cpu_owner.begin(), rec.cpu_owner.end(), std::uint64_t{0}));
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
        Job* next = queue_head_;
        while (next != nullptr) {
            Job* job = next;
            next = job->queue_next;
            // Aggregate early-exit: the free-CPU total is an upper bound on
            // what any placement can use, so a request above it cannot fit
            // and the node scan is skipped. In the stuck steady state this
            // makes the whole cycle O(1).
            const bool may_fit = job->resources.total_cpus() <= free_cpu_agg_;
            std::optional<std::vector<int>> placement;
            if (may_fit) placement = try_place(*job);
            if (consistency_checks_) {
                const auto reference = try_place_bruteforce(*job);
                util::ensure(placement == reference,
                             "consistency: incremental placement diverged from brute force");
            }
            if (!placement.has_value()) {
                if (config_.strict_fifo) break;
                continue;
            }
            // start_job runs the job's on_start hook, which may mutate the
            // queue (qdel/qhold of any job — including `next`). Detect that
            // via the unlink epoch and restart the pass from the new head.
            const std::uint64_t unlinks_before = queue_unlinks_;
            queue_unlink(*job);
            start_job(*job, *placement);
            if (queue_unlinks_ != unlinks_before + 1) {
                cycle_again_ = true;
                break;
            }
        }
    } while (cycle_again_);
    in_cycle_ = false;
}

void PbsServer::request_cycle() { schedule_cycle(); }

void PbsServer::start_job(Job& job, const std::vector<int>& record_indices) {
    job.state = JobState::kRunning;
    job.stime_unix = engine_.unix_now();
    job.exec_slots.clear();
    job.exec_node_indices.clear();
    job.exec_record_indices.clear();
    for (int idx : record_indices) {
        NodeRecord& rec = nodes_[static_cast<std::size_t>(idx)];
        // TORQUE hands out cpu indices descending (Fig 8: .../3+.../2+...).
        int assigned = 0;
        for (int cpu = static_cast<int>(rec.cpu_owner.size()) - 1;
             cpu >= 0 && assigned < job.resources.ppn; --cpu) {
            if (rec.cpu_owner[static_cast<std::size_t>(cpu)] != 0) continue;
            rec.cpu_owner[static_cast<std::size_t>(cpu)] = job.seq;
            job.exec_slots.push_back(ExecSlot{rec.node->hostname(), cpu});
            ++assigned;
        }
        util::ensure(assigned == job.resources.ppn, "start_job: placement raced allocation");
        adjust_free(static_cast<std::size_t>(idx), -assigned);
        job.exec_node_indices.push_back(rec.node->index());
        job.exec_record_indices.push_back(idx);
    }
    ++stats_.started;
    touch_job(job);
    mark_mutation();
    if (engine_.logger().enabled(util::LogLevel::kDebug))
        engine_.logger().debug("pbs/" + config_.server_name,
                               "run " + job.id + " on " + job.exec_host_string());
    emit_event(JobEvent::kStarted, job);

    if (job.behavior.on_start) job.behavior.on_start(job);

    // Natural completion.
    const std::uint64_t seq = job.seq;
    completion_events_[seq] = engine_.schedule_after(job.behavior.run_time, [this, seq] {
        completion_events_.erase(seq);
        Job* j = job_by_seq(seq);
        if (j != nullptr && j->state == JobState::kRunning)
            finish_job(*j, CompletionKind::kNormal);
    });

    // Walltime enforcement.
    if (config_.enforce_walltime && job.resources.walltime.has_value() &&
        *job.resources.walltime < job.behavior.run_time) {
        walltime_events_[seq] = engine_.schedule_after(*job.resources.walltime, [this, seq] {
            walltime_events_.erase(seq);
            Job* j = job_by_seq(seq);
            if (j != nullptr && j->state == JobState::kRunning)
                finish_job(*j, CompletionKind::kWalltime);
        });
    }
}

void PbsServer::cancel_timers(std::uint64_t seq) {
    if (auto it = completion_events_.find(seq); it != completion_events_.end()) {
        engine_.cancel(it->second);
        completion_events_.erase(it);
    }
    if (auto it = walltime_events_.find(seq); it != walltime_events_.end()) {
        engine_.cancel(it->second);
        walltime_events_.erase(it);
    }
}

void PbsServer::release_allocation(Job& job) {
    // O(allocated): only the records the job actually ran on are touched,
    // instead of rescanning every cpu_owner vector in the cluster.
    for (int idx : job.exec_record_indices) {
        NodeRecord& rec = nodes_[static_cast<std::size_t>(idx)];
        int freed = 0;
        for (auto& owner : rec.cpu_owner) {
            if (owner == job.seq) {
                owner = 0;
                ++freed;
            }
        }
        if (freed > 0) {
            if (rec.used_cpus() == freed) rec.idle_since_unix = engine_.unix_now();
            adjust_free(static_cast<std::size_t>(idx), freed);
        }
    }
    job.exec_slots.clear();
    job.exec_record_indices.clear();
}

void PbsServer::purge_completed() {
    if (config_.completed_retention == 0) return;
    while (completed_order_.size() > config_.completed_retention) {
        const std::uint64_t seq = completed_order_.front();
        completed_order_.pop_front();
        auto it = jobs_.find(seq);
        util::ensure(it != jobs_.end() && it->second->state == JobState::kCompleted,
                     "purge_completed: retention queue out of sync");
        jobs_.erase(it);
        ++stats_.purged;
    }
}

void PbsServer::finish_job(Job& job, CompletionKind kind) {
    // Cancel any pending timers for this job.
    cancel_timers(job.seq);
    queue_unlink(job);  // no-op unless the job was still queued
    release_allocation(job);
    job.state = JobState::kCompleted;
    job.completion = kind;
    job.etime_unix = engine_.unix_now();
    active_by_seq_.erase(job.seq);
    removed_job_seqs_.push_back(job.seq);  // drop its qstat -f stanza
    job.text_dirty = false;  // completed jobs never re-render
    completed_order_.push_back(job.seq);
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
    purge_completed();
}

void PbsServer::handle_node_up(Node& node, OsType os) {
    const std::size_t idx = record_index_for(node);
    util::ensure(idx != static_cast<std::size_t>(-1), "handle_node_up: unknown node");
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

void PbsServer::handle_node_down(Node& node) {
    const std::size_t idx = record_index_for(node);
    util::ensure(idx != static_cast<std::size_t>(-1), "handle_node_down: unknown node");
    NodeRecord* rec = &nodes_[idx];
    // Drop the node from the free-CPU aggregate *before* releasing victim
    // allocations, so the frees below don't count toward schedulable CPUs.
    set_schedulable(idx, false);
    mark_mutation();
    // Abort or requeue every job with an allocation on this node.
    std::vector<std::uint64_t> victims;
    for (const std::uint64_t owner : rec->cpu_owner)
        if (owner != 0 && std::find(victims.begin(), victims.end(), owner) == victims.end())
            victims.push_back(owner);
    for (const std::uint64_t seq : victims) {
        Job* job = job_by_seq(seq);
        if (job == nullptr || job->state != JobState::kRunning) continue;
        if (job->rerunnable) {
            // Requeue: release everything, restore queued state. The job
            // keeps its original qtime, so FCFS order is preserved (it goes
            // back to the head region of the queue by seq order).
            cancel_timers(seq);
            release_allocation(*job);
            job->state = JobState::kQueued;
            job->stime_unix = 0;
            job->exec_node_indices.clear();
            ++job->requeue_count;
            ++stats_.requeued;
            // Reinsert preserving seq (arrival) order among queued jobs.
            queue_insert_by_seq(*job);
            touch_job(*job);
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
    s.next_seq = next_seq_;
    s.nodes = nodes_;
    s.jobs.reserve(jobs_.size());
    for (const auto& [_, job] : jobs_) s.jobs.push_back(*job);
    s.eligible_order.reserve(eligible_count_);
    for (const Job* j = queue_head_; j != nullptr; j = j->queue_next)
        s.eligible_order.push_back(j->seq);
    s.completed_order = completed_order_;
    s.queue_unlinks = queue_unlinks_;
    s.completion_events = completion_events_;
    s.walltime_events = walltime_events_;
    s.stats = stats_;
    s.version = version_;
    s.free_cpu_agg = free_cpu_agg_;
    s.fit = fit_;
    s.idle = idle_;
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
    next_seq_ = s.next_seq;
    nodes_ = s.nodes;
    jobs_.clear();
    active_by_seq_.clear();
    for (const Job& job : s.jobs) {
        auto copy = std::make_unique<Job>(job);
        copy->queue_prev = nullptr;  // relinked below from the saved order
        copy->queue_next = nullptr;
        if (copy->state != JobState::kCompleted) active_by_seq_[job.seq] = copy.get();
        jobs_.emplace(job.seq, std::move(copy));
    }
    queue_head_ = nullptr;
    queue_tail_ = nullptr;
    eligible_count_ = 0;
    for (const std::uint64_t seq : s.eligible_order) {
        Job* job = jobs_.at(seq).get();
        job->in_eligible_queue = true;
        job->queue_prev = queue_tail_;
        if (queue_tail_ != nullptr)
            queue_tail_->queue_next = job;
        else
            queue_head_ = job;
        queue_tail_ = job;
        ++eligible_count_;
    }
    completed_order_ = s.completed_order;
    queue_unlinks_ = s.queue_unlinks;
    completion_events_ = s.completion_events;
    walltime_events_ = s.walltime_events;
    in_cycle_ = false;
    cycle_again_ = false;
    stats_ = s.stats;
    version_ = s.version;
    free_cpu_agg_ = s.free_cpu_agg;
    fit_ = s.fit;
    idle_ = s.idle;
    idle_cache_.clear();
    idle_cache_version_ = ~0ull;  // derived cache: rebuilt lazily on demand
    dirty_nodes_ = s.dirty_nodes;
    dirty_job_seqs_ = s.dirty_job_seqs;
    removed_job_seqs_ = s.removed_job_seqs;
    pbsnodes_doc_ = s.pbsnodes_doc;
    qstat_f_doc_ = s.qstat_f_doc;
    text_stats_ = s.text_stats;
    qstat_cache_ = s.qstat_cache;
}

}  // namespace hc::pbs
