#include "winhpc/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/errors.hpp"

namespace hc::winhpc {

using cluster::Node;
using cluster::OsType;
using util::Error;
using util::Status;

const char* hpc_job_state_name(HpcJobState s) {
    switch (s) {
        case HpcJobState::kConfiguring: return "Configuring";
        case HpcJobState::kQueued: return "Queued";
        case HpcJobState::kRunning: return "Running";
        case HpcJobState::kFinished: return "Finished";
        case HpcJobState::kFailed: return "Failed";
        case HpcJobState::kCanceled: return "Canceled";
    }
    return "?";
}

const char* hpc_node_state_name(HpcNodeState s) {
    switch (s) {
        case HpcNodeState::kOnline: return "Online";
        case HpcNodeState::kOffline: return "Offline";
        case HpcNodeState::kDraining: return "Draining";
        case HpcNodeState::kUnreachable: return "Unreachable";
    }
    return "?";
}

bool HpcNodeRecord::reachable() const {
    return node != nullptr && node->is_up() && node->os() == OsType::kWindows;
}

HpcNodeState HpcNodeRecord::state() const {
    if (!reachable()) return HpcNodeState::kUnreachable;
    if (admin_offline) return used_cpus() > 0 ? HpcNodeState::kDraining : HpcNodeState::kOffline;
    return HpcNodeState::kOnline;
}

HpcScheduler::HpcScheduler(sim::Engine& engine, HpcSchedulerConfig config)
    : engine_(engine), config_(std::move(config)), jobs_(1, config_.completed_retention) {
    obs::Hub& hub = engine_.obs();
    obs_cycles_ = hub.metrics().counter("winhpc.sched.cycles");
    obs_track_ = hub.tracer().track("winhpc/sched");
    hub.metrics().add_provider([this](obs::Registry& reg) {
        reg.gauge("winhpc.queue.depth").set(static_cast<double>(queue_.size()));
        reg.gauge("winhpc.free_cores").set(static_cast<double>(nodes_.free_cpus()));
        reg.gauge("winhpc.jobs.started").set(static_cast<double>(stats_.started));
        reg.gauge("winhpc.jobs.finished").set(static_cast<double>(stats_.finished));
    });
}

void HpcScheduler::attach_node(Node& node) {
    const std::size_t idx = nodes_.attach(node, {});
    update_node_state(idx);
    node.on_up([this, idx](Node&, OsType os) { handle_node_up(idx, os); });
    node.on_down([this, idx](Node&) { handle_node_down(idx); });
}

void HpcScheduler::update_node_state(std::size_t idx) {
    // Online == reachable and not admin-paused; Draining/Offline/Unreachable
    // nodes neither count free cores nor accept placements.
    const HpcNodeRecord& rec = nodes_[idx];
    nodes_.set_counted(idx, rec.reachable() && !rec.admin_offline);
}

void HpcScheduler::verify_incremental_state() const {
    // state() is the brute-force Online predicate update_node_state mirrors.
    nodes_.verify([](const HpcNodeRecord& rec) { return rec.state() == HpcNodeState::kOnline; });

    // Beyond their own checks: retired jobs have ended, queued ones are linked.
    jobs_.verify([](const HpcJob& job) {
        return job.state != HpcJobState::kQueued && job.state != HpcJobState::kRunning;
    });
    queue_.verify();
    std::size_t queued = 0;
    std::size_t running = 0;
    jobs_.for_each([&](const HpcJob& job) {
        util::ensure(HpcJobQueue::linked(job) == (job.state == HpcJobState::kQueued),
                     "consistency: queued-list membership diverged from job state");
        if (job.state == HpcJobState::kQueued) ++queued;
        if (job.state == HpcJobState::kRunning) ++running;
    });
    util::ensure(queued == queue_.size(),
                 "consistency: a queued job is missing from the queued list");
    util::ensure(running == running_count_, "consistency: running count diverged");
}

int HpcScheduler::submit_job(HpcJobSpec spec) {
    util::require(spec.min_resources > 0, "submit_job: min_resources must be positive");
    auto job = std::make_unique<HpcJob>();
    job->id = static_cast<int>(jobs_.next_key());
    job->name = std::move(spec.name);
    job->owner = std::move(spec.owner);
    job->unit = spec.unit;
    job->min_resources = spec.min_resources;
    job->rerun_on_failure = spec.rerun_on_failure;
    job->run_time = spec.run_time;
    for (std::size_t i = 0; i < spec.tasks.size(); ++i) {
        HpcTask task;
        task.id = static_cast<int>(i) + 1;
        task.command_line = spec.tasks[i].command_line;
        task.run_time = spec.tasks[i].run_time;
        task.state = HpcJobState::kQueued;
        job->tasks.push_back(std::move(task));
    }
    job->runtime_limit = spec.runtime_limit;
    job->on_start = std::move(spec.on_start);
    job->on_finish = std::move(spec.on_finish);
    job->submit_unix = engine_.unix_now();
    job->state = HpcJobState::kQueued;
    const int id = job->id;
    queue_.push_back(jobs_.push(std::move(job)));  // ids are monotonic, so append keeps order
    ++stats_.submitted;
    if (engine_.logger().enabled(util::LogLevel::kDebug))
        engine_.logger().debug("winhpc/" + config_.cluster_name,
                               "submit job " + std::to_string(id));
    schedule_cycle();
    return id;
}

Status HpcScheduler::cancel_job(int id) {
    HpcJob* found = jobs_.find(id);
    if (found == nullptr) return Error{"cancel_job: unknown job " + std::to_string(id)};
    HpcJob& job = *found;
    if (job.state == HpcJobState::kQueued || job.state == HpcJobState::kRunning) {
        finish_job(job, HpcJobState::kCanceled,
                   job.state == HpcJobState::kQueued ? "canceled while queued"
                                                     : "canceled while running");
        return Status::ok_status();
    }
    return Error{"cancel_job: job not active"};
}

const HpcJob* HpcScheduler::get_job(int id) const { return jobs_.find(id); }

std::vector<const HpcJob*> HpcScheduler::get_jobs(std::optional<HpcJobState> filter) const {
    std::vector<const HpcJob*> out;
    jobs_.for_each([&](const HpcJob& job) {
        if (!filter.has_value() || job.state == *filter) out.push_back(&job);
    });
    return out;
}

Status HpcScheduler::set_node_online(const std::string& name, bool online) {
    const std::size_t idx = nodes_.find(name);
    if (idx == nodes_.npos) return Error{"unknown node: " + name};
    nodes_[idx].admin_offline = !online;
    update_node_state(idx);
    if (online) schedule_cycle();
    return Status::ok_status();
}

void HpcScheduler::on_job_terminal(std::function<void(const HpcJob&)> fn) {
    terminal_subscribers_.push_back(std::move(fn));
}

bool HpcScheduler::try_place(const HpcJob& job) {
    // Candidates come from the node table's sets (ascending index, the same
    // visit order as a full scan): node-unit jobs want fully idle Online
    // nodes, core-unit jobs accumulate free cores from fit level 1.
    constexpr std::size_t npos = util::IndexBitset::npos;
    std::vector<int>& chosen = placement_;
    chosen.clear();
    if (job.unit == JobUnitType::kNode) {
        const util::IndexBitset& idle = nodes_.idle();
        for (std::size_t i = idle.next(0); i != npos; i = idle.next(i + 1)) {
            chosen.push_back(static_cast<int>(i));
            if (static_cast<int>(chosen.size()) == job.min_resources) return true;
        }
        return false;
    }
    int cores_found = 0;
    const util::IndexBitset& free = nodes_.fit(1);
    for (std::size_t i = free.next(0); i != npos; i = free.next(i + 1)) {
        chosen.push_back(static_cast<int>(i));
        cores_found += nodes_[i].free_cpus();
        if (cores_found >= job.min_resources) return true;
    }
    return false;
}

std::optional<std::vector<int>> HpcScheduler::try_place_bruteforce(const HpcJob& job) const {
    // The pre-optimization placement logic, kept as the reference for the
    // consistency-check hook: recounts the core owners and re-derives state().
    std::vector<int> chosen;
    const auto free_of = [this](const HpcNodeRecord& rec) {
        const auto owners = nodes_.owners(rec);
        return static_cast<int>(std::count(owners.begin(), owners.end(), std::uint64_t{0}));
    };
    if (job.unit == JobUnitType::kNode) {
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            const HpcNodeRecord& rec = nodes_[i];
            if (rec.state() != HpcNodeState::kOnline || free_of(rec) < rec.np) continue;
            chosen.push_back(static_cast<int>(i));
            if (static_cast<int>(chosen.size()) == job.min_resources) return chosen;
        }
        return std::nullopt;
    }
    int cores_found = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const HpcNodeRecord& rec = nodes_[i];
        const int free = free_of(rec);
        if (rec.state() != HpcNodeState::kOnline || free == 0) continue;
        chosen.push_back(static_cast<int>(i));
        cores_found += free;
        if (cores_found >= job.min_resources) return chosen;
    }
    return std::nullopt;
}

void HpcScheduler::schedule_cycle() {
    if (in_cycle_) {
        cycle_again_ = true;
        return;
    }
    in_cycle_ = true;
    obs::Tracer::Span cycle_span = engine_.obs().tracer().span(obs_track_, "cycle");
    do {
        cycle_again_ = false;
        obs_cycles_.inc();
        if (consistency_checks_) verify_incremental_state();
        HpcJob* next = queue_.head();
        while (next != nullptr) {
            HpcJob* job = next;
            next = HpcJobQueue::next(*job);
            // Aggregate early-exit: a node-unit job cannot fit when fewer
            // idle nodes exist than it asks for; a core-unit job cannot fit
            // past the free-core total. Skips the candidate walk entirely in
            // the stuck steady state.
            const bool may_fit =
                job->unit == JobUnitType::kNode
                    ? job->min_resources <= static_cast<int>(nodes_.idle().count())
                    : job->min_resources <= nodes_.free_cpus();
            const bool placed = may_fit && try_place(*job);
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
            // queue (cancel of any job — including `next`). Detect that via
            // the unlink epoch and restart the pass from the new head.
            const std::uint64_t unlinks_before = queue_.unlinks();
            queue_.unlink(*job);
            start_job(*job);
            if (queue_.unlinks() != unlinks_before + 1) {
                cycle_again_ = true;
                break;
            }
        }
    } while (cycle_again_);
    in_cycle_ = false;
}

void HpcScheduler::start_job(HpcJob& job) {
    job.state = HpcJobState::kRunning;
    job.start_unix = engine_.unix_now();
    ++running_count_;
    // A node-unit job takes every core of its idle nodes; a core-unit job
    // takes the lowest free cores until it has min_resources.
    int cores_needed = job.unit == JobUnitType::kCore ? job.min_resources : 0;
    for (const int r : placement_) {
        const auto idx = static_cast<std::size_t>(r);
        const int want = job.unit == JobUnitType::kNode ? nodes_[idx].np : cores_needed;
        const int taken = nodes_.take(idx, static_cast<std::uint64_t>(job.id), want,
                                      cluster::CpuOrder::kLowFirst);
        if (job.unit == JobUnitType::kCore) cores_needed -= taken;
        update_node_state(idx);
    }
    job.allocated_records.assign(placement_);
    ++stats_.started;
    if (engine_.logger().enabled(util::LogLevel::kDebug))
        engine_.logger().debug("winhpc/" + config_.cluster_name,
                               "job " + std::to_string(job.id) + " running");
    if (job.on_start) job.on_start(job);
    if (job.tasks.empty()) {
        // Implicit single activity: the whole job runs for run_time.
        job.completion_event = engine_.schedule_after(job.run_time, [this, id = job.id] {
            HpcJob* j = jobs_.find(id);
            if (j != nullptr && j->state == HpcJobState::kRunning)
                finish_job(*j, HpcJobState::kFinished, "completed");
        });
    } else {
        // Task-parallel job: one lane per allocated node (node unit) or per
        // booked core (core unit); each finishing task pulls the next.
        const int lanes = std::min(static_cast<int>(job.tasks.size()),
                                   job.unit == JobUnitType::kNode
                                       ? static_cast<int>(job.allocated_records.span().size())
                                       : job.min_resources);
        job.next_task_index = 0;
        for (int lane = 0; lane < lanes; ++lane) launch_next_task(job.id);
    }
    if (job.runtime_limit.has_value() && *job.runtime_limit < job.run_time) {
        job.limit_event = engine_.schedule_after(*job.runtime_limit, [this, id = job.id] {
            HpcJob* j = jobs_.find(id);
            if (j != nullptr && j->state == HpcJobState::kRunning) {
                ++stats_.killed_runtime_limit;
                finish_job(*j, HpcJobState::kFailed, "runtime limit");
            }
        });
    }
}

void HpcScheduler::launch_next_task(int job_id) {
    HpcJob* found = jobs_.find(job_id);
    if (found == nullptr || found->state != HpcJobState::kRunning) return;
    HpcJob& job = *found;
    if (job.next_task_index >= static_cast<int>(job.tasks.size())) return;
    HpcTask& task = job.tasks[static_cast<std::size_t>(job.next_task_index++)];
    task.state = HpcJobState::kRunning;
    task.start_unix = engine_.unix_now();
    const int task_id = task.id;
    const auto event = engine_.schedule_after(task.run_time, [this, job_id, task_id] {
        HpcJob* j = jobs_.find(job_id);
        if (j == nullptr || j->state != HpcJobState::kRunning) return;
        HpcJob& running = *j;
        HpcTask& done = running.tasks[static_cast<std::size_t>(task_id) - 1];
        done.state = HpcJobState::kFinished;
        done.end_unix = engine_.unix_now();
        ++running.tasks_finished;
        if (running.tasks_finished == static_cast<int>(running.tasks.size())) {
            finish_job(running, HpcJobState::kFinished, "all tasks finished");
        } else {
            launch_next_task(job_id);
        }
    });
    job.task_events.push_back(event);
}

void HpcScheduler::release_allocation(HpcJob& job) {
    // O(allocated): only the records the job actually ran on are touched,
    // instead of rescanning every core owner in the cluster.
    for (const int r : job.allocated_records.span()) {
        const auto idx = static_cast<std::size_t>(r);
        if (nodes_.release(idx, static_cast<std::uint64_t>(job.id), nodes_[idx].np) > 0)
            update_node_state(idx);
    }
    job.allocated_records.clear();
}

void HpcScheduler::cancel_timers(HpcJob& job) {
    engine_.cancel(std::exchange(job.completion_event, {}));
    engine_.cancel(std::exchange(job.limit_event, {}));
    for (const sim::EventId event : job.task_events) engine_.cancel(event);
    std::vector<sim::EventId>().swap(job.task_events);  // release the storage too
}

void HpcScheduler::finish_job(HpcJob& job, HpcJobState terminal, const char* why) {
    cancel_timers(job);
    // Tasks still in flight share the job's fate.
    for (auto& task : job.tasks)
        if (task.state == HpcJobState::kRunning || task.state == HpcJobState::kQueued)
            task.state = terminal == HpcJobState::kFinished ? HpcJobState::kFinished : terminal;
    queue_.unlink(job);  // no-op unless the job was still queued
    if (job.state == HpcJobState::kRunning) --running_count_;
    release_allocation(job);
    job.state = terminal;
    job.end_unix = engine_.unix_now();
    jobs_.retire(static_cast<std::uint64_t>(job.id));
    if (terminal == HpcJobState::kFinished) ++stats_.finished;
    if (terminal == HpcJobState::kCanceled) ++stats_.canceled;
    if (engine_.logger().enabled(util::LogLevel::kDebug))
        engine_.logger().debug("winhpc/" + config_.cluster_name,
                               "job " + std::to_string(job.id) + " " +
                                   hpc_job_state_name(terminal) + " (" + why + ")");
    if (job.on_finish) job.on_finish(job);
    for (const auto& fn : terminal_subscribers_) fn(job);
    schedule_cycle();
    // Last: `job` may be destroyed here (it has ended, so it is purge
    // eligible). Nothing below may touch it.
    jobs_.purge();
}

void HpcScheduler::requeue_job(HpcJob& job) {
    cancel_timers(job);
    release_allocation(job);
    // Tasks restart from scratch on the next placement.
    for (auto& task : job.tasks) {
        task.state = HpcJobState::kQueued;
        task.start_unix = 0;
        task.end_unix = 0;
    }
    job.tasks_finished = 0;
    job.next_task_index = 0;
    if (job.state == HpcJobState::kRunning) --running_count_;
    job.state = HpcJobState::kQueued;
    job.start_unix = 0;
    ++job.requeue_count;
    ++stats_.requeued;
    // Preserve submission order among queued jobs.
    queue_.insert_by_key(job);
}

void HpcScheduler::handle_node_up(std::size_t idx, OsType os) {
    update_node_state(idx);
    if (os == OsType::kWindows) schedule_cycle();
}

void HpcScheduler::handle_node_down(std::size_t idx) {
    // Drop the node from the free-core aggregate *before* releasing victim
    // allocations, so the frees below don't count toward Online cores.
    update_node_state(idx);
    std::vector<std::uint64_t> victims;
    for (const std::uint64_t owner : nodes_.owners(nodes_[idx]))
        if (owner != 0 && std::find(victims.begin(), victims.end(), owner) == victims.end())
            victims.push_back(owner);
    for (const std::uint64_t id : victims) {
        HpcJob* job = jobs_.find(id);
        if (job == nullptr || job->state != HpcJobState::kRunning) continue;
        if (job->rerun_on_failure) {
            requeue_job(*job);
        } else {
            ++stats_.failed_node_loss;
            finish_job(*job, HpcJobState::kFailed, "node lost");
        }
    }
    schedule_cycle();
}

std::string HpcScheduler::node_list_output() const {
    std::string out = "Node Name        State         Cores In Use  Template\n";
    for (const auto& rec : nodes_.records()) {
        char line[160];
        std::snprintf(line, sizeof line, "%-16s %-13s %5d %6d  %s\n",
                      rec.node->short_name().c_str(), hpc_node_state_name(rec.state()), rec.np,
                      rec.used_cpus(), config_.node_template.c_str());
        out += line;
    }
    return out;
}

HpcScheduler::SavedState HpcScheduler::save_state() const {
    util::require(!in_cycle_, "HpcScheduler::save_state: cannot snapshot mid-cycle");
    SavedState s;
    s.table = jobs_.save();
    s.nodes = nodes_.save();
    s.queue_order = queue_.keys();
    s.running_count = running_count_;
    s.stats = stats_;
    return s;
}

void HpcScheduler::restore_state(const SavedState& s) {
    util::require(!in_cycle_, "HpcScheduler::restore_state: cannot restore mid-cycle");
    nodes_.restore(s.nodes);
    jobs_.restore(s.table);
    queue_.relink(s.queue_order, [this](int id) { return jobs_.find(id); });
    running_count_ = s.running_count;
    in_cycle_ = false;
    cycle_again_ = false;
    stats_ = s.stats;
}

}  // namespace hc::winhpc
