#include "core/hybrid.hpp"

#include <algorithm>

#include "boot/disk_layouts.hpp"
#include "boot/local_boot.hpp"
#include "util/errors.hpp"
#include "util/strings.hpp"

namespace hc::core {

using cluster::Node;
using cluster::OsType;
using deploy::MiddlewareVersion;

const char* policy_kind_name(PolicyKind p) {
    switch (p) {
        case PolicyKind::kFcfs: return "fcfs";
        case PolicyKind::kThreshold: return "threshold";
        case PolicyKind::kFairShare: return "fair-share";
        case PolicyKind::kPredictive: return "predictive";
        case PolicyKind::kMonoStable: return "mono-stable";
        case PolicyKind::kNever: return "never";
        case PolicyKind::kCalendar: return "calendar";
        case PolicyKind::kBurstAware: return "burst-aware";
    }
    return "?";
}

util::Result<PolicyKind> parse_policy_kind(const std::string& name) {
    for (const PolicyKind p : {PolicyKind::kFcfs, PolicyKind::kThreshold, PolicyKind::kFairShare,
                               PolicyKind::kPredictive, PolicyKind::kNever, PolicyKind::kCalendar,
                               PolicyKind::kBurstAware}) {
        if (name == policy_kind_name(p)) return p;
    }
    return util::Error{"unknown policy " + name};
}

HybridCluster::HybridCluster(sim::Engine& engine, HybridConfig config)
    : engine_(engine),
      config_(std::move(config)),
      cluster_(engine,
               [&] {
                   cluster::ClusterConfig cc = config_.cluster;
                   cc.timing.hang_probability = std::max(
                       config_.boot_hang_probability, config_.fault_plan.probabilities.boot_hang);
                   return cc;
               }()),
      pbs_(engine,
           [&] {
               pbs::PbsServerConfig pc;
               pc.strict_fifo = config_.strict_fifo;
               return pc;
           }()),
      winhpc_(engine, [&] {
          winhpc::HpcSchedulerConfig wc;
          wc.strict_fifo = config_.strict_fifo;
          return wc;
      }()) {
    util::require(config_.initial_windows_nodes >= 0 &&
                      config_.initial_windows_nodes <= cluster_.node_count(),
                  "HybridCluster: initial_windows_nodes out of range");
    cluster_.network().set_drop_probability(std::max(
        config_.message_drop_probability, config_.fault_plan.probabilities.message_drop));

    provision_disks();
    wire_boot_environment();

    for (Node* node : cluster_.nodes()) {
        pbs_.attach_node(*node);
        winhpc_.attach_node(*node);
    }

    // The elastic partition attaches *after* the fixed pools so scheduler
    // placement (ascending record order) prefers on-prem capacity and cloud
    // record indices are a stable node_count + slot.
    if (config_.cloud.max_burst > 0) {
        cloud::CloudConfig cc = config_.cloud;
        cc.cores_per_node = config_.cluster.cores_per_node;
        cc.provision_failure_probability = std::max(
            cc.provision_failure_probability, config_.fault_plan.probabilities.boot_hang);
        cloud_ = std::make_unique<cloud::CloudBackend>(engine_, cc, cluster_.node_count());
        for (Node* node : cloud_->nodes()) {
            if (config_.version == MiddlewareVersion::kV1) {
                node->set_boot_resolver(boot::make_local_boot_resolver());
            } else {
                node->disk() = boot::make_v2_disk();
                node->set_boot_resolver(pxe_->make_resolver());
                // Provision pins are one-shot like the initial-OS pins:
                // cleared on first up so later switch reboots follow the
                // shared flag.
                node->on_up([this](Node& n, OsType) {
                    auto it = std::find(pending_initial_pins_.begin(),
                                        pending_initial_pins_.end(), n.mac().to_string());
                    if (it != pending_initial_pins_.end()) {
                        flag_->clear_node_target(n.mac());
                        pending_initial_pins_.erase(it);
                    }
                });
            }
        }
        cloud_->set_provision_hook([this](Node& node, OsType target) {
            if (config_.version == MiddlewareVersion::kV1) {
                boot::V1DiskOptions opts;
                opts.control_default = target;
                node.disk() = boot::make_v1_dualboot_disk(opts);
            } else {
                flag_->set_node_target(node.mac(), target);
                pending_initial_pins_.push_back(node.mac().to_string());
            }
        });
        cloud_->attach(&pbs_, &winhpc_);
    }

    build_policy_and_controller();

    obs::Hub& hub = engine_.obs();
    obs_submitted_ = hub.metrics().counter("workload.jobs.submitted");
    obs_completed_ = hub.metrics().counter("workload.jobs.completed");
    // Wait times from seconds to half a day; stuck-queue pathologies land in
    // the top buckets rather than vanishing.
    obs_wait_s_ = hub.metrics().histogram("workload.wait_s", 0, 43'200, 96);

    pbs_detector_ = std::make_unique<PbsDetector>(pbs_);
    win_detector_ = std::make_unique<WinHpcDetector>(winhpc_, config_.cluster.cores_per_node);
    win_comm_ = std::make_unique<WindowsCommunicator>(
        engine_, cluster_.network(), cluster_.windows_head_host(), cluster_.linux_head_host(),
        *win_detector_, config_.poll_interval);
    win_comm_->set_extended_protocol(config_.extended_protocol);
    linux_comm_ = std::make_unique<LinuxCommunicator>(
        engine_, cluster_.network(), cluster_.linux_head_host(), *pbs_detector_, *policy_,
        *controller_, config_.cluster.cores_per_node);
    if (config_.watchdog_timeout.ms > 0)
        linux_comm_->enable_watchdog(config_.watchdog_timeout);
    if (cloud_) linux_comm_->set_cloud(cloud_.get());

    if (config_.recovery.enabled) {
        OrderWatchdogConfig wd;
        wd.timeout = config_.recovery.order_timeout;
        wd.max_retries = config_.recovery.order_max_retries;
        wd.backoff = config_.recovery.order_backoff;
        controller_->enable_order_watchdog(wd);
        supervisor_ = std::make_unique<fault::RecoverySupervisor>(engine_, cluster_,
                                                                  flag_.get(), config_.recovery);
        // The sweeper must cover the elastic partition too: a fault firing
        // during a pending provision leaves the instance kHung (still
        // billing) with no operator to walk to it.
        if (cloud_)
            for (Node* node : cloud_->nodes()) supervisor_->watch(*node);
    }
    if (!config_.fault_plan.empty()) {
        injector_ = std::make_unique<fault::FaultInjector>(engine_, cluster_, config_.fault_plan,
                                                           config_.cluster.seed);
        if (pxe_) injector_->attach_pxe(*pxe_);
        if (flag_) injector_->attach_flag(*flag_);
        // Head-daemon crash/restart handles. The restart path re-binds (the
        // communicators are restart-safe) and resumes polling after a short
        // service-recovery delay.
        injector_->register_head(
            "linux", fault::FaultInjector::HeadHandle{
                         [this] { linux_comm_->stop(); },
                         [this] { (void)linux_comm_->start(); }});
        injector_->register_head(
            "windows", fault::FaultInjector::HeadHandle{
                           [this] { win_comm_->stop(); },
                           [this] { win_comm_->start(sim::seconds(30)); }});
    }
}

void HybridCluster::provision_disks() {
    for (Node* node : cluster_.nodes()) {
        const bool windows_first = node->index() < config_.initial_windows_nodes;
        if (config_.version == MiddlewareVersion::kV1) {
            boot::V1DiskOptions opts;
            opts.control_default = windows_first ? OsType::kWindows : OsType::kLinux;
            node->disk() = boot::make_v1_dualboot_disk(opts);
        } else {
            node->disk() = boot::make_v2_disk();
        }
    }
}

void HybridCluster::wire_boot_environment() {
    if (config_.version == MiddlewareVersion::kV1) {
        for (Node* node : cluster_.nodes())
            node->set_boot_resolver(boot::make_local_boot_resolver());
        return;
    }
    pxe_ = std::make_unique<boot::PxeServer>();
    pxe_->set_default_rom(boot::PxeRom::kGrub4dos);
    flag_ = std::make_unique<boot::OsFlagStore>(*pxe_);
    flag_->set_flag(OsType::kLinux);
    // Nodes that should first boot Windows get one-shot per-MAC pins; the
    // pin is cleared the moment the node is up so subsequent reboots follow
    // the shared flag (Fig 13 semantics).
    for (Node* node : cluster_.nodes()) {
        if (node->index() < config_.initial_windows_nodes) {
            flag_->set_node_target(node->mac(), OsType::kWindows);
            pending_initial_pins_.push_back(node->mac().to_string());
        }
        node->set_boot_resolver(pxe_->make_resolver());
        node->on_up([this](Node& n, OsType) {
            auto it = std::find(pending_initial_pins_.begin(), pending_initial_pins_.end(),
                                n.mac().to_string());
            if (it != pending_initial_pins_.end()) {
                flag_->clear_node_target(n.mac());
                pending_initial_pins_.erase(it);
            }
        });
    }
}

std::unique_ptr<SwitchPolicy> HybridCluster::make_policy(PolicyKind kind) const {
    switch (kind) {
        case PolicyKind::kFcfs: return std::make_unique<FcfsPolicy>();
        case PolicyKind::kThreshold:
            return std::make_unique<ThresholdPolicy>(config_.threshold_consecutive);
        case PolicyKind::kFairShare:
            return std::make_unique<FairSharePolicy>(config_.fair_share_cooldown);
        case PolicyKind::kPredictive: return std::make_unique<PredictivePolicy>();
        case PolicyKind::kMonoStable:
            return std::make_unique<MonoStablePolicy>(cluster_.node_count());
        case PolicyKind::kNever: return std::make_unique<NeverSwitchPolicy>();
        case PolicyKind::kCalendar:
            return std::make_unique<CalendarPolicy>(
                std::make_unique<FcfsPolicy>(), config_.calendar_start_hour,
                config_.calendar_end_hour, config_.calendar_windows_nodes);
        case PolicyKind::kBurstAware:
            return std::make_unique<BurstAwarePolicy>(config_.burst_cooldown_polls,
                                                      config_.burst_drain_estimate_s);
    }
    util::require(false, "make_policy: unknown PolicyKind");
    return nullptr;
}

void HybridCluster::set_policy(PolicyKind kind, int fair_share_cooldown) {
    config_.policy = kind;
    if (fair_share_cooldown >= 0) config_.fair_share_cooldown = fair_share_cooldown;
    policy_ = make_policy(kind);
    if (linux_comm_) linux_comm_->set_policy(*policy_);
}

void HybridCluster::arm_faults(const fault::FaultPlan& plan, std::uint64_t seed) {
    util::require(started_, "HybridCluster::arm_faults: call start() first");
    fork_injector_ = std::make_unique<fault::FaultInjector>(engine_, cluster_, plan, seed);
    const double base_drop = std::max(config_.message_drop_probability,
                                      config_.fault_plan.probabilities.message_drop);
    cluster_.network().set_drop_probability(
        std::max(base_drop, plan.probabilities.message_drop));
    const double base_hang =
        std::max(config_.boot_hang_probability, config_.fault_plan.probabilities.boot_hang);
    for (Node* node : cluster_.nodes())
        node->set_boot_hang_probability(std::max(base_hang, plan.probabilities.boot_hang));
    if (cloud_) {
        const double cloud_base = std::max(config_.cloud.provision_failure_probability,
                                           config_.fault_plan.probabilities.boot_hang);
        for (Node* node : cloud_->nodes())
            node->set_boot_hang_probability(std::max(cloud_base, plan.probabilities.boot_hang));
    }
    if (pxe_) fork_injector_->attach_pxe(*pxe_);
    if (flag_) fork_injector_->attach_flag(*flag_);
    fork_injector_->register_head(
        "linux", fault::FaultInjector::HeadHandle{[this] { linux_comm_->stop(); },
                                                  [this] { (void)linux_comm_->start(); }});
    fork_injector_->register_head(
        "windows", fault::FaultInjector::HeadHandle{[this] { win_comm_->stop(); },
                                                    [this] { win_comm_->start(sim::seconds(30)); }});
    fork_injector_->start();
}

HybridCluster::SavedState HybridCluster::save_state() const {
    SavedState s;
    s.cluster = cluster_.save_state();
    s.pbs = pbs_.save_state();
    s.winhpc = winhpc_.save_state();
    if (pxe_) s.pxe = pxe_->save_state();
    if (flag_) s.flag = flag_->save_state();
    s.reboot_log = reboot_log_.save_state();
    s.policy_kind = config_.policy;
    s.fair_share_cooldown = config_.fair_share_cooldown;
    s.policy_blob = policy_->save_blob();
    s.controller = controller_->save_state();
    s.pbs_detector = pbs_detector_->save_state();
    s.win_comm = win_comm_->save_state();
    s.linux_comm = linux_comm_->save_state();
    if (cloud_) s.cloud = cloud_->save_state();
    if (injector_) s.injector = injector_->save_state();
    if (supervisor_) s.supervisor = supervisor_->save_state();
    s.metrics = metrics_.save_state();
    s.pending_initial_pins = pending_initial_pins_;
    s.started = started_;
    return s;
}

void HybridCluster::restore_state(const SavedState& s) {
    // A post-fork injector's scheduled events died with the calendar restore,
    // and its probabilistic hooks are overwritten below by the saved ones.
    fork_injector_.reset();
    cluster_.restore_state(s.cluster);
    pbs_.restore_state(s.pbs);
    winhpc_.restore_state(s.winhpc);
    if (pxe_ && s.pxe) pxe_->restore_state(*s.pxe);
    if (flag_ && s.flag) flag_->restore_state(*s.flag);
    reboot_log_.restore_state(s.reboot_log);
    // Rebuild the policy object outright — a forked suffix may have changed
    // kind *or* knobs via set_policy(); dynamic state lives in the blob.
    set_policy(s.policy_kind, s.fair_share_cooldown);
    policy_->restore_blob(s.policy_blob);
    controller_->restore_state(s.controller);
    pbs_detector_->restore_state(s.pbs_detector);
    win_comm_->restore_state(s.win_comm);
    linux_comm_->restore_state(s.linux_comm);
    if (cloud_ && s.cloud) cloud_->restore_state(*s.cloud);
    if (injector_ && s.injector) injector_->restore_state(*s.injector);
    if (supervisor_ && s.supervisor) supervisor_->restore_state(*s.supervisor);
    metrics_.restore_state(s.metrics);
    pending_initial_pins_ = s.pending_initial_pins;
    started_ = s.started;
}

void HybridCluster::build_policy_and_controller() {
    policy_ = make_policy(config_.policy);
    if (config_.version == MiddlewareVersion::kV1) {
        controller_ =
            std::make_unique<ControllerV1>(engine_, cluster_, pbs_, winhpc_, &reboot_log_);
    } else {
        controller_ = std::make_unique<ControllerV2>(engine_, cluster_, pbs_, winhpc_, *flag_,
                                                     &reboot_log_, config_.v2_mode);
    }
}

boot::PxeServer* HybridCluster::pxe() { return pxe_.get(); }
boot::OsFlagStore* HybridCluster::flag() { return flag_.get(); }

void HybridCluster::start() {
    util::require(!started_, "HybridCluster::start: already started");
    started_ = true;
    for (Node* node : cluster_.nodes()) node->power_on();
    auto status = linux_comm_->start();
    util::ensure(status.ok(), "HybridCluster: linux communicator bind failed: " +
                                  status.error_message());
    // Let the cluster finish first boot before the first poll fires.
    win_comm_->start(sim::minutes(5));
    if (cloud_) cloud_->start();
    if (injector_) injector_->start();
    if (supervisor_) supervisor_->start();
}

void HybridCluster::settle(sim::Duration limit) {
    // Nodes before `next` were up at the last check, so a step re-checks only
    // from there on. Reaching the end earns one confirming pass over every
    // node: one that went down behind the cursor (a reboot, a hang) moves the
    // cursor back to it. Settle thus stops at exactly the step a full scan
    // before every step would stop at, for amortized O(1) work per step.
    const std::vector<Node*>& nodes = cluster_.nodes();
    const auto is_down = [](const Node* node) { return !node->is_up(); };
    const sim::TimePoint deadline = engine_.now() + limit;
    auto next = nodes.begin();
    while (engine_.now() < deadline) {
        next = std::find_if(next, nodes.end(), is_down);
        if (next == nodes.end()) {
            next = std::find_if(nodes.begin(), nodes.end(), is_down);
            if (next == nodes.end()) return;
        }
        if (!engine_.step()) return;  // nothing left to simulate
    }
}

void HybridCluster::submit_now(const workload::JobSpec& spec) {
    const std::int64_t submit_unix = engine_.unix_now();
    obs_submitted_.inc();
    if (spec.os == OsType::kLinux) {
        pbs::JobScript script;
        script.resources.nodes = spec.nodes;
        script.resources.ppn = spec.ppn;
        script.name = util::replace_all(spec.app, " ", "_");
        pbs::JobBehavior behavior;
        behavior.run_time = spec.runtime;
        behavior.on_finish = [this, spec, submit_unix](pbs::Job& job) {
            workload::JobOutcome outcome;
            outcome.spec = spec;
            outcome.completed = job.completion == pbs::CompletionKind::kNormal;
            outcome.wait_s = job.stime_unix > 0 ? job.stime_unix - submit_unix : 0;
            outcome.turnaround_s = job.etime_unix - submit_unix;
            outcome.ran_s = job.stime_unix > 0 ? job.etime_unix - job.stime_unix : 0;
            if (outcome.completed) obs_completed_.inc();
            obs_wait_s_.observe(static_cast<double>(outcome.wait_s));
            metrics_.add(std::move(outcome));
        };
        auto id = pbs_.submit(script, spec.owner, std::move(behavior));
        util::ensure(id.ok(), "submit_now: pbs submit failed: " + id.error_message());
    } else {
        winhpc::HpcJobSpec hpc;
        hpc.name = spec.app;
        hpc.owner = "HPC\\" + spec.owner;
        hpc.unit = winhpc::JobUnitType::kNode;
        hpc.min_resources = spec.nodes;
        hpc.run_time = spec.runtime;
        // Model the job as one worker task per node (the MDCS shape): same
        // completion time, but per-task records for the SDK surface.
        for (int i = 0; i < spec.nodes; ++i)
            hpc.tasks.push_back(winhpc::HpcTaskSpec{"worker.exe", spec.runtime});
        hpc.rerun_on_failure = true;
        hpc.on_finish = [this, spec, submit_unix](winhpc::HpcJob& job) {
            workload::JobOutcome outcome;
            outcome.spec = spec;
            outcome.completed = job.state == winhpc::HpcJobState::kFinished;
            outcome.wait_s = job.start_unix > 0 ? job.start_unix - submit_unix : 0;
            outcome.turnaround_s = job.end_unix - submit_unix;
            outcome.ran_s = job.start_unix > 0 ? job.end_unix - job.start_unix : 0;
            if (outcome.completed) obs_completed_.inc();
            obs_wait_s_.observe(static_cast<double>(outcome.wait_s));
            metrics_.add(std::move(outcome));
        };
        (void)winhpc_.submit_job(std::move(hpc));
    }
}

void HybridCluster::replay(const std::vector<workload::JobSpec>& trace) {
    for (const auto& spec : trace) {
        const sim::TimePoint at = spec.submit < engine_.now() ? engine_.now() : spec.submit;
        engine_.schedule_at(at, [this, spec] { submit_now(spec); });
    }
}

workload::ClusterCounters HybridCluster::counters() const {
    workload::ClusterCounters counters;
    counters.cores_per_node = config_.cluster.cores_per_node;
    for (int i = 0; i < cluster_.node_count(); ++i) {
        const Node& node = cluster_.node(i);
        counters.total_cores += node.np();
        counters.os_switches += node.stats().os_switches;
        counters.reboots += node.stats().boots;
        counters.reboot_downtime_s += node.stats().total_downtime_ms / 1000;
    }
    return counters;
}

}  // namespace hc::core
