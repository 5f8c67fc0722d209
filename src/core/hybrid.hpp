// The HybridCluster façade: the full dualboot-oscar deployment in one object.
//
// Wires together everything the paper's Figures 1 and 11 show: the Eridani
// node cluster, the OSCAR/PBS and Windows HPC head services, the boot
// substrate for the chosen middleware version (local GRUB + FAT control
// files for v1, PXE/GRUB4DOS + flag for v2), the detectors, the decision
// policy, the controller, and the two communicator daemons. Also routes
// workload JobSpecs to the right scheduler and collects outcome metrics.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "boot/flag.hpp"
#include "boot/pxe.hpp"
#include "cloud/cloud.hpp"
#include "cluster/cluster.hpp"
#include "core/communicator.hpp"
#include "core/controller.hpp"
#include "core/detector.hpp"
#include "core/policy.hpp"
#include "core/switch_job.hpp"
#include "deploy/reimage.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "pbs/server.hpp"
#include "sim/engine.hpp"
#include "winhpc/scheduler.hpp"
#include "workload/generator.hpp"
#include "workload/metrics.hpp"

namespace hc::core {

enum class PolicyKind {
    kFcfs,
    kThreshold,
    kFairShare,
    kPredictive,
    kMonoStable,
    kNever,
    kCalendar,    ///< daily Windows reservation over an FCFS base
    kBurstAware,  ///< switch-vs-burst arbitration over the elastic partition
};

[[nodiscard]] const char* policy_kind_name(PolicyKind p);

/// Inverse of policy_kind_name for the policies a spec or flag may name:
/// "fcfs", "threshold", "fair-share", "predictive", "never", "calendar",
/// "burst-aware". "mono-stable" is refused: that policy belongs to the
/// kMonoStable scenario, which specs select with scenario "mono".
[[nodiscard]] util::Result<PolicyKind> parse_policy_kind(const std::string& name);

struct HybridConfig {
    cluster::ClusterConfig cluster;
    deploy::MiddlewareVersion version = deploy::MiddlewareVersion::kV2;
    ControllerV2::Mode v2_mode = ControllerV2::Mode::kGlobalFlag;
    sim::Duration poll_interval = sim::minutes(10);  ///< Fig 11 fixed cycle
    int initial_windows_nodes = 0;  ///< nodes that first boot Windows; rest Linux
    PolicyKind policy = PolicyKind::kFcfs;
    int threshold_consecutive = 2;      ///< for PolicyKind::kThreshold
    int fair_share_cooldown = 0;        ///< for PolicyKind::kFairShare (anti-flap)
    int calendar_start_hour = 9;        ///< for PolicyKind::kCalendar
    int calendar_end_hour = 17;
    int calendar_windows_nodes = 4;
    int burst_cooldown_polls = 2;         ///< for PolicyKind::kBurstAware
    double burst_drain_estimate_s = 600;  ///< per-queued-job drain estimate
    /// Elastic cloud partition beside the two fixed pools. max_burst == 0
    /// (the default) leaves the paper's two-pool world untouched.
    cloud::CloudConfig cloud;
    /// Scheduler discipline. Strict FIFO is what TORQUE's default scheduler
    /// does (and what makes queues go "stuck"); false enables naive backfill
    /// (later jobs may start around a blocked head) — an ablation knob.
    bool strict_fifo = true;
    bool extended_protocol = true;      ///< carry idle counts in the undefined bytes
    /// Staleness watchdog on the Linux daemon; 0 disables (paper-faithful).
    sim::Duration watchdog_timeout{};
    double message_drop_probability = 0.0;  ///< fault injection (E5)
    double boot_hang_probability = 0.0;     ///< fault injection (E5)
    /// Deterministic fault-injection plan (hc::fault). Its probabilistic
    /// rates are folded into the cluster/network knobs above (max wins);
    /// scheduled events fire from start().
    fault::FaultPlan fault_plan;
    /// Recovery machinery: order watchdog + hung-node sweeper. Disabled by
    /// default (paper-faithful fire-and-forget).
    fault::RecoveryOptions recovery;
};

class HybridCluster {
public:
    HybridCluster(sim::Engine& engine, HybridConfig config);

    HybridCluster(const HybridCluster&) = delete;
    HybridCluster& operator=(const HybridCluster&) = delete;

    /// Power on every node and start the daemons. Call once; then drive the
    /// engine (run_for / run_until).
    void start();

    [[nodiscard]] sim::Engine& engine() { return engine_; }
    [[nodiscard]] const HybridConfig& config() const { return config_; }
    [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }
    [[nodiscard]] pbs::PbsServer& pbs() { return pbs_; }
    [[nodiscard]] winhpc::HpcScheduler& winhpc() { return winhpc_; }
    /// Non-null in v2 wiring only.
    [[nodiscard]] boot::PxeServer* pxe();
    [[nodiscard]] boot::OsFlagStore* flag();
    [[nodiscard]] SwitchController& controller() { return *controller_; }
    [[nodiscard]] SwitchPolicy& policy() { return *policy_; }
    [[nodiscard]] WindowsCommunicator& windows_daemon() { return *win_comm_; }
    [[nodiscard]] LinuxCommunicator& linux_daemon() { return *linux_comm_; }
    [[nodiscard]] RebootLog& reboot_log() { return reboot_log_; }
    /// Non-null only when config.cloud.max_burst > 0.
    [[nodiscard]] cloud::CloudBackend* cloud() { return cloud_.get(); }
    /// Non-null only when the config carried a non-empty fault plan.
    [[nodiscard]] fault::FaultInjector* fault_injector() { return injector_.get(); }
    /// Non-null only when config.recovery.enabled.
    [[nodiscard]] fault::RecoverySupervisor* recovery() { return supervisor_.get(); }

    /// Submit one workload job right now (routes by spec.os).
    void submit_now(const workload::JobSpec& spec);

    /// Schedule a whole trace by each spec's submit time (must be >= now).
    void replay(const std::vector<workload::JobSpec>& trace);

    [[nodiscard]] workload::MetricsCollector& metrics() { return metrics_; }

    /// Cluster-level counters for the metrics Summary.
    [[nodiscard]] workload::ClusterCounters counters() const;

    /// Wait until every node reaches kUp once (post power-on settling): runs
    /// the engine until the first boot completes or `limit` elapses.
    void settle(sim::Duration limit = sim::minutes(10));

    // ---- divergence knobs (the forked-suffix API) ----------------------
    //
    // Both are exact-replay safe: a cold run that calls the same knob at the
    // same sim time behaves byte-identically to a forked suffix, which is
    // what the forked-vs-cold golden tests pin.

    /// Swap the decision policy at runtime (forked E7 ablation: run the
    /// shared prefix under one policy, fork, install a different policy per
    /// suffix). Builds a fresh policy object for `kind` from the config's
    /// tuning knobs and re-points the Linux daemon at it.
    /// `fair_share_cooldown >= 0` overrides the config's cooldown knob first
    /// (the E7 ablation's fair-share-with-cooldown variant).
    void set_policy(PolicyKind kind, int fair_share_cooldown = -1);

    /// Arm an extra fault campaign *now* (forked E5: share a healthy warm-up
    /// prefix, diverge at injection time). Scheduled event offsets are
    /// relative to this call; probabilistic rates fold into the
    /// cluster/network knobs (max wins) like construction-time plans. The
    /// injector's RNG is derived from `seed` only, so identical (plan, seed,
    /// arm-time) triples replay identically.
    void arm_faults(const fault::FaultPlan& plan, std::uint64_t seed);

    /// The injector created by the last arm_faults(), if any.
    [[nodiscard]] fault::FaultInjector* forked_injector() { return fork_injector_.get(); }

    /// World-snapshot hook: everything mutable outside the engine calendar.
    /// Pair with Engine::snapshot()/restore() — see core::ScenarioWorld.
    struct SavedState {
        cluster::Cluster::SavedState cluster;
        pbs::PbsServer::SavedState pbs;
        winhpc::HpcScheduler::SavedState winhpc;
        std::optional<boot::PxeServer::SavedState> pxe;
        std::optional<boot::OsFlagStore::SavedState> flag;
        RebootLog::SavedState reboot_log;
        PolicyKind policy_kind = PolicyKind::kFcfs;
        int fair_share_cooldown = 0;
        std::vector<double> policy_blob;
        SwitchController::SavedState controller;
        PbsDetector::SavedState pbs_detector;
        WindowsCommunicator::SavedState win_comm;
        LinuxCommunicator::SavedState linux_comm;
        std::optional<cloud::CloudBackend::SavedState> cloud;
        std::optional<fault::FaultInjector::SavedState> injector;
        std::optional<fault::RecoverySupervisor::SavedState> supervisor;
        workload::MetricsCollector::SavedState metrics;
        std::vector<std::string> pending_initial_pins;
        bool started = false;
    };
    [[nodiscard]] SavedState save_state() const;
    void restore_state(const SavedState& s);

private:
    void provision_disks();
    void wire_boot_environment();
    void build_policy_and_controller();
    [[nodiscard]] std::unique_ptr<SwitchPolicy> make_policy(PolicyKind kind) const;

    sim::Engine& engine_;
    HybridConfig config_;
    cluster::Cluster cluster_;
    pbs::PbsServer pbs_;
    winhpc::HpcScheduler winhpc_;
    std::unique_ptr<boot::PxeServer> pxe_;
    std::unique_ptr<boot::OsFlagStore> flag_;
    RebootLog reboot_log_;
    std::unique_ptr<SwitchPolicy> policy_;
    std::unique_ptr<SwitchController> controller_;
    std::unique_ptr<PbsDetector> pbs_detector_;
    std::unique_ptr<WinHpcDetector> win_detector_;
    std::unique_ptr<WindowsCommunicator> win_comm_;
    std::unique_ptr<LinuxCommunicator> linux_comm_;
    std::unique_ptr<cloud::CloudBackend> cloud_;
    std::unique_ptr<fault::FaultInjector> injector_;
    std::unique_ptr<fault::FaultInjector> fork_injector_;  ///< armed post-fork via arm_faults()
    std::unique_ptr<fault::RecoverySupervisor> supervisor_;
    workload::MetricsCollector metrics_;
    std::vector<std::string> pending_initial_pins_;  ///< MACs pinned for first boot
    bool started_ = false;
    obs::Counter obs_submitted_;       ///< workload.jobs.submitted
    obs::Counter obs_completed_;       ///< workload.jobs.completed
    obs::HistogramHandle obs_wait_s_;  ///< workload.wait_s distribution
};

}  // namespace hc::core
