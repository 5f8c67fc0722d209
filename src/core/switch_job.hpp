// Switch-order jobs (§III.B.2, Fig 4).
//
// "The system switching action is packed as a PBS or Windows HPC job script,
// which locates a single node, modifies GRUB's configure file, and reboots
// the machine. The advantage of sending switch orders through job scheduler
// is that job scheduler can automatically locate free nodes, and all the
// running jobs can be protected from other accidental operations."
//
// Each switch job books one whole node (nodes=1:ppn=4), performs the switch
// action (v1: rewrite the node's FAT control file; v2: nothing — the PXE
// flag is already set), reboots, and sleeps so the reboot kills the job
// rather than the job finishing first.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/os.hpp"
#include "pbs/job_script.hpp"
#include "pbs/server.hpp"
#include "winhpc/scheduler.hpp"

namespace hc::core {

/// The per-node switch mechanism a controller plugs in. Runs "on" the node
/// (inside the switch job) just before the reboot.
using SwitchAction = std::function<util::Status(cluster::Node&, cluster::OsType target)>;

/// An entry in /home/sliang/reboot_log/rebootjob.log.
struct RebootLogEntry {
    std::int64_t unix_time = 0;
    std::string job_id;
    std::string node;
    cluster::OsType target = cluster::OsType::kNone;
    bool action_failed = false;
};

class RebootLog {
public:
    void append(RebootLogEntry entry) { entries_.push_back(std::move(entry)); }
    [[nodiscard]] const std::vector<RebootLogEntry>& entries() const { return entries_; }
    [[nodiscard]] std::size_t size() const { return entries_.size(); }

    /// World-snapshot hook.
    using SavedState = std::vector<RebootLogEntry>;
    [[nodiscard]] SavedState save_state() const { return entries_; }
    void restore_state(const SavedState& s) { entries_ = s; }

private:
    std::vector<RebootLogEntry> entries_;
};

/// Reproduce the Fig 4 PBS script verbatim (golden-tested).
[[nodiscard]] std::string fig4_switch_script_text(cluster::OsType target);

/// A parsed JobScript for a switch order targeting `target` (the Fig 4
/// directives: nodes=1:ppn=4, -N release_1_node, -q default, -j oe,
/// -o reboot_log.out, -r n).
[[nodiscard]] pbs::JobScript make_switch_job_script(cluster::OsType target);

/// Timing constants from the script body.
inline constexpr double kSwitchLogDelayS = 1.0;     ///< write log line
inline constexpr double kSwitchActionDelayS = 2.0;  ///< bootcontrol run
inline constexpr double kSwitchRebootDelayS = 3.0;  ///< `sudo reboot` issued
inline constexpr double kSwitchSleepS = 10.0;       ///< trailing `sleep 10`

/// Build the PBS JobBehavior realising the script's effects on the node the
/// scheduler picked (`server` is the one the job is submitted to; it names
/// the job's node). The behaviour intentionally outlives the reboot — the
/// reboot kills the job, exactly like `sleep 10` in the real script.
[[nodiscard]] pbs::JobBehavior make_pbs_switch_behavior(sim::Engine& engine,
                                                        cluster::Cluster& cluster,
                                                        const pbs::PbsServer& server,
                                                        cluster::OsType target,
                                                        SwitchAction action, RebootLog* log);

/// Same effects as a Windows HPC job spec (node unit, exclusive);
/// `scheduler` is the one the job is submitted to.
[[nodiscard]] winhpc::HpcJobSpec make_winhpc_switch_spec(sim::Engine& engine,
                                                         cluster::Cluster& cluster,
                                                         const winhpc::HpcScheduler& scheduler,
                                                         cluster::OsType target,
                                                         SwitchAction action, RebootLog* log);

}  // namespace hc::core
