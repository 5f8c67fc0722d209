#include "core/switch_job.hpp"

#include "util/errors.hpp"

namespace hc::core {

using cluster::Cluster;
using cluster::Node;
using cluster::OsType;

std::string fig4_switch_script_text(OsType target) {
    util::require(target == OsType::kLinux || target == OsType::kWindows,
                  "fig4_switch_script_text: target must be linux or windows");
    std::string out;
    out += "\n";
    out += "#####################################\n";
    out += "### Job Submission Script ###\n";
    out += "# Change items in section 1 #\n";
    out += "# to suit your job needs #\n";
    out += "#####################################\n";
    out += "# Section 1: User Parameters #\n";
    out += "#####################################\n";
    out += "#\n";
    out += "#!/bin/bash\n";
    out += "#PBS -l nodes=1:ppn=4\n";
    out += "#PBS -N release_1_node\n";
    out += "#PBS -q default\n";
    out += "#PBS -j oe\n";
    out += "#PBS -o reboot_log.out\n";
    out += "#PBS -r n\n";
    out += "#\n";
    out += "#####################################\n";
    out += "# Section 3: Executing Commands #\n";
    out += "#####################################\n";
    out += "echo $PBS_JOBID >>/home/sliang/reboot_log/rebootjob.log #write logs\n";
    out += std::string("sudo /boot/swap/bootcontrol.pl /boot/swap/controlmenu.lst ") +
           os_name(target) + " #changes default boot OS\n";
    out += "sudo reboot #reboot node\n";
    out += "sleep 10 #leave 10 seconds to avoid job be finished before reboot\n";
    return out;
}

pbs::JobScript make_switch_job_script(OsType target) {
    auto parsed = pbs::JobScript::parse(fig4_switch_script_text(target));
    util::ensure(parsed.ok(), "make_switch_job_script: Fig 4 text failed to parse: " +
                                  parsed.error_message());
    return std::move(parsed).take();
}

namespace {

/// Shared body of both schedulers' switch behaviours: once the job starts on
/// its node, stage the log write, the switch action, and the reboot.
void run_switch_on_node(sim::Engine& engine, Cluster& cluster, int node_index, OsType target,
                        const SwitchAction& action, RebootLog* log, std::string job_id) {
    Node& node = cluster.node(node_index);
    engine.schedule_after(sim::seconds(kSwitchActionDelayS),
                          [&engine, &node, target, action, log, job_id] {
                              bool failed = false;
                              if (action) {
                                  auto status = action(node, target);
                                  if (!status.ok()) {
                                      failed = true;
                                      engine.logger().error(
                                          "switch-job/" + node.short_name(),
                                          "switch action failed: " + status.error_message());
                                  }
                              }
                              obs::Journal& journal = engine.obs().journal();
                              if (journal.enabled())
                                  journal.event("switch.exec")
                                      .str("node", node.short_name())
                                      .str("job", job_id)
                                      .str("target", os_name(target))
                                      .flag("failed", failed);
                              if (log != nullptr)
                                  log->append(RebootLogEntry{engine.unix_now(), job_id,
                                                             node.short_name(), target, failed});
                              // "sudo reboot" — even if the boot-config edit
                              // failed, the real script reboots regardless;
                              // the node will come back in whatever OS the
                              // (unchanged) config selects.
                              engine.schedule_after(
                                  sim::seconds(kSwitchRebootDelayS - kSwitchActionDelayS),
                                  [&node] {
                                      if (node.is_up()) node.reboot();
                                  });
                          });
}

}  // namespace

pbs::JobBehavior make_pbs_switch_behavior(sim::Engine& engine, Cluster& cluster,
                                          const pbs::PbsServer& server, OsType target,
                                          SwitchAction action, RebootLog* log) {
    pbs::JobBehavior behavior;
    // Long nominal runtime: the reboot is supposed to kill the job (the
    // `sleep 10` trick). If the reboot never happens the job times out at
    // this runtime instead of wedging the node forever.
    behavior.run_time = sim::minutes(10);
    behavior.on_start = [&engine, &cluster, &server, target, action = std::move(action), log](
                            pbs::Job& job) {
        util::require(!job.exec_records.span().empty(),
                      "switch job started without an allocation");
        run_switch_on_node(engine, cluster, server.exec_node_index(job, 0), target, action, log,
                           job.id);
    };
    return behavior;
}

winhpc::HpcJobSpec make_winhpc_switch_spec(sim::Engine& engine, Cluster& cluster,
                                           const winhpc::HpcScheduler& scheduler, OsType target,
                                           SwitchAction action, RebootLog* log) {
    winhpc::HpcJobSpec spec;
    spec.name = "release_1_node";
    spec.owner = "HPC\\dualboot";
    spec.unit = winhpc::JobUnitType::kNode;
    spec.min_resources = 1;
    spec.run_time = sim::minutes(10);
    spec.rerun_on_failure = false;
    spec.on_start = [&engine, &cluster, &scheduler, target, action = std::move(action), log](
                        winhpc::HpcJob& job) {
        const auto records = job.allocated_records.span();
        util::require(!records.empty(), "switch job started without an allocation");
        const cluster::Node& node =
            *scheduler.node_records()[static_cast<std::size_t>(records.front())].node;
        run_switch_on_node(engine, cluster, node.index(), target, action, log,
                           std::to_string(job.id) + ".winhpc");
    };
    return spec;
}

}  // namespace hc::core
