#include "grid/member.hpp"

#include "util/errors.hpp"

namespace hc::grid {

using cluster::OsType;

const char* grid_member_kind_name(GridMember::Kind kind) {
    switch (kind) {
        case GridMember::Kind::kDedicatedLinux: return "dedicated-linux";
        case GridMember::Kind::kDedicatedWindows: return "dedicated-windows";
        case GridMember::Kind::kHybrid: return "hybrid (dualboot-oscar)";
    }
    return "?";
}

util::Result<GridMember::Kind> parse_member_kind(const std::string& name) {
    if (name == "dedicated-linux") return GridMember::Kind::kDedicatedLinux;
    if (name == "dedicated-windows") return GridMember::Kind::kDedicatedWindows;
    if (name == "hybrid") return GridMember::Kind::kHybrid;
    return util::Error{"unknown member kind '" + name +
                       "' (expected dedicated-linux, dedicated-windows, or hybrid)"};
}

namespace {

core::HybridConfig member_config(const std::string& name, GridMember::Kind kind, int nodes,
                                 core::PolicyKind hybrid_policy, int cores_per_node) {
    util::require(nodes > 0, "GridMember: nodes must be positive");
    util::require(cores_per_node > 0, "GridMember: cores_per_node must be positive");
    core::HybridConfig config;
    config.cluster.node_count = nodes;
    config.cluster.cores_per_node = cores_per_node;
    // Distinct domains/head hostnames keep the members' simulated LANs and
    // logs tellable apart.
    config.cluster.domain = name + ".qgg.hud.ac.uk";
    config.cluster.linux_head_host = name + ".qgg.hud.ac.uk";
    config.cluster.windows_head_host = "win-" + name + ".qgg.hud.ac.uk";
    switch (kind) {
        case GridMember::Kind::kDedicatedLinux:
            config.policy = core::PolicyKind::kNever;
            config.initial_windows_nodes = 0;
            break;
        case GridMember::Kind::kDedicatedWindows:
            config.policy = core::PolicyKind::kNever;
            config.initial_windows_nodes = nodes;
            break;
        case GridMember::Kind::kHybrid:
            config.policy = hybrid_policy;
            config.fair_share_cooldown = 2;
            config.initial_windows_nodes = 0;
            config.poll_interval = sim::minutes(10);
            break;
    }
    return config;
}

}  // namespace

GridMember::GridMember(std::string name, Kind kind, int nodes,
                       core::PolicyKind hybrid_policy, int cores_per_node,
                       std::int64_t unix_epoch)
    : name_(std::move(name)),
      kind_(kind),
      nodes_(nodes),
      cores_per_node_(cores_per_node),
      arena_(std::make_unique<util::Arena>()),
      engine_(std::make_unique<sim::Engine>(unix_epoch, arena_.get())) {
    hybrid_ = std::make_unique<core::HybridCluster>(
        *engine_, member_config(name_, kind_, nodes_, hybrid_policy, cores_per_node_));
}

void GridMember::start() {
    hybrid_->start();
    hybrid_->settle();
}

bool GridMember::capable(OsType os) const {
    switch (kind_) {
        case Kind::kDedicatedLinux: return os == OsType::kLinux;
        case Kind::kDedicatedWindows: return os == OsType::kWindows;
        case Kind::kHybrid: return os == OsType::kLinux || os == OsType::kWindows;
    }
    return false;
}

MemberLoad GridMember::load(OsType os) {
    MemberLoad load;
    if (!capable(os)) return load;
    // Capable capacity: for the hybrid, every node can in principle serve
    // either OS; for dedicated members it is the whole cluster anyway.
    load.capable_cpus = hybrid_->cluster().total_cores();
    if (os == OsType::kLinux) {
        load.free_cpus = hybrid_->pbs().free_cpus();
        for (const auto* job : hybrid_->pbs().queued_jobs())
            load.queued_cpus += job->resources.total_cpus();
    } else {
        load.free_cpus = hybrid_->winhpc().free_cores();
        const int cores_per_node = hybrid_->config().cluster.cores_per_node;
        for (const winhpc::HpcJob* job = hybrid_->winhpc().first_queued_job(); job != nullptr;
             job = winhpc::HpcJobQueue::next(*job))
            load.queued_cpus += job->needed_cpus(cores_per_node);
    }
    return load;
}

void GridMember::submit(const workload::JobSpec& spec) {
    util::require(capable(spec.os), "GridMember::submit: member cannot serve this OS");
    ++jobs_received_;
    hybrid_->submit_now(spec);
}

}  // namespace hc::grid
