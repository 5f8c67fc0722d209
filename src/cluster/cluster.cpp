#include "cluster/cluster.hpp"

#include <cstdio>

#include "util/errors.hpp"

namespace hc::cluster {

Cluster::Cluster(sim::Engine& engine, ClusterConfig config)
    : engine_(engine), config_(std::move(config)), network_(engine, config_.seed) {
    util::require(config_.node_count > 0, "Cluster: node_count must be positive");
    util::require(config_.cores_per_node > 0, "Cluster: cores_per_node must be positive");
    util::Rng root(config_.seed);
    nodes_.reserve(static_cast<std::size_t>(config_.node_count));
    node_ptrs_.reserve(static_cast<std::size_t>(config_.node_count));
    for (int i = 0; i < config_.node_count; ++i) {
        NodeConfig nc;
        nc.index = i;
        nc.hostname = node_hostname(i, config_.domain);
        nc.mac = Mac::for_node_index(i + 1);
        nc.np = config_.cores_per_node;
        nc.vtx_capable = config_.vtx_capable;
        nc.nic_driver = config_.nic_driver;
        nc.disk_mb = config_.disk_mb;
        nc.timing = config_.timing;
        nodes_.push_back(
            std::make_unique<Node>(engine_, std::move(nc), root.fork("node" + std::to_string(i))));
        node_ptrs_.push_back(nodes_.back().get());
        total_cores_ += nodes_.back()->np();
    }
}

Node& Cluster::node(int index) {
    util::require(index >= 0 && index < node_count(), "Cluster::node: index out of range");
    return *nodes_[static_cast<std::size_t>(index)];
}

const Node& Cluster::node(int index) const {
    util::require(index >= 0 && index < node_count(), "Cluster::node: index out of range");
    return *nodes_[static_cast<std::size_t>(index)];
}

Node* Cluster::find_by_hostname(const std::string& hostname) {
    for (auto& n : nodes_)
        if (n->hostname() == hostname) return n.get();
    return nullptr;
}

Node* Cluster::find_by_short_name(const std::string& short_name) {
    for (auto& n : nodes_)
        if (n->short_name() == short_name) return n.get();
    return nullptr;
}

std::vector<Node*> Cluster::nodes_running(OsType os) {
    std::vector<Node*> out;
    for (auto& n : nodes_)
        if (n->is_up() && n->os() == os) out.push_back(n.get());
    return out;
}

int Cluster::count_running(OsType os) const {
    int count = 0;
    for (const auto& n : nodes_)
        if (n->is_up() && n->os() == os) ++count;
    return count;
}

std::string Cluster::node_hostname(int index, const std::string& domain) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "enode%02d", index + 1);
    return std::string(buf) + "." + domain;
}

}  // namespace hc::cluster
