// Cluster aggregate: nodes + LAN + head-node identities.
//
// Models "Eridani", the paper's testbed: 16 compute nodes x 4 cores = 64
// processors, one Linux (OSCAR) head and one Windows HPC head, all on one
// LAN segment so PXE broadcast reaches every node.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/network.hpp"
#include "cluster/node.hpp"
#include "sim/engine.hpp"

namespace hc::cluster {

struct ClusterConfig {
    int node_count = 16;
    int cores_per_node = 4;
    std::string domain = "eridani.qgg.hud.ac.uk";
    std::string linux_head_host = "eridani.qgg.hud.ac.uk";      ///< LINHEAD
    std::string windows_head_host = "winhead.qgg.hud.ac.uk";    ///< WINHEAD
    BootTimingModel timing;
    bool vtx_capable = false;   ///< the paper's Q8200s cannot virtualise
    std::string nic_driver = "r8169";
    std::int64_t disk_mb = 250'000;
    std::uint64_t seed = 42;
};

class Cluster {
public:
    Cluster(sim::Engine& engine, ClusterConfig config);

    Cluster(const Cluster&) = delete;
    Cluster& operator=(const Cluster&) = delete;

    [[nodiscard]] sim::Engine& engine() { return engine_; }
    [[nodiscard]] Network& network() { return network_; }
    [[nodiscard]] const ClusterConfig& config() const { return config_; }

    [[nodiscard]] int node_count() const { return static_cast<int>(nodes_.size()); }
    /// Sum of every node's `np`, fixed at construction.
    [[nodiscard]] int total_cores() const { return total_cores_; }

    [[nodiscard]] Node& node(int index);
    [[nodiscard]] const Node& node(int index) const;
    [[nodiscard]] Node* find_by_hostname(const std::string& hostname);
    [[nodiscard]] Node* find_by_short_name(const std::string& short_name);
    /// Every node in index order. Built once at construction: iterating it
    /// allocates nothing.
    [[nodiscard]] const std::vector<Node*>& nodes() { return node_ptrs_; }

    /// Nodes currently up and running `os`.
    [[nodiscard]] std::vector<Node*> nodes_running(OsType os);

    /// Count of nodes up per OS / total up.
    [[nodiscard]] int count_running(OsType os) const;

    [[nodiscard]] const std::string& linux_head_host() const { return config_.linux_head_host; }
    [[nodiscard]] const std::string& windows_head_host() const {
        return config_.windows_head_host;
    }

    /// Compute-node hostname for a 0-based index: "enode01.<domain>".
    [[nodiscard]] static std::string node_hostname(int index, const std::string& domain);

    /// World-snapshot hook: every node's mutable state plus the LAN's.
    struct SavedState {
        std::vector<Node::SavedState> nodes;
        Network::SavedState network;
    };
    [[nodiscard]] SavedState save_state() const {
        SavedState s;
        s.nodes.reserve(nodes_.size());
        for (const auto& node : nodes_) s.nodes.push_back(node->save_state());
        s.network = network_.save_state();
        return s;
    }
    void restore_state(const SavedState& s) {
        for (std::size_t i = 0; i < nodes_.size(); ++i) nodes_[i]->restore_state(s.nodes[i]);
        network_.restore_state(s.network);
    }

private:
    sim::Engine& engine_;
    ClusterConfig config_;
    Network network_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<Node*> node_ptrs_;  ///< nodes_ as plain pointers, for nodes()
    int total_cores_ = 0;
};

}  // namespace hc::cluster
