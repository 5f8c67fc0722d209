// Campus-grid member clusters.
//
// The paper's cluster does not live alone: "This hybrid cluster is utilised
// as part of the University of Huddersfield campus grid" (the Queensgate
// Grid, QGG — ref [2] describes it as a grid of OSCAR clusters plus Windows
// resources). This module models grid members as schedulable pools the
// grid routes jobs to: dedicated single-OS clusters and the dualboot-oscar
// hybrid, each wrapping a fully simulated HybridCluster.
//
// Every member is a shard: it owns a private engine + arena, so
// grid::FederatedGrid can advance each one independently on any worker
// thread.
#pragma once

#include <memory>
#include <string>

#include "core/hybrid.hpp"
#include "grid/routing.hpp"
#include "util/arena.hpp"

namespace hc::grid {

/// One member cluster of the campus grid.
class GridMember {
public:
    /// kind: dedicated clusters serve exactly one OS; the hybrid serves both.
    enum class Kind { kDedicatedLinux, kDedicatedWindows, kHybrid };

    /// Build the member on its own Arena + Engine. `unix_epoch` seeds the
    /// engine clock (the same value across shards keeps their wall-clock
    /// renderings aligned).
    GridMember(std::string name, Kind kind, int nodes,
               core::PolicyKind hybrid_policy = core::PolicyKind::kFairShare,
               int cores_per_node = 4, std::int64_t unix_epoch = -1);

    GridMember(const GridMember&) = delete;
    GridMember& operator=(const GridMember&) = delete;

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] Kind kind() const { return kind_; }
    [[nodiscard]] int nodes() const { return nodes_; }
    [[nodiscard]] int cores_per_node() const { return cores_per_node_; }

    /// The member's own engine.
    [[nodiscard]] sim::Engine& engine() { return *engine_; }

    /// Bring the member online (power on, start daemons, settle).
    void start();

    /// Can this member ever run a job needing `os`?
    [[nodiscard]] bool capable(cluster::OsType os) const;

    /// Current load as seen for the given OS.
    [[nodiscard]] MemberLoad load(cluster::OsType os);

    /// Submit (the grid routes here). Requires capable(spec.os).
    void submit(const workload::JobSpec& spec);

    [[nodiscard]] core::HybridCluster& cluster() { return *hybrid_; }
    [[nodiscard]] workload::MetricsCollector& metrics() { return hybrid_->metrics(); }
    [[nodiscard]] std::size_t jobs_received() const { return jobs_received_; }

private:
    std::string name_;
    Kind kind_;
    int nodes_ = 0;
    int cores_per_node_ = 4;
    // Declaration order is destruction-safety: hybrid_ (last declared, first
    // destroyed) references engine_, whose calendar allocates from arena_.
    std::unique_ptr<util::Arena> arena_;
    std::unique_ptr<sim::Engine> engine_;
    std::unique_ptr<core::HybridCluster> hybrid_;
    std::size_t jobs_received_ = 0;
};

[[nodiscard]] const char* grid_member_kind_name(GridMember::Kind kind);

/// Inverse of the spec-facing kind spelling: "dedicated-linux",
/// "dedicated-windows", "hybrid". (grid_member_kind_name renders the hybrid
/// with its long display suffix; parse accepts the bare token.)
[[nodiscard]] util::Result<GridMember::Kind> parse_member_kind(const std::string& name);

}  // namespace hc::grid
