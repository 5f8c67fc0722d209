// Grid-wide summary: merge member outcomes + counters into one ledger.
//
// FederatedGrid::report builds the grid ledger here. The merge is careful
// about heterogeneous grids: reboot downtime is counted in
// node-seconds per member, so the capacity it wastes depends on each
// member's own cores_per_node — the grid-wide switch overhead is the sum of
// per-member core-second losses over grid capacity, not node-seconds scaled
// by any single member's core width.
#pragma once

#include <string>
#include <vector>

#include "grid/member.hpp"
#include "workload/metrics.hpp"

namespace hc::grid {

/// One member's slice of the grid ledger.
struct MemberSummary {
    std::string name;
    GridMember::Kind kind = GridMember::Kind::kHybrid;
    int nodes = 0;
    int cores_per_node = 0;
    std::size_t jobs_received = 0;
    workload::Summary summary;  ///< this member's jobs only, grid horizon
};

struct GridSummary {
    workload::Summary total;  ///< all members merged; exact heterogeneous overhead
    std::vector<MemberSummary> members;
    std::size_t routed = 0;
    std::size_t rejected = 0;
};

/// Merge `members` (in order) over `horizon_s`. `routed`/`rejected` come
/// from the grid's routing stats; total.submitted is routed + rejected so
/// rejections depress the completion rate.
[[nodiscard]] GridSummary summarise_grid(const std::vector<GridMember*>& members,
                                         std::size_t routed, std::size_t rejected,
                                         double horizon_s);

/// Deterministic text ledger (byte-compared across thread counts): the grid
/// total followed by one line per member.
[[nodiscard]] std::string render_grid_ledger(const GridSummary& grid);

}  // namespace hc::grid
