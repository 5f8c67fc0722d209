// hc-grid-spec/1: the document `dualboot_sim grid --spec` loads.
//
//   {"schema": "hc-grid-spec/1",
//    "routing": "least-pressure", "epoch_minutes": 10,
//    "hours": 24, "threads": 2,
//    "members": [{"name": "tauceti", "kind": "dedicated-linux", "nodes": 16},
//                {"name": "vega", "kind": "dedicated-windows", "nodes": 8},
//                {"name": "eridani", "kind": "hybrid", "nodes": 16,
//                 "policy": "fair-share", "cores_per_node": 4}],
//    "workload": {"rate_per_hour": 6, "max_nodes": 4,
//                 "runtime_scale": 0.25, "trace_seed": 42}}
//
// Every member runs as an independent shard (own engine + arena) advanced in
// parallel by grid::FederatedGrid; routing happens at epoch boundaries. The
// grid ledger is byte-identical at any thread count, so "threads" is only a
// suggestion the command line may override.
#pragma once

#include <vector>

#include "grid/federation.hpp"
#include "util/result.hpp"
#include "workload/generator.hpp"

namespace hc::grid {

struct GridSpec {
    FederationConfig config;  ///< routing rule, epoch and the suggested thread count
    std::vector<MemberSpec> members;
    double hours = 24;  ///< run length and trace horizon
    workload::GeneratorSpec workload;  ///< the arrivals; horizon = hours
};

/// Parse and validate an hc-grid-spec/1 document.
[[nodiscard]] util::Result<GridSpec> parse_grid_spec(const std::string& text);

}  // namespace hc::grid
