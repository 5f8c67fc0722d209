// hc-sweep-spec/1: the document `dualboot_sim sweep --spec` loads.
//
//   {"schema": "hc-sweep-spec/1",
//    "scenario": "hybrid", "policy": "fair-share",
//    "nodes": 16, "linux_nodes": 16, "hours": 20, "poll_minutes": 10,
//    "version": "v2", "cooldown": 0, "first_seed": 1, "seed_count": 8,
//    "recovery": "off", "faults": "plan.json",          <- both optional
//    "cloud": {"max_burst": 4, ...},                    <- optional, hc-cloud-spec/1 knobs
//    "workload": {"rate_per_hour": 8, "max_nodes": 4,
//                 "runtime_scale": 0.25, "trace_seed": 42}}
//
// One workload trace is generated from the workload block and shared across
// all replicas; each replica runs the scenario at seed first_seed + i. A
// relative "faults" path is resolved against the spec file's directory
// (specs ship next to their plans); recovery defaults to on when a plan is
// named.
//
// An optional `fork` block switches the sweep to a warm-started campaign:
// one world (seed first_seed) runs the shared prefix to `prefix_hours`, is
// snapshotted, and every variant resumes from a restored fork. Variants
// install a policy or arm a fault plan at the fork point (plan event times
// are offsets relative to it):
//
//   "fork": {"prefix_hours": 16,
//            "variants": [{"label": "stay-fcfs", "policy": "fcfs"},
//                         {"policy": "fair-share", "cooldown": 3},
//                         {"faults": "late_plan.json", "seed": 7}]}
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "util/result.hpp"
#include "workload/generator.hpp"

namespace hc::sweep {

/// One divergence applied at the fork point: a policy change when `policy`
/// is set, otherwise the fault plan at `faults_path`.
struct ForkVariantSpec {
    std::string label;  ///< defaults to the policy name or "faults-<seed>"
    std::optional<core::PolicyKind> policy;
    int cooldown = -1;        ///< fair-share cooldown for `policy`; -1 keeps the base's
    std::string faults_path;  ///< resolved hc-fault-plan/1 path
    std::uint64_t seed = 1;   ///< injector seed for the armed plan
};

struct ForkSpec {
    double prefix_hours = 0;  ///< in [0, hours]; defaults to half the horizon
    std::vector<ForkVariantSpec> variants;
};

struct SweepSpec {
    /// Every replica's config apart from its seed. `base.faults` is left
    /// empty: the caller loads the plan at `faults_path`.
    core::ScenarioConfig base;
    std::string faults_path;  ///< resolved hc-fault-plan/1 path, or ""
    workload::GeneratorSpec workload;  ///< the shared trace; horizon = base.horizon
    std::uint64_t first_seed = 1;
    std::uint64_t seed_count = 4;
    std::optional<ForkSpec> fork;
};

/// Parse and validate an hc-sweep-spec/1 document. Relative fault-plan
/// paths are resolved against `base_dir` (the spec file's directory); the
/// plans themselves are not read.
[[nodiscard]] util::Result<SweepSpec> parse_sweep_spec(const std::string& text,
                                                       const std::filesystem::path& base_dir);

}  // namespace hc::sweep
