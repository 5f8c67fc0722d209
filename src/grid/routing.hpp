// Grid routing rules and the deterministic per-epoch routing table.
//
// The grid's three rules, from dumbest to the one a real grid broker
// approximates:
//   kFirstCapable — first member that can run the job's OS
//   kRoundRobin   — rotate among capable members
//   kLeastPressure— member with the least queued-work-per-capacity for the
//                   job's OS (free capacity breaks ties, then member index)
//
// RoutingTable below is their one implementation. FederatedGrid routes a
// whole epoch of arrivals through it against MemberLoad snapshots taken at
// the epoch boundary, so routing never reads a shard mid-advance.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "cluster/os.hpp"
#include "util/result.hpp"

namespace hc::grid {

enum class RoutingRule { kFirstCapable, kRoundRobin, kLeastPressure };

[[nodiscard]] const char* routing_rule_name(RoutingRule rule);

/// Inverse of routing_rule_name (round-trip tested): "first-capable",
/// "round-robin", "least-pressure". Anything else is an error, so spec
/// loaders surface typos instead of silently defaulting.
[[nodiscard]] util::Result<RoutingRule> parse_routing_rule(const std::string& name);

/// Point-in-time load figures the grid routes on.
struct MemberLoad {
    int capable_cpus = 0;   ///< cpus that can (eventually) serve the given OS
    int free_cpus = 0;      ///< cpus idle right now on that OS
    int queued_cpus = 0;    ///< cpus requested by jobs waiting for that OS
    /// Routing pressure: waiting work per unit of capable capacity. An
    /// incapable member is infinitely pressured — a proper +inf, not a magic
    /// finite sentinel a busy-enough member could legitimately exceed.
    [[nodiscard]] double pressure() const {
        return capable_cpus > 0 ? static_cast<double>(queued_cpus) /
                                      static_cast<double>(capable_cpus)
                                : std::numeric_limits<double>::infinity();
    }
};

/// True when candidate load `a` strictly beats `b` under least-pressure:
/// lower pressure first, then more free cpus. Callers scan members in index
/// order and only replace on a strict win, so equal candidates resolve to
/// the lowest member index — a total, deterministic order even when every
/// pressure compares equal (including +inf vs +inf).
[[nodiscard]] bool beats_under_least_pressure(const MemberLoad& a, const MemberLoad& b);

/// One epoch's routing state for the federated grid: per-member, per-OS
/// MemberLoad snapshots captured at the epoch boundary. route() picks a
/// member for each arrival in submit order and *accounts* the job against
/// the snapshot (free cpus absorb it first, the remainder queues), so later
/// arrivals in the same epoch see the earlier ones — least-pressure spreads
/// an epoch-sized burst instead of dog-piling the member that looked idlest
/// at the boundary. Everything here runs on the coordinator thread; shards
/// are never touched.
class RoutingTable {
public:
    static constexpr std::size_t kRejected = std::numeric_limits<std::size_t>::max();

    RoutingTable(RoutingRule rule, std::size_t member_count);

    /// Install one member's snapshot for `os`. `capable` mirrors
    /// GridMember::capable(os); an incapable member is never chosen.
    void set_load(std::size_t member, cluster::OsType os, bool capable, MemberLoad load);

    /// Route one arrival needing `cpus` on `os`. Returns the member index or
    /// kRejected when no member is capable. Deterministic: depends only on
    /// the installed snapshots, the rule, and the call sequence.
    [[nodiscard]] std::size_t route(cluster::OsType os, int cpus);

    /// Round-robin rotation survives across epochs; the federation reuses
    /// one table per epoch but re-seeds the cursor from the previous one.
    [[nodiscard]] std::size_t rr_cursor() const { return rr_cursor_; }
    void set_rr_cursor(std::size_t cursor) { rr_cursor_ = cursor; }

private:
    struct Slot {
        bool capable = false;
        MemberLoad load;
    };
    [[nodiscard]] Slot& slot(std::size_t member, cluster::OsType os);

    RoutingRule rule_;
    std::size_t members_;
    std::vector<Slot> slots_;  ///< member-major, [linux, windows] per member
    std::size_t rr_cursor_ = 0;
};

}  // namespace hc::grid
