// FederatedGrid — the one way to run the campus grid, sharded and parallel.
//
// Each member is a *shard*: it owns a private Arena + Engine (GridMember),
// shares nothing with the others, and is advanced on a persistent
// sweep::TaskPool, so eight 100k-node members cost eight clusters of work
// spread over the pool's threads rather than eight clusters of serial
// wall-clock. At threads = 1 the same model runs on the caller's thread.
//
// Execution model: conservative parallel DES with epoch-synchronised
// routing. Simulated time advances in fixed epochs [T, T+epoch); the epoch
// length is the lookahead — nothing routed at boundary T can affect a shard
// before T, and shards exchange no traffic *within* an epoch, so advancing
// them concurrently to T+epoch can never violate causality. At each
// boundary, on the coordinator thread:
//   1. every shard is quiescent at T (pool barrier) — take MemberLoad
//      snapshots per member per OS;
//   2. route the epoch's arrivals (submit < T+epoch) in submit order
//      against the snapshots (grid/routing.hpp RoutingTable: the
//      first-capable / round-robin / least-pressure rules), appending each
//      accepted job to its target shard's mailbox;
//   3. fan out: every shard delivers its mailbox (each job submits at its
//      exact arrival instant, clamped to T for pre-epoch stragglers) and
//      runs to T+epoch.
// Routing is serial and ordered; shard advances touch only shard-local
// state; aggregation walks members in index order. Outcomes are therefore
// byte-identical at any --threads count — the repo's standing determinism
// bar (see sweep/runner.hpp). Thread count is a wall-clock knob, nothing
// else.
//
// The price of the lookahead: routing sees member load as of the last
// boundary (at most one epoch stale), not at the instant each job arrives,
// though every job is still delivered at its own submit instant. That is
// the standard conservative-DES trade — shorter epochs buy routing
// freshness with more barriers.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "grid/member.hpp"
#include "grid/routing.hpp"
#include "grid/summary.hpp"
#include "sweep/runner.hpp"

namespace hc::grid {

/// One member shard, declared up front; FederatedGrid::start() builds all
/// of them in parallel (a 100k-node build is seconds of work — the pool
/// parallelises construction, not just advancement).
struct MemberSpec {
    std::string name;
    GridMember::Kind kind = GridMember::Kind::kHybrid;
    int nodes = 0;
    core::PolicyKind hybrid_policy = core::PolicyKind::kFairShare;
    int cores_per_node = 4;
};

struct FederationConfig {
    RoutingRule rule = RoutingRule::kLeastPressure;
    /// Epoch length == lookahead. Defaults to the members' 10-minute poll
    /// cycle: routing staleness then matches the detector staleness each
    /// member already lives with.
    sim::Duration epoch = sim::minutes(10);
    int threads = 1;  ///< <= 0: one per hardware thread (sweep::resolve_threads)
    std::int64_t unix_epoch = -1;  ///< shared clock anchor for all shards
};

struct FederationStats {
    std::size_t epochs = 0;    ///< barriers executed across all run() calls
    std::size_t routed = 0;
    std::size_t rejected = 0;  ///< no capable member
    std::size_t messages = 0;  ///< cross-shard submissions delivered via mailboxes
    std::uint64_t events_dispatched = 0;  ///< summed over shard engines
    double wall_ms = 0;        ///< run() wall-clock, summed
    int threads = 1;
};

class FederatedGrid {
public:
    explicit FederatedGrid(FederationConfig config);
    ~FederatedGrid();

    FederatedGrid(const FederatedGrid&) = delete;
    FederatedGrid& operator=(const FederatedGrid&) = delete;

    /// Declare a member shard. Call before start().
    void add_member(MemberSpec spec);

    /// Build, boot, and settle every shard (in parallel), then align all
    /// shard clocks on the first epoch boundary at or after the slowest
    /// settle. Call once.
    void start();

    [[nodiscard]] bool started() const { return started_; }
    [[nodiscard]] std::size_t member_count() const { return shards_.size(); }
    /// Valid after start().
    [[nodiscard]] GridMember& member(std::size_t index);

    /// Federation time: the epoch boundary every shard currently rests on.
    [[nodiscard]] sim::TimePoint now() const { return clock_; }

    /// Route and execute `trace` (sorted by submit; must outlive the call)
    /// in epoch steps until every arrival has been delivered AND federation
    /// time has reached `until`. Time lands on the first epoch boundary at
    /// or after that point — whole epochs only, so the barrier count is a
    /// function of the scenario, never of the thread count.
    void run(const std::vector<workload::JobSpec>& trace, sim::TimePoint until);

    [[nodiscard]] const FederationStats& stats() const { return stats_; }

    /// Grid ledger over `horizon_s`, merged in member index order
    /// (grid/summary.hpp).
    [[nodiscard]] GridSummary report(double horizon_s);

private:
    struct Shard {
        std::unique_ptr<GridMember> member;
        /// This epoch's routed arrivals, in submit order. Delivered by a
        /// single self-re-arming pump event — O(1) live closures no matter
        /// how many jobs an epoch carries.
        std::vector<workload::JobSpec> mailbox;
        std::size_t mailbox_cursor = 0;
    };

    void arm_mailbox(std::size_t index);
    void pump_mailbox(std::size_t index);
    void advance_shard(std::size_t index, sim::TimePoint until);

    FederationConfig config_;
    std::vector<MemberSpec> specs_;
    std::vector<Shard> shards_;
    std::unique_ptr<sweep::TaskPool> pool_;
    sim::TimePoint clock_{};
    std::size_t rr_cursor_ = 0;  ///< round-robin rotation, carried across epochs
    FederationStats stats_;
    bool started_ = false;
};

}  // namespace hc::grid
