#include "grid/federation.hpp"

#include <chrono>

#include "util/errors.hpp"

namespace hc::grid {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

FederatedGrid::FederatedGrid(FederationConfig config) : config_(config) {
    util::require(config_.epoch.ms > 0, "FederatedGrid: epoch must be positive");
    stats_.threads = sweep::resolve_threads(config_.threads);
}

FederatedGrid::~FederatedGrid() = default;

void FederatedGrid::add_member(MemberSpec spec) {
    util::require(!started_, "FederatedGrid::add_member: grid already started");
    util::require(!spec.name.empty(), "FederatedGrid::add_member: member needs a name");
    util::require(spec.nodes > 0, "FederatedGrid::add_member: nodes must be positive");
    specs_.push_back(std::move(spec));
}

GridMember& FederatedGrid::member(std::size_t index) {
    util::require(started_, "FederatedGrid::member: call start() first");
    util::require(index < shards_.size(), "FederatedGrid::member: index out of range");
    return *shards_[index].member;
}

void FederatedGrid::start() {
    util::require(!started_, "FederatedGrid::start: already started");
    util::require(!specs_.empty(), "FederatedGrid::start: no members");
    const auto t0 = Clock::now();
    pool_ = std::make_unique<sweep::TaskPool>(config_.threads);
    stats_.threads = pool_->threads();
    shards_.resize(specs_.size());

    // Build + boot + settle every shard concurrently. Shard i's state is a
    // function of spec i alone (the pool guarantees nothing else), so the
    // built world is identical at any thread count.
    pool_->parallel_for(shards_.size(), [&](std::size_t i, int) {
        const MemberSpec& spec = specs_[i];
        shards_[i].member = std::make_unique<GridMember>(
            spec.name, spec.kind, spec.nodes, spec.hybrid_policy, spec.cores_per_node,
            config_.unix_epoch);
        shards_[i].member->start();
    });

    // Shards settle at slightly different instants (boot latency depends on
    // size and kind). Align everyone on one epoch boundary so the routing
    // loop starts from a common clock.
    sim::TimePoint slowest{};
    for (Shard& shard : shards_) {
        const sim::TimePoint at = shard.member->engine().now();
        if (at > slowest) slowest = at;
    }
    const std::int64_t e = config_.epoch.ms;
    clock_ = sim::TimePoint{(slowest.ms + e - 1) / e * e};
    pool_->parallel_for(shards_.size(),
                        [&](std::size_t i, int) { advance_shard(i, clock_); });
    started_ = true;
    stats_.wall_ms += std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

void FederatedGrid::run(const std::vector<workload::JobSpec>& trace, sim::TimePoint until) {
    util::require(started_, "FederatedGrid::run: call start() first");
    for (std::size_t i = 1; i < trace.size(); ++i) {
        util::require(trace[i - 1].submit <= trace[i].submit,
                      "FederatedGrid::run: trace must be sorted by submit time "
                      "(workload::sort_trace)");
    }
    const auto t0 = Clock::now();
    std::size_t cursor = 0;
    while (clock_ < until || cursor < trace.size()) {
        const sim::TimePoint boundary = clock_ + config_.epoch;
        if (cursor < trace.size() && trace[cursor].submit < boundary) {
            // Quiescent snapshot of every shard — the pool barrier above
            // means no shard is mid-event here.
            RoutingTable table(config_.rule, shards_.size());
            table.set_rr_cursor(rr_cursor_);
            for (std::size_t i = 0; i < shards_.size(); ++i) {
                GridMember& m = *shards_[i].member;
                for (const cluster::OsType os :
                     {cluster::OsType::kLinux, cluster::OsType::kWindows}) {
                    table.set_load(i, os, m.capable(os), m.load(os));
                }
            }
            while (cursor < trace.size() && trace[cursor].submit < boundary) {
                const workload::JobSpec& spec = trace[cursor++];
                const std::size_t target = table.route(spec.os, spec.total_cpus());
                if (target == RoutingTable::kRejected) {
                    ++stats_.rejected;
                } else {
                    shards_[target].mailbox.push_back(spec);
                    ++stats_.routed;
                    ++stats_.messages;
                }
            }
            rr_cursor_ = table.rr_cursor();
        }
        pool_->parallel_for(shards_.size(),
                            [&](std::size_t i, int) { advance_shard(i, boundary); });
        clock_ = boundary;
        ++stats_.epochs;
    }
    stats_.events_dispatched = 0;
    for (Shard& shard : shards_)
        stats_.events_dispatched += shard.member->engine().stats().dispatched;
    stats_.wall_ms += std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

void FederatedGrid::arm_mailbox(std::size_t index) {
    Shard& shard = shards_[index];
    sim::Engine& engine = shard.member->engine();
    const sim::TimePoint due = shard.mailbox[shard.mailbox_cursor].submit;
    const sim::TimePoint at = due < engine.now() ? engine.now() : due;
    engine.schedule_at(at, [this, index] { pump_mailbox(index); });
}

void FederatedGrid::pump_mailbox(std::size_t index) {
    Shard& shard = shards_[index];
    sim::Engine& engine = shard.member->engine();
    while (shard.mailbox_cursor < shard.mailbox.size() &&
           shard.mailbox[shard.mailbox_cursor].submit <= engine.now()) {
        shard.member->submit(shard.mailbox[shard.mailbox_cursor]);
        ++shard.mailbox_cursor;
    }
    if (shard.mailbox_cursor < shard.mailbox.size()) arm_mailbox(index);
}

void FederatedGrid::advance_shard(std::size_t index, sim::TimePoint until) {
    Shard& shard = shards_[index];
    if (!shard.mailbox.empty()) {
        shard.mailbox_cursor = 0;
        arm_mailbox(index);
    }
    shard.member->engine().run_until(until);
    // Every mailbox entry was routed into [clock_, until), so the pump must
    // have delivered all of them by the time the shard reaches the boundary.
    util::ensure(shard.mailbox_cursor == shard.mailbox.size(),
                 "FederatedGrid: undelivered mailbox entries at epoch boundary");
    shard.mailbox.clear();
    shard.mailbox_cursor = 0;
}

GridSummary FederatedGrid::report(double horizon_s) {
    util::require(started_, "FederatedGrid::report: call start() first");
    std::vector<GridMember*> members;
    members.reserve(shards_.size());
    for (Shard& shard : shards_) members.push_back(shard.member.get());
    return summarise_grid(members, stats_.routed, stats_.rejected, horizon_s);
}

workload::Summary FederatedGrid::grid_summary(double horizon_s) {
    return report(horizon_s).total;
}

}  // namespace hc::grid
