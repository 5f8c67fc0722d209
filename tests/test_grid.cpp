// Tests for the campus-grid (QGG) layer: members, capability, routing rules,
// grid-wide summaries, and FederatedGrid, which runs every grid
// (epoch-synchronised routing, thread-count byte-equality, conservation
// invariants).
#include <gtest/gtest.h>

#include <cmath>

#include "grid/federation.hpp"
#include "util/rng.hpp"
#include "workload/catalog.hpp"

namespace hc::grid {
namespace {

using cluster::OsType;

workload::JobSpec job(OsType os, int nodes, sim::Duration runtime) {
    workload::JobSpec spec;
    spec.app = os == OsType::kLinux ? "DL_POLY" : "Backburner";
    spec.os = os;
    spec.nodes = nodes;
    spec.runtime = runtime;
    return spec;
}

workload::JobSpec timed_job(OsType os, int nodes, sim::Duration runtime,
                            sim::TimePoint submit) {
    auto spec = job(os, nodes, runtime);
    spec.submit = submit;
    return spec;
}

/// Grid tests run FederatedGrid on one thread, with the members' 10-minute
/// poll cycle as the epoch.
struct GridFixture : ::testing::Test {
    static FederationConfig serial(RoutingRule rule) {
        FederationConfig config;
        config.rule = rule;
        config.epoch = sim::minutes(10);
        config.threads = 1;
        return config;
    }
};

TEST_F(GridFixture, MemberCapabilities) {
    GridMember linux_member("tauceti", GridMember::Kind::kDedicatedLinux, 4);
    GridMember windows_member("vega", GridMember::Kind::kDedicatedWindows, 4);
    GridMember hybrid("eridani", GridMember::Kind::kHybrid, 4);
    EXPECT_TRUE(linux_member.capable(OsType::kLinux));
    EXPECT_FALSE(linux_member.capable(OsType::kWindows));
    EXPECT_FALSE(windows_member.capable(OsType::kLinux));
    EXPECT_TRUE(windows_member.capable(OsType::kWindows));
    EXPECT_TRUE(hybrid.capable(OsType::kLinux));
    EXPECT_TRUE(hybrid.capable(OsType::kWindows));
}

TEST_F(GridFixture, DedicatedMembersBootTheirOs) {
    GridMember linux_member("tauceti", GridMember::Kind::kDedicatedLinux, 4);
    GridMember windows_member("vega", GridMember::Kind::kDedicatedWindows, 4);
    linux_member.start();
    windows_member.start();
    EXPECT_EQ(linux_member.cluster().cluster().count_running(OsType::kLinux), 4);
    EXPECT_EQ(windows_member.cluster().cluster().count_running(OsType::kWindows), 4);
}

TEST_F(GridFixture, LoadReflectsQueuedWork) {
    GridMember member("tauceti", GridMember::Kind::kDedicatedLinux, 2);
    member.start();
    EXPECT_EQ(member.load(OsType::kLinux).capable_cpus, 8);
    EXPECT_EQ(member.load(OsType::kLinux).free_cpus, 8);
    EXPECT_EQ(member.load(OsType::kLinux).queued_cpus, 0);
    member.submit(job(OsType::kLinux, 2, sim::hours(1)));  // fills the cluster
    member.submit(job(OsType::kLinux, 2, sim::hours(1)));  // queues
    const auto load = member.load(OsType::kLinux);
    EXPECT_EQ(load.free_cpus, 0);
    EXPECT_EQ(load.queued_cpus, 8);
    EXPECT_GT(load.pressure(), 0.9);
    // Incapable OS reports unroutable pressure.
    EXPECT_GT(member.load(OsType::kWindows).pressure(), 1e8);
}

TEST_F(GridFixture, SubmitToIncapableMemberThrows) {
    GridMember member("tauceti", GridMember::Kind::kDedicatedLinux, 2);
    member.start();
    EXPECT_THROW(member.submit(job(OsType::kWindows, 1, sim::hours(1))),
                 util::PreconditionError);
}

TEST_F(GridFixture, FirstCapableRouting) {
    // First-capable ignores load: every job goes to the first member that
    // can run its OS, even a saturated one ahead of an idle one.
    RoutingTable table(RoutingRule::kFirstCapable, 3);
    table.set_load(0, OsType::kWindows, true, MemberLoad{8, 8, 0});  // Windows only
    table.set_load(1, OsType::kLinux, true, MemberLoad{8, 0, 64});   // saturated
    table.set_load(2, OsType::kLinux, true, MemberLoad{8, 8, 0});    // idle
    for (int i = 0; i < 3; ++i) EXPECT_EQ(table.route(OsType::kLinux, 4), 1u);
    EXPECT_EQ(table.route(OsType::kWindows, 4), 0u);
    RoutingTable linux_only(RoutingRule::kFirstCapable, 1);
    linux_only.set_load(0, OsType::kLinux, true, MemberLoad{8, 8, 0});
    EXPECT_EQ(linux_only.route(OsType::kWindows, 1), RoutingTable::kRejected);
}

TEST_F(GridFixture, RoundRobinRouting) {
    FederatedGrid fed(serial(RoutingRule::kRoundRobin));
    fed.add_member({"tauceti", GridMember::Kind::kDedicatedLinux, 2});
    fed.add_member({"altair", GridMember::Kind::kDedicatedLinux, 2});
    fed.start();
    std::vector<workload::JobSpec> trace;
    for (int i = 0; i < 4; ++i)
        trace.push_back(timed_job(OsType::kLinux, 1, sim::hours(1), fed.now() + sim::minutes(i)));
    fed.run(trace, fed.now() + sim::minutes(10));
    EXPECT_EQ(fed.stats().routed, 4u);
    EXPECT_EQ(fed.member(0).jobs_received(), 2u);
    EXPECT_EQ(fed.member(1).jobs_received(), 2u);
}

TEST_F(GridFixture, LeastPressureAvoidsTheBusyMember) {
    FederatedGrid fed(serial(RoutingRule::kLeastPressure));
    fed.add_member({"tauceti", GridMember::Kind::kDedicatedLinux, 2});
    fed.add_member({"altair", GridMember::Kind::kDedicatedLinux, 2});
    fed.start();
    // Saturate the first member directly.
    GridMember& busy = fed.member(0);
    busy.submit(job(OsType::kLinux, 2, sim::hours(4)));
    busy.submit(job(OsType::kLinux, 2, sim::hours(4)));
    fed.run({timed_job(OsType::kLinux, 1, sim::hours(1), fed.now())},
            fed.now() + sim::minutes(10));
    EXPECT_EQ(busy.jobs_received(), 2u);
    EXPECT_EQ(fed.member(1).jobs_received(), 1u);
}

TEST_F(GridFixture, UnroutableJobIsRejected) {
    FederatedGrid fed(serial(RoutingRule::kLeastPressure));
    fed.add_member({"tauceti", GridMember::Kind::kDedicatedLinux, 2});
    fed.start();
    fed.run({timed_job(OsType::kWindows, 1, sim::hours(1), fed.now())},
            fed.now() + sim::minutes(10));
    EXPECT_EQ(fed.stats().rejected, 1u);
    EXPECT_EQ(fed.stats().routed, 0u);
    EXPECT_EQ(fed.member(0).jobs_received(), 0u);
}

TEST_F(GridFixture, HybridMemberAbsorbsWindowsOverflow) {
    FederatedGrid fed(serial(RoutingRule::kLeastPressure));
    fed.add_member({"vega", GridMember::Kind::kDedicatedWindows, 2});
    fed.add_member({"eridani", GridMember::Kind::kHybrid, 4});
    fed.start();
    // Overload the dedicated Windows cluster; overflow should route to the
    // hybrid, which then reboots nodes into Windows to serve it.
    std::vector<workload::JobSpec> trace(
        6, timed_job(OsType::kWindows, 2, sim::minutes(30), fed.now()));
    fed.run(trace, fed.now() + sim::hours(8));
    GridMember& hybrid = fed.member(1);
    EXPECT_EQ(fed.stats().routed, 6u);
    EXPECT_GT(hybrid.jobs_received(), 0u);
    const auto summary = fed.report(sim::hours(8).seconds()).total;
    EXPECT_EQ(summary.completed, 6u);
    EXPECT_GT(hybrid.cluster().counters().os_switches, 0u);
}

TEST_F(GridFixture, MemberAccessorsValidate) {
    FederatedGrid fed(serial(RoutingRule::kFirstCapable));
    EXPECT_THROW(fed.start(), util::PreconditionError);  // no members
    fed.add_member({"tauceti", GridMember::Kind::kDedicatedLinux, 2});
    fed.start();
    EXPECT_EQ(fed.member_count(), 1u);
    EXPECT_NO_THROW((void)fed.member(0));
    EXPECT_THROW((void)fed.member(1), util::PreconditionError);
}

// ---- routing module --------------------------------------------------------

TEST(GridRouting, RoutingRuleNamesRoundTrip) {
    for (const RoutingRule rule : {RoutingRule::kFirstCapable, RoutingRule::kRoundRobin,
                                   RoutingRule::kLeastPressure}) {
        const auto parsed = parse_routing_rule(routing_rule_name(rule));
        ASSERT_TRUE(parsed.ok()) << parsed.error_message();
        EXPECT_EQ(parsed.value(), rule);
    }
    EXPECT_FALSE(parse_routing_rule("most-pressure").ok());
    EXPECT_FALSE(parse_routing_rule("").ok());
}

TEST(GridRouting, MemberKindSpellingsRoundTrip) {
    for (const GridMember::Kind kind :
         {GridMember::Kind::kDedicatedLinux, GridMember::Kind::kDedicatedWindows}) {
        const auto parsed = parse_member_kind(grid_member_kind_name(kind));
        ASSERT_TRUE(parsed.ok()) << parsed.error_message();
        EXPECT_EQ(parsed.value(), kind);
    }
    // The hybrid's display name carries a suffix; specs use the bare token.
    const auto hybrid = parse_member_kind("hybrid");
    ASSERT_TRUE(hybrid.ok());
    EXPECT_EQ(hybrid.value(), GridMember::Kind::kHybrid);
    EXPECT_FALSE(parse_member_kind("dualboot").ok());
}

TEST(GridRouting, IncapablePressureIsInfinite) {
    MemberLoad incapable;  // capable_cpus == 0
    EXPECT_TRUE(std::isinf(incapable.pressure()));
    MemberLoad busy{8, 0, 100000000};
    // A merely very-busy member must still beat an incapable one — the old
    // finite 1e9 sentinel could be out-pressured by real load.
    EXPECT_TRUE(beats_under_least_pressure(busy, incapable));
    EXPECT_FALSE(beats_under_least_pressure(incapable, busy));
    // Two incapable candidates: neither wins (scan order keeps the first).
    EXPECT_FALSE(beats_under_least_pressure(incapable, MemberLoad{}));
}

TEST(GridRouting, TableAccountsJobsWithinAnEpoch) {
    RoutingTable table(RoutingRule::kLeastPressure, 2);
    table.set_load(0, cluster::OsType::kLinux, true, MemberLoad{8, 8, 0});
    table.set_load(1, cluster::OsType::kLinux, true, MemberLoad{8, 8, 0});
    // Both idle: index tie-break picks 0 and the accounting charges it, so
    // the next equal-size job flows to 1 — an epoch burst spreads instead of
    // dog-piling the member that looked idlest at the boundary.
    EXPECT_EQ(table.route(cluster::OsType::kLinux, 8), 0u);
    EXPECT_EQ(table.route(cluster::OsType::kLinux, 8), 1u);
    // Both full now; queued_cpus tips the balance job by job.
    EXPECT_EQ(table.route(cluster::OsType::kLinux, 4), 0u);
    EXPECT_EQ(table.route(cluster::OsType::kLinux, 4), 1u);
    // No capable member for Windows.
    EXPECT_EQ(table.route(cluster::OsType::kWindows, 1), RoutingTable::kRejected);
}

TEST(GridRouting, TableRoundRobinCursorCarriesAcrossEpochs) {
    RoutingTable first(RoutingRule::kRoundRobin, 3);
    for (std::size_t i = 0; i < 3; ++i)
        first.set_load(i, cluster::OsType::kLinux, true, MemberLoad{8, 8, 0});
    EXPECT_EQ(first.route(cluster::OsType::kLinux, 4), 0u);
    EXPECT_EQ(first.route(cluster::OsType::kLinux, 4), 1u);
    // Next epoch's table resumes where the last one stopped.
    RoutingTable second(RoutingRule::kRoundRobin, 3);
    for (std::size_t i = 0; i < 3; ++i)
        second.set_load(i, cluster::OsType::kLinux, true, MemberLoad{8, 8, 0});
    second.set_rr_cursor(first.rr_cursor());
    EXPECT_EQ(second.route(cluster::OsType::kLinux, 4), 2u);
    EXPECT_EQ(second.route(cluster::OsType::kLinux, 4), 0u);
}

// ---- heterogeneous grid summaries ------------------------------------------

TEST_F(GridFixture, HeterogeneousCoresPerNodeSummary) {
    FederatedGrid fed(serial(RoutingRule::kLeastPressure));
    // A wide-node hybrid first, then a narrow-node Linux member LAST — the
    // old merge took the last member's cores_per_node for the whole grid,
    // which mis-scaled the hybrid's reboot downtime by 2/8.
    fed.add_member({"eridani", GridMember::Kind::kHybrid, 4, core::PolicyKind::kFairShare, 8});
    fed.add_member(
        {"tauceti", GridMember::Kind::kDedicatedLinux, 4, core::PolicyKind::kFairShare, 2});
    fed.start();
    // Windows demand forces the hybrid to switch nodes -> nonzero downtime.
    std::vector<workload::JobSpec> trace(
        4, timed_job(OsType::kWindows, 2, sim::minutes(30), fed.now()));
    fed.run(trace, fed.now() + sim::hours(8));
    ASSERT_EQ(fed.stats().routed, 4u);

    const double horizon_s = sim::hours(8).seconds();
    const GridSummary report = fed.report(horizon_s);
    ASSERT_EQ(report.members.size(), 2u);
    EXPECT_EQ(report.members[0].name, "eridani");
    EXPECT_EQ(report.members[0].cores_per_node, 8);
    EXPECT_EQ(report.members[1].cores_per_node, 2);
    GridMember& hybrid = fed.member(0);
    EXPECT_EQ(report.members[0].jobs_received, hybrid.jobs_received());

    const auto hybrid_counters = hybrid.cluster().counters();
    const auto tauceti_counters = fed.member(1).cluster().counters();
    ASSERT_GT(hybrid_counters.reboot_downtime_s, 0);
    const double total_cores = 4 * 8 + 4 * 2;
    // Exact heterogeneous overhead: each member's node-second downtime costs
    // its OWN core width — the old merge scaled everything by whichever
    // member happened to be registered last.
    const double want = (static_cast<double>(hybrid_counters.reboot_downtime_s) * 8.0 +
                         static_cast<double>(tauceti_counters.reboot_downtime_s) * 2.0) /
                        (total_cores * horizon_s);
    EXPECT_DOUBLE_EQ(report.total.switch_overhead, want);
    EXPECT_EQ(report.total.submitted, report.routed + report.rejected);
}

// ---- the sharded federation ------------------------------------------------

TEST(FederatedGridTest, DeliversMessagesAtTheirSubmitInstant) {
    FederationConfig config;
    config.rule = RoutingRule::kFirstCapable;
    config.epoch = sim::minutes(10);
    config.threads = 1;
    FederatedGrid fed(config);
    fed.add_member({"tauceti", GridMember::Kind::kDedicatedLinux, 2});
    fed.start();
    const sim::TimePoint t0 = fed.now();
    ASSERT_EQ(t0.ms % config.epoch.ms, 0) << "start() must align on an epoch boundary";

    // A pre-alignment straggler (clamped to t0), then two same-epoch
    // arrivals sized so the member is idle at each one's TRUE submit
    // instant but busy at the epoch boundary. Waits are measured from
    // delivery, so boundary-dumped delivery would queue them (nonzero
    // wait); exact-instant delivery gives wait 0 across the board.
    std::vector<workload::JobSpec> trace{
        timed_job(OsType::kLinux, 1, sim::seconds(30), sim::TimePoint{}),
        timed_job(OsType::kLinux, 1, sim::minutes(5), t0 + sim::minutes(1)),
        timed_job(OsType::kLinux, 1, sim::minutes(1), t0 + sim::minutes(7))};
    fed.run(trace, t0 + sim::hours(1));

    EXPECT_EQ(fed.stats().routed, 3u);
    EXPECT_EQ(fed.stats().rejected, 0u);
    EXPECT_EQ(fed.stats().messages, 3u);
    EXPECT_EQ(fed.stats().epochs, 6u);  // whole epochs, scenario-determined
    EXPECT_EQ(fed.now(), t0 + sim::hours(1));
    EXPECT_EQ(fed.member(0).jobs_received(), 3u);

    const auto& outcomes = fed.member(0).metrics().outcomes();
    ASSERT_EQ(outcomes.size(), 3u);
    for (const auto& outcome : outcomes) {
        ASSERT_TRUE(outcome.completed);
        EXPECT_EQ(outcome.wait_s, 0);
    }
    // The original submit instants survive into the outcomes (the clamp
    // changes delivery, not the recorded spec).
    EXPECT_EQ(outcomes[0].spec.submit, sim::TimePoint{});
}

TEST(FederatedGridTest, CrossEpochArrivalsWaitForTheirEpoch) {
    FederationConfig config;
    config.rule = RoutingRule::kLeastPressure;
    config.epoch = sim::minutes(10);
    config.threads = 1;
    FederatedGrid fed(config);
    fed.add_member({"tauceti", GridMember::Kind::kDedicatedLinux, 1});
    fed.add_member({"altair", GridMember::Kind::kDedicatedLinux, 1});
    fed.start();
    const sim::TimePoint t0 = fed.now();

    // Epoch 0 saturates tauceti (tie-break picks index 0, accounting then
    // sends the second job to altair); the epoch-2 arrival sees FRESH
    // boundary snapshots — both busy for 4h — not epoch-0 state.
    std::vector<workload::JobSpec> trace{
        timed_job(OsType::kLinux, 1, sim::hours(4), t0 + sim::minutes(1)),
        timed_job(OsType::kLinux, 1, sim::hours(4), t0 + sim::minutes(2)),
        timed_job(OsType::kLinux, 1, sim::minutes(5), t0 + sim::minutes(21))};
    fed.run(trace, t0 + sim::hours(5));

    EXPECT_EQ(fed.member(0).jobs_received(), 2u);  // long job + queued short one
    EXPECT_EQ(fed.member(1).jobs_received(), 1u);
    // The short job queued behind a 4h job: nonzero wait, delivered in its
    // own epoch (wait measured from its true submit instant).
    const auto& outcomes = fed.member(0).metrics().outcomes();
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_GT(outcomes[1].wait_s, 3 * 3600);
}

/// A3-shaped federation: the QGG trio plus campus trace with a render surge.
workload::Summary run_a3_shaped(int threads, std::string* ledger) {
    workload::GeneratorConfig cfg;
    cfg.arrival.rate_per_hour = 6;
    cfg.horizon = sim::hours(12);
    cfg.max_nodes = 2;
    cfg.runtime_scale = 0.2;
    workload::WorkloadGenerator gen(workload::AppCatalog::huddersfield(), cfg, 42);
    auto trace = gen.generate();
    auto surge = gen.burst("Backburner", 8, sim::TimePoint{} + sim::hours(6), sim::hours(1));
    trace.insert(trace.end(), surge.begin(), surge.end());
    workload::sort_trace(trace);

    FederationConfig config;
    config.rule = RoutingRule::kLeastPressure;
    config.epoch = sim::minutes(10);
    config.threads = threads;
    FederatedGrid fed(config);
    fed.add_member({"tauceti", GridMember::Kind::kDedicatedLinux, 4});
    fed.add_member({"vega", GridMember::Kind::kDedicatedWindows, 2});
    fed.add_member({"eridani", GridMember::Kind::kHybrid, 4});
    fed.start();
    fed.run(trace, sim::TimePoint{} + sim::hours(18));
    const GridSummary report = fed.report(sim::hours(18).seconds());
    if (ledger != nullptr) *ledger = render_grid_ledger(report);
    return report.total;
}

TEST(FederatedGridTest, ByteIdenticalAcrossThreadCounts) {
    // The repo's standing bar: thread count is a wall-clock knob, nothing
    // else. Compare the full rendered ledger (grid total + per-member rows)
    // byte for byte at 1/4/8 threads.
    std::string ledger1;
    const auto s1 = run_a3_shaped(1, &ledger1);
    EXPECT_GT(s1.completed, 0u);
    for (const int threads : {4, 8}) {
        std::string ledger_n;
        const auto sn = run_a3_shaped(threads, &ledger_n);
        EXPECT_EQ(ledger1, ledger_n) << "threads=" << threads;
        EXPECT_EQ(s1.completed, sn.completed);
        EXPECT_DOUBLE_EQ(s1.utilisation, sn.utilisation);
        EXPECT_DOUBLE_EQ(s1.mean_wait_s, sn.mean_wait_s);
    }
}

TEST(FederatedGridTest, MatchesRoutingConservationUnderRandomisedLoad) {
    // Randomised invariant: every submitted job is exactly one of routed or
    // rejected, and every routed job lands in exactly one member — nothing
    // is lost or duplicated across shard boundaries.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        util::Rng rng(seed * 977);
        FederationConfig config;
        const auto rules = {RoutingRule::kFirstCapable, RoutingRule::kRoundRobin,
                            RoutingRule::kLeastPressure};
        config.rule = *(rules.begin() + static_cast<int>(rng.uniform_int(0, 2)));
        config.epoch = sim::minutes(rng.uniform_int(5, 20));
        config.threads = static_cast<int>(rng.uniform_int(1, 4));
        FederatedGrid fed(config);
        const auto members = rng.uniform_int(2, 4);
        for (std::int64_t m = 0; m < members; ++m) {
            const auto kinds = {GridMember::Kind::kDedicatedLinux,
                                GridMember::Kind::kDedicatedWindows,
                                GridMember::Kind::kHybrid};
            fed.add_member({"m" + std::to_string(m),
                            *(kinds.begin() + static_cast<int>(rng.uniform_int(0, 2))),
                            static_cast<int>(rng.uniform_int(1, 4))});
        }
        fed.start();

        workload::GeneratorConfig cfg;
        cfg.arrival.rate_per_hour = rng.uniform(4, 12);
        cfg.horizon = sim::hours(6);
        cfg.max_nodes = 2;
        cfg.runtime_scale = 0.2;
        workload::WorkloadGenerator gen(workload::AppCatalog::huddersfield(), cfg, seed);
        auto trace = gen.generate();
        workload::sort_trace(trace);

        fed.run(trace, sim::TimePoint{} + sim::hours(8));
        const auto& stats = fed.stats();
        EXPECT_EQ(stats.routed + stats.rejected, trace.size()) << "seed=" << seed;
        std::size_t received = 0;
        for (std::size_t m = 0; m < fed.member_count(); ++m)
            received += fed.member(m).jobs_received();
        EXPECT_EQ(received, stats.routed) << "seed=" << seed;
        const GridSummary report = fed.report(sim::hours(8).seconds());
        EXPECT_EQ(report.total.submitted, trace.size()) << "seed=" << seed;
        EXPECT_LE(report.total.completed, stats.routed) << "seed=" << seed;
    }
}

TEST(FederatedGridTest, ValidatesItsPreconditions) {
    FederationConfig config;
    config.epoch = sim::minutes(10);
    FederatedGrid fed(config);
    EXPECT_THROW(fed.start(), util::PreconditionError);  // no members
    EXPECT_THROW(fed.add_member({"", GridMember::Kind::kHybrid, 4}),
                 util::PreconditionError);
    EXPECT_THROW(fed.add_member({"x", GridMember::Kind::kHybrid, 0}),
                 util::PreconditionError);
    fed.add_member({"x", GridMember::Kind::kDedicatedLinux, 2});
    EXPECT_THROW((void)fed.member(0), util::PreconditionError);  // before start
    EXPECT_THROW(fed.run({}, sim::TimePoint{} + sim::hours(1)),
                 util::PreconditionError);  // before start
    fed.start();
    EXPECT_EQ(fed.member_count(), 1u);
    EXPECT_NO_THROW((void)fed.member(0));
    EXPECT_THROW((void)fed.member(1), util::PreconditionError);  // out of range
    EXPECT_THROW(fed.add_member({"y", GridMember::Kind::kHybrid, 2}),
                 util::PreconditionError);  // after start
    // Unsorted traces are refused, not silently misrouted.
    std::vector<workload::JobSpec> unsorted{
        timed_job(OsType::kLinux, 1, sim::minutes(5), sim::TimePoint{} + sim::hours(2)),
        timed_job(OsType::kLinux, 1, sim::minutes(5), sim::TimePoint{} + sim::hours(1))};
    EXPECT_THROW(fed.run(unsorted, sim::TimePoint{} + sim::hours(3)),
                 util::PreconditionError);
}

}  // namespace
}  // namespace hc::grid
