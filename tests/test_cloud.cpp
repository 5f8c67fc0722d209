// hc::cloud — the elastic third partition.
//
// Pins the backend contracts the burst-aware decision layer leans on:
// provisioning latency is seed-deterministic, the cost ledger conserves
// (accrued time == the exact sum of request->release spans, open sessions
// included), the idle-timeout sweep returns unused instances, the quota is
// a hard cap (shortfall counted, never over-provisioned), save/restore
// round-trips mid-provision, and full burst scenarios through hc::sweep
// render byte-identical bench records at any thread count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cloud/cloud.hpp"
#include "cluster/cluster.hpp"
#include "core/scenario.hpp"
#include "pbs/server.hpp"
#include "sim/engine.hpp"
#include "sweep/runner.hpp"

namespace hc::cloud {
namespace {

using cluster::OsType;
using cluster::PowerState;

// A tiny on-prem pool + PBS server + the elastic partition beside it, the
// same shape hc::serve and the scenario runner build, minus the workload.
struct CloudWorld {
    static constexpr int kOnPrem = 4;

    explicit CloudWorld(CloudConfig cc)
        : cluster(engine,
                  [] {
                      cluster::ClusterConfig cfg;
                      cfg.node_count = kOnPrem;
                      cfg.timing.jitter = 0;
                      return cfg;
                  }()),
          pbs(engine),
          backend(engine, std::move(cc), kOnPrem) {
        engine.logger().set_min_level(util::LogLevel::kError);
        for (auto* node : cluster.nodes()) pbs.attach_node(*node);
        for (auto* node : backend.nodes())
            node->set_boot_resolver([](const cluster::Node&) {
                cluster::BootDecision decision;
                decision.os = OsType::kLinux;
                return decision;
            });
        backend.attach(&pbs, nullptr);
    }

    sim::Engine engine;
    cluster::Cluster cluster;
    pbs::PbsServer pbs;
    CloudBackend backend;
};

CloudConfig base_config() {
    CloudConfig cc;
    cc.max_burst = 4;
    cc.provision_delay = sim::minutes(2);
    cc.provision_jitter = 0.25;
    cc.idle_timeout = sim::minutes(5);
    cc.sweep_interval = sim::minutes(1);
    return cc;
}

// ---- provisioning-latency determinism --------------------------------------

// One full burst cycle; returns the summed request->up reaction time, which
// folds in every jittered provision delay.
std::int64_t reaction_ms_for_seed(std::uint64_t seed) {
    CloudConfig cc = base_config();
    cc.seed = seed;
    CloudWorld world(cc);
    world.backend.start();
    EXPECT_EQ(world.backend.request_burst(OsType::kLinux, 4), 4);
    world.engine.run_for(sim::minutes(30));
    world.backend.stop();
    EXPECT_EQ(world.backend.stats().provisions_completed, 4u);
    return world.backend.stats().total_reaction_ms;
}

TEST(CloudDeterminism, ProvisionLatencyIsAFunctionOfTheSeed) {
    const std::int64_t a = reaction_ms_for_seed(7);
    const std::int64_t b = reaction_ms_for_seed(7);
    EXPECT_EQ(a, b);  // same seed: jittered delays replay exactly
    // Different seed: the multiplicative jitter draws differ somewhere
    // across four provisions.
    EXPECT_NE(a, reaction_ms_for_seed(8));
    // And every reaction is at least the configured mean's lower jitter
    // bound — the delay distribution is centred where the config says.
    EXPECT_GE(a, 4 * static_cast<std::int64_t>(sim::minutes(2).ms * 0.75));
}

// ---- cost ledger ------------------------------------------------------------

TEST(CloudLedger, AccruedTimeEqualsSumOfSessionSpans) {
    CloudConfig cc = base_config();
    cc.provision_jitter = 0;           // exact arithmetic below
    cc.idle_timeout = sim::hours(24);  // sweep never releases in this test
    cc.price_per_node_hour = 0.50;
    CloudWorld world(cc);
    world.backend.start();

    const sim::TimePoint requested = world.engine.now();
    ASSERT_EQ(world.backend.request_burst(OsType::kLinux, 2), 2);
    // Billing opens at request time, not at kUp: while still provisioning,
    // the meter already runs.
    world.engine.run_for(sim::minutes(1));
    EXPECT_EQ(world.backend.accrued_ms(world.engine.now()), 2 * sim::minutes(1).ms);

    world.engine.run_for(sim::minutes(59));
    ASSERT_EQ(world.backend.stats().provisions_completed, 2u);
    // Two open sessions, one hour each.
    EXPECT_EQ(world.backend.accrued_ms(world.engine.now()),
              2 * (world.engine.now() - requested).ms);

    // Close one session; its span freezes while the other keeps accruing.
    world.backend.release(0);
    const std::int64_t span0 = (world.engine.now() - requested).ms;
    world.engine.run_for(sim::hours(1));
    const std::int64_t span1 = (world.engine.now() - requested).ms;
    EXPECT_EQ(world.backend.accrued_ms(world.engine.now()), span0 + span1);
    EXPECT_DOUBLE_EQ(world.backend.accrued_node_hours(world.engine.now()),
                     static_cast<double>(span0 + span1) / 3'600'000.0);
    EXPECT_DOUBLE_EQ(world.backend.accrued_cost(world.engine.now()),
                     world.backend.accrued_node_hours(world.engine.now()) * 0.50);

    // Conservation: closing the last session changes nothing — the open
    // span converts to a billed span of the same length.
    world.backend.release(1);
    EXPECT_EQ(world.backend.accrued_ms(world.engine.now()), span0 + span1);
    world.engine.run_for(sim::hours(3));
    EXPECT_EQ(world.backend.accrued_ms(world.engine.now()), span0 + span1);
    world.backend.stop();
}

TEST(CloudLedger, LedgerOnlyGrows) {
    CloudWorld world(base_config());
    world.backend.start();
    ASSERT_EQ(world.backend.request_burst(OsType::kLinux, 3), 3);
    std::int64_t last = 0;
    for (int step = 0; step < 40; ++step) {
        world.engine.run_for(sim::minutes(1));
        const std::int64_t now = world.backend.accrued_ms(world.engine.now());
        EXPECT_GE(now, last) << "ledger shrank at minute " << step;
        last = now;
    }
    // The 5-minute idle timeout fired along the way; money kept accruing
    // monotonically through the releases.
    EXPECT_EQ(world.backend.stats().releases, 3u);
    world.backend.stop();
}

// ---- idle-timeout scale-down ------------------------------------------------

TEST(CloudScaleDown, IdleInstancesAreReleasedAfterTimeout) {
    CloudWorld world(base_config());
    world.backend.start();
    ASSERT_EQ(world.backend.request_burst(OsType::kLinux, 2), 2);
    // Provision (~2 min) + boot, then idle: within the first few minutes
    // nothing is released yet.
    world.engine.run_for(sim::minutes(4));
    EXPECT_EQ(world.backend.stats().releases, 0u);
    EXPECT_EQ(world.backend.active_count(), 2);
    // ... but 5 idle minutes later the sweep takes both back.
    world.engine.run_for(sim::minutes(20));
    EXPECT_EQ(world.backend.stats().releases, 2u);
    EXPECT_EQ(world.backend.active_count(), 0);
    EXPECT_EQ(world.backend.idle_count(), 0);
    for (auto* node : world.backend.nodes())
        EXPECT_EQ(node->state(), PowerState::kOff);
    // Released slots return to the pool: the quota is fully available again.
    EXPECT_EQ(world.backend.available_burst(), 4);
    world.backend.stop();
}

TEST(CloudScaleDown, BusyInstancesAreNotReclaimed) {
    CloudWorld world(base_config());
    world.backend.start();
    ASSERT_EQ(world.backend.request_burst(OsType::kLinux, 1), 1);
    world.engine.run_for(sim::minutes(7));
    ASSERT_EQ(world.backend.stats().provisions_completed, 1u);
    // Park a long job on the rented node (the only up node in this world —
    // the on-prem pool never powered on): the sweep must leave it alone.
    pbs::JobScript script;
    script.name = "tenant";
    script.resources.nodes = 1;
    script.resources.ppn = 4;
    pbs::JobBehavior behavior;
    behavior.run_time = sim::hours(4);
    ASSERT_TRUE(world.pbs.submit(script, "sliang", std::move(behavior)).ok());
    world.engine.run_for(sim::hours(1));
    EXPECT_EQ(world.backend.stats().releases, 0u);
    EXPECT_EQ(world.backend.active_count(), 1);
    EXPECT_EQ(world.backend.idle_count(), 0);  // up but not idle
    world.backend.stop();
}

// ---- burst-cap enforcement --------------------------------------------------

TEST(CloudQuota, RequestsBeyondTheCapAreDeniedNotQueued) {
    CloudConfig cc = base_config();
    cc.max_burst = 3;
    CloudWorld world(cc);
    world.backend.start();
    EXPECT_EQ(world.backend.request_burst(OsType::kWindows, 5), 3);
    EXPECT_EQ(world.backend.stats().quota_denied, 2u);
    EXPECT_EQ(world.backend.available_burst(), 0);
    // A follow-up request against the exhausted quota grants nothing and
    // never double-provisions an in-flight slot.
    EXPECT_EQ(world.backend.request_burst(OsType::kWindows, 1), 0);
    EXPECT_EQ(world.backend.stats().quota_denied, 3u);
    EXPECT_EQ(world.backend.stats().nodes_requested, 3u);
    EXPECT_EQ(world.backend.provisioning_count(), 3);
    world.backend.stop();
}

TEST(CloudQuota, ReleaseReturnsCapacityToThePool) {
    CloudConfig cc = base_config();
    cc.max_burst = 2;
    CloudWorld world(cc);
    world.backend.start();
    ASSERT_EQ(world.backend.request_burst(OsType::kLinux, 2), 2);
    world.engine.run_for(sim::minutes(7));
    ASSERT_EQ(world.backend.stats().provisions_completed, 2u);
    world.backend.release(0);
    world.engine.run_for(sim::minutes(1));  // let the ACPI-off finish
    EXPECT_EQ(world.backend.available_burst(), 1);
    EXPECT_EQ(world.backend.request_burst(OsType::kLinux, 2), 1);  // cap still binds
    world.backend.stop();
}

// ---- save/restore -----------------------------------------------------------

// Snapshot mid-provision, run to the end, rewind, replay: the replay lands
// on identical stats and an identical ledger — the foundation the
// engine-level fork tests (test_snapshot) build on.
TEST(CloudSnapshot, MidProvisionRewindReplaysExactly) {
    CloudConfig cc = base_config();
    CloudWorld world(cc);
    world.backend.start();
    ASSERT_EQ(world.backend.request_burst(OsType::kLinux, 3), 3);
    world.engine.run_for(sim::minutes(1));  // provisions still in flight
    ASSERT_GT(world.backend.provisioning_count(), 0);

    const sim::Engine::Snapshot engine_snap = world.engine.snapshot();
    const CloudBackend::SavedState cloud_snap = world.backend.save_state();

    auto finish = [&] {
        world.engine.run_for(sim::minutes(45));
        return std::make_tuple(world.backend.stats().provisions_completed,
                               world.backend.stats().releases,
                               world.backend.stats().total_reaction_ms,
                               world.backend.accrued_ms(world.engine.now()));
    };
    const auto first = finish();
    world.engine.restore(engine_snap);
    world.backend.restore_state(cloud_snap);
    EXPECT_GT(world.backend.provisioning_count(), 0);  // pending again
    const auto replay = finish();
    EXPECT_EQ(first, replay);
    world.backend.stop();
}

// ---- full scenarios through hc::sweep ---------------------------------------

// The E10 ablation shape: all-Linux 16-node worlds where Windows arrivals
// stick and the burst-aware policy rents. The rendered record set — cloud
// counters, money, waits — must be byte-identical at any thread count.
std::string burst_sweep_records(int threads) {
    const sim::Duration horizon = sim::hours(8);
    auto trace = std::make_shared<const std::vector<workload::JobSpec>>(
        bench::mixed_trace(/*windows_share=*/0.6, /*seed=*/42, /*rate_per_hour=*/12.0,
                           horizon));
    std::vector<sweep::ScenarioReplica> replicas;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        for (double provision_s : {30.0, 300.0}) {
            core::ScenarioConfig cfg;
            cfg.kind = core::ScenarioKind::kBiStableHybrid;
            cfg.policy = core::PolicyKind::kBurstAware;
            cfg.node_count = 16;
            cfg.linux_nodes = 16;
            cfg.poll_interval = sim::minutes(10);
            cfg.horizon = horizon;
            cfg.seed = seed;
            cfg.cloud.max_burst = 8;
            cfg.cloud.provision_delay = sim::seconds(provision_s);
            cfg.cloud.idle_timeout = sim::minutes(30);
            cfg.cloud.sweep_interval = sim::minutes(1);
            replicas.push_back({cfg, trace,
                                "p" + std::to_string(static_cast<int>(provision_s)) +
                                    "s/seed" + std::to_string(seed)});
        }
    }
    const auto out = sweep::run_scenarios(std::move(replicas), threads);
    bench::JsonReport report("cloud-golden");
    for (const core::ScenarioResult& r : out.results) {
        EXPECT_TRUE(r.cloud_enabled) << r.label;
        const std::vector<std::pair<std::string, std::string>> p = {{"variant", r.label}};
        report.add("bursts", static_cast<double>(r.cloud_stats.burst_requests), "count", p);
        report.add("provisioned",
                   static_cast<double>(r.cloud_stats.provisions_completed), "count", p);
        report.add("reaction_s", r.cloud_stats.mean_reaction_s(), "s", p);
        report.add("node_hours", r.cloud_node_hours, "h", p);
        report.add("cost", r.cloud_cost, "$", p);
        report.add("wait_windows_s", r.summary.mean_wait_windows_s, "s", p);
        report.add("completed", static_cast<double>(r.summary.completed), "jobs", p);
    }
    report.set_sweep(out.stats);  // wall-clock envelope must NOT leak into records
    EXPECT_NE(report.render().find("\"host\": {\"nproc\": "), std::string::npos);
    EXPECT_EQ(report.render_records().find("\"host\""), std::string::npos);
    return report.render_records();
}

TEST(CloudSweepGolden, RecordsByteIdenticalAcrossThreadCounts) {
    const std::string serial = burst_sweep_records(1);
    EXPECT_EQ(serial, burst_sweep_records(4));
    EXPECT_EQ(serial, burst_sweep_records(8));
    // The golden is only meaningful if the worlds actually rented capacity.
    EXPECT_NE(serial.find("\"metric\": \"provisioned\""), std::string::npos);
    EXPECT_EQ(serial.find("\"value\": 0, \"unit\": \"h\""), std::string::npos)
        << "no replica accrued any node-hours — the burst path never ran:\n"
        << serial;
}

}  // namespace
}  // namespace hc::cloud
