// Full-stack integration tests: the complete dualboot-oscar loop on the
// simulated Eridani, v1 vs v2 behaviour, baselines, and failure injection.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "boot/boot_control.hpp"
#include "boot/disk_layouts.hpp"
#include "core/hybrid.hpp"
#include "core/scenario.hpp"
#include "deploy/reimage.hpp"
#include "util/log.hpp"
#include "workload/generator.hpp"

namespace hc::core {
namespace {

using cluster::OsType;

HybridConfig small_config(deploy::MiddlewareVersion version) {
    HybridConfig cfg;
    cfg.cluster.node_count = 8;
    cfg.cluster.timing.jitter = 0;
    cfg.version = version;
    cfg.poll_interval = sim::minutes(5);
    return cfg;
}

workload::JobSpec job(OsType os, int nodes, sim::Duration runtime, const char* app = "App") {
    workload::JobSpec spec;
    spec.app = app;
    spec.os = os;
    spec.nodes = nodes;
    spec.runtime = runtime;
    return spec;
}

TEST(Integration, V2FullLoopShiftsNodesBothWays) {
    sim::Engine engine;
    HybridCluster hybrid(engine, small_config(deploy::MiddlewareVersion::kV2));
    hybrid.start();
    hybrid.settle();
    ASSERT_EQ(hybrid.cluster().count_running(OsType::kLinux), 8);

    // Windows demand arrives -> nodes shift to Windows.
    hybrid.submit_now(job(OsType::kWindows, 3, sim::hours(1), "Backburner"));
    engine.run_until(sim::TimePoint{} + sim::minutes(40));
    EXPECT_EQ(hybrid.cluster().count_running(OsType::kWindows), 3);

    // Windows work drains; Linux demand that needs the whole cluster pulls
    // the nodes back.
    hybrid.submit_now(job(OsType::kLinux, 8, sim::hours(1), "DL_POLY"));
    engine.run_until(sim::TimePoint{} + sim::hours(4));
    EXPECT_EQ(hybrid.cluster().count_running(OsType::kLinux), 8);
    EXPECT_EQ(hybrid.pbs().stats().completed_normal, 1u);
    EXPECT_EQ(hybrid.winhpc().stats().finished, 1u);
    EXPECT_GE(hybrid.counters().os_switches, 6u);  // 3 over, 3 back
}

TEST(Integration, V1FullLoopWorksToo) {
    sim::Engine engine;
    HybridCluster hybrid(engine, small_config(deploy::MiddlewareVersion::kV1));
    hybrid.start();
    hybrid.settle();
    hybrid.submit_now(job(OsType::kWindows, 2, sim::minutes(30), "Opera"));
    engine.run_until(sim::TimePoint{} + sim::hours(2));
    EXPECT_EQ(hybrid.winhpc().stats().finished, 1u);
    // v1 switched via FAT control files, so those nodes' live controlmenu
    // now selects Windows.
    int windows_defaults = 0;
    for (auto* node : hybrid.cluster().nodes()) {
        auto* fat = node->disk().find(boot::kV1FatPartition);
        ASSERT_NE(fat, nullptr);
        if (boot::read_control_default(fat->files).value() == OsType::kWindows)
            ++windows_defaults;
    }
    EXPECT_EQ(windows_defaults, 2);
}

TEST(Integration, InitialSplitBootsMixed) {
    sim::Engine engine;
    HybridConfig cfg = small_config(deploy::MiddlewareVersion::kV2);
    cfg.initial_windows_nodes = 3;
    HybridCluster hybrid(engine, cfg);
    hybrid.start();
    hybrid.settle();
    EXPECT_EQ(hybrid.cluster().count_running(OsType::kWindows), 3);
    EXPECT_EQ(hybrid.cluster().count_running(OsType::kLinux), 5);
    // Initial per-MAC pins are one-shot; after boot only the flag remains.
    EXPECT_EQ(hybrid.flag()->pinned_count(), 0u);
}

TEST(Integration, V1PowerCycleFollowsLocalDisk_V2FollowsFlag) {
    // The §IV.A.1 robustness difference, end to end.
    // v1: a node mid-switch that gets power-cycled boots whatever its local
    //     FAT file says — which the switch job already flipped.
    // v2: any reboot follows the head-side flag, no matter what.
    for (const auto version :
         {deploy::MiddlewareVersion::kV1, deploy::MiddlewareVersion::kV2}) {
        sim::Engine engine;
        HybridCluster hybrid(engine, small_config(version));
        hybrid.start();
        hybrid.settle();
        // A random node power-cycles with no switching in progress.
        hybrid.cluster().node(5).hard_power_cycle();
        engine.run_until(sim::TimePoint{} + sim::hours(1));
        // Both versions: node comes back in Linux (v1: local default;
        // v2: flag still linux).
        EXPECT_EQ(hybrid.cluster().node(5).os(), OsType::kLinux)
            << deploy::middleware_version_name(version);
    }
}

TEST(Integration, V1WindowsReimageBreaksBootUntilLinuxReinstall) {
    // Reproduce the §IV.A complaint mechanically: reimaging Windows under
    // v1 clobbers the MBR, so the node can only boot Windows afterwards.
    sim::Engine engine;
    HybridCluster hybrid(engine, small_config(deploy::MiddlewareVersion::kV1));
    hybrid.start();
    hybrid.settle();
    auto& node = hybrid.cluster().node(0);
    deploy::Deployer deployer(deploy::MiddlewareVersion::kV1);
    const auto result = deployer.deploy_windows(node);
    ASSERT_TRUE(result.status.ok());
    EXPECT_TRUE(result.destroyed_linux);
    node.hard_power_cycle();
    engine.run_until(sim::TimePoint{} + sim::minutes(30));
    EXPECT_EQ(node.os(), OsType::kWindows);  // GRUB gone; Windows MBR boots sda1
    // Reinstalling Linux (v1 ritual) restores dual boot.
    ASSERT_TRUE(deployer.deploy_linux(node).status.ok());
    node.hard_power_cycle();
    engine.run_until(sim::TimePoint{} + sim::hours(1));
    EXPECT_EQ(node.os(), OsType::kLinux);
}

TEST(Integration, V2WindowsReimageLeavesBootAlone) {
    sim::Engine engine;
    HybridCluster hybrid(engine, small_config(deploy::MiddlewareVersion::kV2));
    hybrid.start();
    hybrid.settle();
    auto& node = hybrid.cluster().node(0);
    deploy::Deployer deployer(deploy::MiddlewareVersion::kV2);
    const auto result = deployer.deploy_windows(node);
    ASSERT_TRUE(result.status.ok());
    EXPECT_FALSE(result.destroyed_linux);
    node.hard_power_cycle();
    engine.run_until(sim::TimePoint{} + sim::minutes(30));
    EXPECT_EQ(node.os(), OsType::kLinux);  // flag still says linux; MBR irrelevant
}

TEST(Integration, BootHangLeavesNodeRecoverable) {
    sim::Engine engine;
    HybridConfig cfg = small_config(deploy::MiddlewareVersion::kV2);
    cfg.boot_hang_probability = 1.0;  // every boot hangs
    HybridCluster hybrid(engine, cfg);
    hybrid.start();
    engine.run_until(sim::TimePoint{} + sim::minutes(20));
    for (auto* node : hybrid.cluster().nodes())
        EXPECT_EQ(node->state(), cluster::PowerState::kHung);
    // Operator power-cycles with the fault cleared: impossible here (config
    // is fixed), but the hang counters recorded the failures.
    EXPECT_GE(hybrid.cluster().node(0).stats().hangs, 1u);
}

TEST(Integration, MonoStableServesWindowsEventually) {
    sim::Engine engine;
    HybridConfig cfg = small_config(deploy::MiddlewareVersion::kV2);
    cfg.policy = PolicyKind::kMonoStable;
    HybridCluster hybrid(engine, cfg);
    hybrid.start();
    hybrid.settle();
    hybrid.submit_now(job(OsType::kWindows, 2, sim::minutes(30), "Opera"));
    engine.run_until(sim::TimePoint{} + sim::hours(3));
    EXPECT_EQ(hybrid.winhpc().stats().finished, 1u);
    // Mono-stable flipped the WHOLE cluster, not just two nodes.
    EXPECT_GE(hybrid.counters().os_switches, 8u);
}

TEST(Integration, ScenarioRunnerProducesComparableSummaries) {
    // A small trace with both OS demands; the hybrid should complete more
    // work than a static split that has zero Windows nodes.
    std::vector<workload::JobSpec> trace;
    for (int i = 0; i < 4; ++i) {
        auto spec = job(OsType::kLinux, 2, sim::hours(1), "DL_POLY");
        spec.submit = sim::TimePoint{} + sim::minutes(10 * i);
        trace.push_back(spec);
    }
    for (int i = 0; i < 3; ++i) {
        auto spec = job(OsType::kWindows, 1, sim::hours(1), "Backburner");
        spec.submit = sim::TimePoint{} + sim::minutes(30 + 10 * i);
        trace.push_back(spec);
    }

    ScenarioConfig hybrid_cfg;
    hybrid_cfg.kind = ScenarioKind::kBiStableHybrid;
    hybrid_cfg.node_count = 8;
    hybrid_cfg.linux_nodes = 8;
    hybrid_cfg.horizon = sim::hours(12);
    const auto hybrid = run_scenario(hybrid_cfg, trace);

    ScenarioConfig static_cfg = hybrid_cfg;
    static_cfg.kind = ScenarioKind::kStaticSplit;  // 8 linux, 0 windows
    const auto fixed = run_scenario(static_cfg, trace);

    EXPECT_EQ(hybrid.summary.completed, trace.size());
    EXPECT_LT(fixed.summary.completed, trace.size());  // windows jobs starve
    EXPECT_GT(hybrid.summary.utilisation, fixed.summary.utilisation);
}

TEST(Integration, OracleBeatsRealRebootTimes) {
    std::vector<workload::JobSpec> trace;
    for (int i = 0; i < 6; ++i) {
        auto spec = job(i % 2 == 0 ? OsType::kLinux : OsType::kWindows, 2,
                        sim::minutes(30), "Mix");
        spec.submit = sim::TimePoint{} + sim::minutes(15 * i);
        trace.push_back(spec);
    }
    ScenarioConfig real_cfg;
    real_cfg.kind = ScenarioKind::kBiStableHybrid;
    real_cfg.node_count = 8;
    real_cfg.linux_nodes = 8;
    real_cfg.horizon = sim::hours(12);
    ScenarioConfig oracle_cfg = real_cfg;
    oracle_cfg.kind = ScenarioKind::kOracle;
    const auto real = run_scenario(real_cfg, trace);
    const auto oracle = run_scenario(oracle_cfg, trace);
    EXPECT_EQ(oracle.summary.completed, trace.size());
    EXPECT_LE(oracle.summary.mean_wait_s, real.summary.mean_wait_s + 1.0);
}

TEST(Integration, CalendarPolicyPrePositionsWindowsBlock) {
    sim::Engine engine;
    HybridConfig cfg = small_config(deploy::MiddlewareVersion::kV2);
    cfg.policy = PolicyKind::kCalendar;
    cfg.calendar_start_hour = 9;
    cfg.calendar_end_hour = 17;
    cfg.calendar_windows_nodes = 3;
    HybridCluster hybrid(engine, cfg);
    hybrid.start();
    hybrid.settle();
    // Sim epoch is midnight: at 10:00 the reservation is active.
    engine.run_until(sim::TimePoint{} + sim::hours(10));
    EXPECT_EQ(hybrid.cluster().count_running(OsType::kWindows), 3);
    // After 17:00 the idle block returns to Linux.
    engine.run_until(sim::TimePoint{} + sim::hours(19));
    EXPECT_EQ(hybrid.cluster().count_running(OsType::kWindows), 0);
    EXPECT_EQ(hybrid.cluster().count_running(OsType::kLinux), 8);
}

TEST(Integration, CountersAgreeWithNodeStats) {
    sim::Engine engine;
    HybridCluster hybrid(engine, small_config(deploy::MiddlewareVersion::kV2));
    hybrid.start();
    hybrid.settle();
    hybrid.submit_now(job(OsType::kWindows, 2, sim::minutes(30)));
    engine.run_until(sim::TimePoint{} + sim::hours(2));
    const auto counters = hybrid.counters();
    std::uint64_t boots = 0, switches = 0;
    std::int64_t downtime = 0;
    for (auto* node : hybrid.cluster().nodes()) {
        boots += node->stats().boots;
        switches += node->stats().os_switches;
        downtime += node->stats().total_downtime_ms / 1000;
    }
    EXPECT_EQ(counters.reboots, boots);
    EXPECT_EQ(counters.os_switches, switches);
    EXPECT_EQ(counters.reboot_downtime_s, downtime);
    EXPECT_EQ(counters.total_cores, 32);
    EXPECT_EQ(counters.cores_per_node, 4);
}

TEST(Integration, StrictFifoKnobReachesBothSchedulers) {
    sim::Engine engine;
    HybridConfig cfg = small_config(deploy::MiddlewareVersion::kV2);
    cfg.strict_fifo = false;
    HybridCluster hybrid(engine, cfg);
    EXPECT_FALSE(hybrid.pbs().server_config().strict_fifo);
}

TEST(Integration, ReplayHonoursSubmitTimes) {
    sim::Engine engine;
    HybridCluster hybrid(engine, small_config(deploy::MiddlewareVersion::kV2));
    hybrid.start();
    hybrid.settle();
    std::vector<workload::JobSpec> trace;
    auto spec = job(OsType::kLinux, 1, sim::minutes(10));
    spec.submit = sim::TimePoint{} + sim::hours(2);
    trace.push_back(spec);
    hybrid.replay(trace);
    engine.run_until(sim::TimePoint{} + sim::hours(1));
    EXPECT_EQ(hybrid.pbs().stats().submitted, 0u);  // not yet
    engine.run_until(sim::TimePoint{} + sim::hours(3));
    EXPECT_EQ(hybrid.pbs().stats().submitted, 1u);
    EXPECT_EQ(hybrid.metrics().size(), 1u);
}

TEST(Integration, MetricsOutcomesRecorded) {
    sim::Engine engine;
    HybridCluster hybrid(engine, small_config(deploy::MiddlewareVersion::kV2));
    hybrid.start();
    hybrid.settle();
    hybrid.submit_now(job(OsType::kLinux, 1, sim::minutes(10)));
    hybrid.submit_now(job(OsType::kWindows, 1, sim::minutes(10)));
    engine.run_until(sim::TimePoint{} + sim::hours(2));
    ASSERT_EQ(hybrid.metrics().size(), 2u);
    for (const auto& outcome : hybrid.metrics().outcomes()) {
        EXPECT_TRUE(outcome.completed);
        EXPECT_EQ(outcome.ran_s, 600);
        EXPECT_GE(outcome.wait_s, 0);
    }
}

TEST(Integration, CaseStudyTraceRunsUnderFcfs) {
    // §IV.B with the shipped FCFS rule. FCFS only frees enough nodes for the
    // *first* stuck job, so the MDCS wave drains serially through a single
    // switched node — slow, but every job completes.
    sim::Engine engine;
    HybridConfig cfg;
    cfg.cluster.node_count = 16;
    cfg.cluster.timing.jitter = 0;
    cfg.poll_interval = sim::minutes(5);
    HybridCluster hybrid(engine, cfg);
    hybrid.start();
    hybrid.settle();
    hybrid.replay(workload::mdcs_ga_case_study(42));
    engine.run_until(sim::TimePoint{} + sim::hours(16));
    const auto summary = hybrid.metrics().summarise(hybrid.counters(),
                                                    sim::hours(16).seconds());
    EXPECT_EQ(summary.completed, 19u);  // every phase finished
    EXPECT_GE(hybrid.counters().os_switches, 1u);
}

TEST(Integration, CaseStudyLoadFollowsUnderFairShare) {
    // The same trace under the fair-share extension: capacity follows queue
    // pressure, so several nodes shift to Windows for the GA wave and the
    // system "seamlessly adjusted" with much lower Windows-side waits.
    sim::Engine engine;
    HybridConfig cfg;
    cfg.cluster.node_count = 16;
    cfg.cluster.timing.jitter = 0;
    cfg.poll_interval = sim::minutes(5);
    cfg.policy = PolicyKind::kFairShare;
    HybridCluster hybrid(engine, cfg);
    hybrid.start();
    hybrid.settle();
    hybrid.replay(workload::mdcs_ga_case_study(42));
    engine.run_until(sim::TimePoint{} + sim::hours(16));
    const auto summary = hybrid.metrics().summarise(hybrid.counters(),
                                                    sim::hours(16).seconds());
    EXPECT_EQ(summary.completed, 19u);
    EXPECT_GE(hybrid.counters().os_switches, 6u);  // a real shift, not one node
}

// Every record a kTrace sink sees over a 4-node boot and one switch order.
// The expected lines come from code that built every log string whether or
// not anyone listened; the Logger::enabled guards may change what is built
// when nobody listens, never what a listener receives.
TEST(Integration, TraceLogOfBootAndOneSwitchMatchesRecording) {
    sim::Engine engine;
    std::vector<std::string> lines;
    engine.logger().set_min_level(util::LogLevel::kTrace);
    engine.logger().add_sink(
        [&lines](const util::LogRecord& r) { lines.push_back(util::format_log_record(r)); });
    HybridConfig cfg = small_config(deploy::MiddlewareVersion::kV2);
    cfg.cluster.node_count = 4;
    HybridCluster hybrid(engine, cfg);
    hybrid.start();
    hybrid.settle();
    hybrid.submit_now(job(OsType::kWindows, 1, sim::minutes(10), "Backburner"));
    engine.run_until(sim::TimePoint{} + sim::minutes(20));
    const std::vector<std::string> expected = {
        "[      0s] TRACE node/enode01: off -> firmware",
        "[      0s] TRACE node/enode02: off -> firmware",
        "[      0s] TRACE node/enode03: off -> firmware",
        "[      0s] TRACE node/enode04: off -> firmware",
        "[     35s] TRACE node/enode01: firmware -> bootloader",
        "[     35s] TRACE node/enode02: firmware -> bootloader",
        "[     35s] TRACE node/enode03: firmware -> bootloader",
        "[     35s] TRACE node/enode04: firmware -> bootloader",
        "[     49s] TRACE node/enode01: bootloader -> booting-os",
        "[     49s] TRACE node/enode02: bootloader -> booting-os",
        "[     49s] TRACE node/enode03: bootloader -> booting-os",
        "[     49s] TRACE node/enode04: bootloader -> booting-os",
        "[    144s] TRACE node/enode01: booting-os -> up",
        "[    144s] DEBUG node/enode01: up, os=linux after 00:02:24.000",
        "[    144s] TRACE node/enode02: booting-os -> up",
        "[    144s] DEBUG node/enode02: up, os=linux after 00:02:24.000",
        "[    144s] TRACE node/enode03: booting-os -> up",
        "[    144s] DEBUG node/enode03: up, os=linux after 00:02:24.000",
        "[    144s] TRACE node/enode04: booting-os -> up",
        "[    144s] DEBUG node/enode04: up, os=linux after 00:02:24.000",
        "[    144s] DEBUG winhpc/WINHEAD: submit job 1",
        "[    300s] DEBUG WINHEAD/communicator: send queue state: 100041.winhpc",
        "[    300s] DEBUG LINHEAD/communicator: decision: 1 -> windows (windows stuck on 1.winhpc needing 4 cpus)",
        "[    300s] INFO  controller/v2: switch 1 node(s) to windows — windows stuck on 1.winhpc needing 4 cpus",
        "[    300s] DEBUG pbs/eridani.qgg.hud.ac.uk: qsub 1185.eridani.qgg.hud.ac.uk",
        "[    300s] DEBUG pbs/eridani.qgg.hud.ac.uk: run 1185.eridani.qgg.hud.ac.uk on enode01.eridani.qgg.hud.ac.uk/3+enode01.eridani.qgg.hud.ac.uk/2+enode01.eridani.qgg.hud.ac.uk/1+enode01.eridani.qgg.hud.ac.uk/0",
        "[    303s] TRACE node/enode01: up -> shutting-down",
        "[    303s] DEBUG pbs/eridani.qgg.hud.ac.uk: job 1185.eridani.qgg.hud.ac.uk completed (node-failure)",
        "[    328s] TRACE node/enode01: shutting-down -> firmware",
        "[    363s] TRACE node/enode01: firmware -> bootloader",
        "[    377s] TRACE node/enode01: bootloader -> booting-os",
        "[    537s] TRACE node/enode01: booting-os -> up",
        "[    537s] DEBUG node/enode01: up, os=windows after 00:03:54.000",
        "[    537s] DEBUG winhpc/WINHEAD: job 1 running",
        "[    600s] DEBUG WINHEAD/communicator: send queue state: 00000none",
        "[    600s] DEBUG LINHEAD/communicator: decision: none (no queue stuck)",
        "[    900s] DEBUG WINHEAD/communicator: send queue state: 00000none",
        "[    900s] DEBUG LINHEAD/communicator: decision: none (no queue stuck)",
        "[   1137s] DEBUG winhpc/WINHEAD: job 1 Finished (all tasks finished)",
        "[   1200s] DEBUG WINHEAD/communicator: send queue state: 00000none"};
    EXPECT_EQ(lines, expected);
}

/// HybridCluster::settle as a full scan of every node before every step: the
/// oracle the incremental settle must agree with to the step.
void full_scan_settle(HybridCluster& hybrid, sim::Duration limit) {
    sim::Engine& engine = hybrid.engine();
    const sim::TimePoint deadline = engine.now() + limit;
    while (engine.now() < deadline) {
        bool all_up = true;
        for (int i = 0; i < hybrid.cluster().node_count(); ++i)
            if (!hybrid.cluster().node(i).is_up()) all_up = false;
        if (all_up) return;
        if (!engine.step()) return;
    }
}

struct SettleEnd {
    std::int64_t now_ms = 0;
    std::uint64_t dispatched = 0;
    int up = 0;
};

/// Starts the cluster `cfg` describes, lets `perturb` schedule faults against
/// it, then settles it with the real settle or the oracle.
template <typename Perturb>
SettleEnd settle_world(bool oracle, const HybridConfig& cfg, sim::Duration limit,
                       Perturb perturb) {
    sim::Engine engine;
    HybridCluster hybrid(engine, cfg);
    hybrid.start();
    perturb(engine, hybrid.cluster());
    if (oracle)
        full_scan_settle(hybrid, limit);
    else
        hybrid.settle(limit);
    SettleEnd end;
    end.now_ms = engine.now().ms;
    end.dispatched = engine.stats().dispatched;
    for (int i = 0; i < hybrid.cluster().node_count(); ++i)
        if (hybrid.cluster().node(i).is_up()) ++end.up;
    return end;
}

/// Settles the same world both ways, checks they stop at the same step with
/// `expect_up` nodes up, and returns where the real settle stopped.
template <typename Perturb>
SettleEnd expect_settle_matches_oracle(const HybridConfig& cfg, sim::Duration limit,
                                       Perturb perturb, int expect_up) {
    const SettleEnd fast = settle_world(false, cfg, limit, perturb);
    const SettleEnd oracle = settle_world(true, cfg, limit, perturb);
    EXPECT_EQ(fast.now_ms, oracle.now_ms);
    EXPECT_EQ(fast.dispatched, oracle.dispatched);
    EXPECT_EQ(fast.up, expect_up);
    EXPECT_EQ(oracle.up, expect_up);
    return fast;
}

TEST(Integration, SettleMatchesFullScanOracleOnPlainBoot) {
    // Jittered boot stages, so the nodes come up in a seed-dependent order.
    for (std::uint64_t seed : {1u, 7u, 42u}) {
        SCOPED_TRACE(seed);
        HybridConfig cfg = small_config(deploy::MiddlewareVersion::kV2);
        cfg.cluster.node_count = 16;
        cfg.cluster.timing.jitter = 0.15;
        cfg.cluster.seed = seed;
        (void)expect_settle_matches_oracle(cfg, sim::minutes(10),
                                           [](sim::Engine&, cluster::Cluster&) {}, 16);
    }
}

// Node 0 comes up first and the check moves past it; the other nodes are
// power-cycled mid-boot so they come up late, and node 0 reboots while they
// still boot. Only a re-check of the nodes already passed sees node 0 down:
// settle must keep stepping until it is back.
TEST(Integration, SettleRechecksNodesThatWentDownBehindIt) {
    auto perturb = [](sim::Engine& engine, cluster::Cluster& cluster) {
        engine.schedule_at(sim::TimePoint{} + sim::seconds(100), [&cluster] {
            for (int i = 1; i < cluster.node_count(); ++i) cluster.node(i).hard_power_cycle();
        });
        engine.schedule_at(sim::TimePoint{} + sim::seconds(150),
                           [&cluster] { cluster.node(0).reboot(); });
    };
    const HybridConfig cfg = small_config(deploy::MiddlewareVersion::kV2);
    const SettleEnd end = expect_settle_matches_oracle(cfg, sim::minutes(10), perturb, 8);
    // Node 0 is back at 150 + 169 s (shutdown 25, firmware 35, GRUB menu 14,
    // Linux 95); the power-cycled nodes were up at 100 + 144 = 244 s.
    EXPECT_EQ(end.now_ms, sim::seconds(319).ms);
}

// A node that hangs mid-boot never comes up (recovery is off), so settle
// runs the engine to the limit exactly as the oracle does.
TEST(Integration, SettleStopsAtTheLimitWithOneNodeHung) {
    auto perturb = [](sim::Engine& engine, cluster::Cluster& cluster) {
        engine.schedule_at(sim::TimePoint{} + sim::seconds(100),
                           [&cluster] { cluster.node(5).inject_hang(); });
    };
    const HybridConfig cfg = small_config(deploy::MiddlewareVersion::kV2);
    for (const sim::Duration limit : {sim::minutes(10), sim::minutes(3)})
        EXPECT_GE(expect_settle_matches_oracle(cfg, limit, perturb, 7).now_ms, limit.ms);
}

}  // namespace
}  // namespace hc::core
