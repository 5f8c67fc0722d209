// hc::fault tests: plan (de)serialization, torn-write modelling, every
// scheduled fault kind, the probabilistic hooks, the switch-order watchdog
// and the hung-node recovery sweeper.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "boot/disk_layouts.hpp"
#include "boot/flag.hpp"
#include "boot/grub_config.hpp"
#include "boot/local_boot.hpp"
#include "boot/pxe.hpp"
#include "cloud/cloud.hpp"
#include "cluster/cluster.hpp"
#include "core/controller.hpp"
#include "core/detector.hpp"
#include "core/hybrid.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "pbs/server.hpp"
#include "winhpc/scheduler.hpp"

namespace hc::fault {
namespace {

using cluster::OsType;
using cluster::PowerState;

// ---------- plan serialization ----------

FaultPlan sample_plan() {
    FaultPlan plan;
    plan.seed = 99;
    plan.probabilities.boot_hang = 0.125;
    plan.probabilities.pxe_drop = 0.25;
    plan.probabilities.flag_torn_write = 0.5;
    plan.probabilities.message_drop = 0.0625;
    FaultEvent hang;
    hang.at = sim::minutes(30);
    hang.kind = FaultKind::kBootHang;
    hang.node = 3;
    plan.events.push_back(hang);
    FaultEvent crash;
    crash.at = sim::hours(2);
    crash.kind = FaultKind::kHeadCrash;
    crash.side = "linux";
    crash.duration = sim::minutes(15);
    plan.events.push_back(crash);
    FaultEvent torn;
    torn.at = sim::hours(3);
    torn.kind = FaultKind::kControlTornWrite;
    plan.events.push_back(torn);
    return plan;
}

TEST(FaultPlanJson, RoundTripsAllFields) {
    const FaultPlan plan = sample_plan();
    const std::string json = plan.to_json();
    auto parsed = parse_fault_plan(json);
    ASSERT_TRUE(parsed.ok()) << parsed.error_message();
    const FaultPlan& back = parsed.value();
    EXPECT_EQ(back.seed, plan.seed);
    EXPECT_DOUBLE_EQ(back.probabilities.boot_hang, plan.probabilities.boot_hang);
    EXPECT_DOUBLE_EQ(back.probabilities.pxe_drop, plan.probabilities.pxe_drop);
    EXPECT_DOUBLE_EQ(back.probabilities.flag_torn_write, plan.probabilities.flag_torn_write);
    EXPECT_DOUBLE_EQ(back.probabilities.message_drop, plan.probabilities.message_drop);
    ASSERT_EQ(back.events.size(), plan.events.size());
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
        EXPECT_EQ(back.events[i].at.ms, plan.events[i].at.ms) << i;
        EXPECT_EQ(back.events[i].kind, plan.events[i].kind) << i;
        EXPECT_EQ(back.events[i].node, plan.events[i].node) << i;
        EXPECT_EQ(back.events[i].side, plan.events[i].side) << i;
        EXPECT_EQ(back.events[i].duration.ms, plan.events[i].duration.ms) << i;
    }
    // Emission is deterministic: a round-tripped plan re-emits byte-identically.
    EXPECT_EQ(parsed.value().to_json(), json);
}

TEST(FaultPlanJson, RejectsMalformedInput) {
    EXPECT_FALSE(parse_fault_plan("").ok());
    EXPECT_FALSE(parse_fault_plan("{").ok());
    EXPECT_FALSE(parse_fault_plan("[1, 2]").ok());
    EXPECT_FALSE(parse_fault_plan(R"({"events": [{"kind": "warp_core_breach"}]})").ok());
    EXPECT_FALSE(parse_fault_plan(R"({"events": [{"kind": "head_crash", "side": "?"}]})").ok());
}

TEST(FaultPlanJson, IgnoresUnknownKeys) {
    auto parsed = parse_fault_plan(
        R"({"format": "hc-fault-plan/1", "future_knob": true,
            "events": [{"at_s": 60, "kind": "boot_hang", "vendor_ext": 7}]})");
    ASSERT_TRUE(parsed.ok()) << parsed.error_message();
    ASSERT_EQ(parsed.value().events.size(), 1u);
    EXPECT_EQ(parsed.value().events[0].kind, FaultKind::kBootHang);
    EXPECT_EQ(parsed.value().events[0].at.ms, 60'000);
}

TEST(FaultPlanJson, KindNamesRoundTrip) {
    for (FaultKind kind :
         {FaultKind::kBootHang, FaultKind::kNodeCrash, FaultKind::kPowerCycle,
          FaultKind::kControlTornWrite, FaultKind::kPxeOutage, FaultKind::kHeadCrash,
          FaultKind::kPartition}) {
        auto back = parse_fault_kind(fault_kind_name(kind));
        ASSERT_TRUE(back.ok()) << fault_kind_name(kind);
        EXPECT_EQ(back.value(), kind);
    }
    EXPECT_FALSE(parse_fault_kind("gremlins").ok());
}

TEST(RandomPlan, SeedDeterminedAndBounded) {
    RandomPlanOptions options;
    options.node_count = 8;
    options.horizon = sim::hours(12);
    const FaultPlan a = make_random_plan(options, 7);
    const FaultPlan b = make_random_plan(options, 7);
    EXPECT_EQ(a.to_json(), b.to_json());
    EXPECT_NE(a.to_json(), make_random_plan(options, 8).to_json());
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        const FaultPlan plan = make_random_plan(options, seed);
        EXPECT_FALSE(plan.events.empty());
        EXPECT_LE(plan.probabilities.boot_hang, 0.25);
        for (const FaultEvent& ev : plan.events) {
            EXPECT_GE(ev.at.ms, 0);
            // Events land in the first 3/4 of the horizon so outages and
            // recoveries resolve before the run ends.
            EXPECT_LE(ev.at.ms, options.horizon.ms * 3 / 4);
        }
    }
}

TEST(RandomPlan, V1PlansExcludeV2OnlyFaults) {
    RandomPlanOptions options;
    options.v2 = false;
    for (std::uint64_t seed = 0; seed < 80; ++seed) {
        for (const FaultEvent& ev : make_random_plan(options, seed).events) {
            EXPECT_NE(ev.kind, FaultKind::kControlTornWrite) << seed;
            EXPECT_NE(ev.kind, FaultKind::kPxeOutage) << seed;
        }
    }
}

// ---------- torn writes ----------

TEST(TornText, NeverParsesAsValidMenu) {
    for (OsType os : {OsType::kLinux, OsType::kWindows}) {
        const std::string menu = boot::make_eridani_control_menu(os).emit();
        ASSERT_TRUE(boot::GrubConfig::parse(menu).ok());
        EXPECT_FALSE(boot::GrubConfig::parse(torn_text(menu)).ok()) << os_name(os);
    }
    // Degenerate inputs still come back unparseable.
    EXPECT_FALSE(boot::GrubConfig::parse(torn_text("")).ok());
    EXPECT_FALSE(boot::GrubConfig::parse(torn_text("x")).ok());
}

// ---------- scheduled fault kinds against a live cluster ----------

struct InjectorFixture : ::testing::Test {
    sim::Engine engine;
    cluster::Cluster cluster{engine, [] {
                                 cluster::ClusterConfig cfg;
                                 cfg.node_count = 4;
                                 cfg.timing.jitter = 0;
                                 return cfg;
                             }()};
    boot::PxeServer pxe;
    std::unique_ptr<boot::OsFlagStore> flag;

    void wire_v2_and_boot() {
        pxe.set_default_rom(boot::PxeRom::kGrub4dos);
        flag = std::make_unique<boot::OsFlagStore>(pxe);
        flag->set_flag(OsType::kLinux);
        for (auto* node : cluster.nodes()) {
            node->disk() = boot::make_v2_disk();
            node->set_boot_resolver(pxe.make_resolver());
            node->power_on();
        }
        engine.run_all();
    }

    FaultInjector make_injector(FaultPlan plan) {
        FaultInjector injector(engine, cluster, std::move(plan), /*seed=*/1);
        injector.attach_pxe(pxe);
        injector.attach_flag(*flag);
        return injector;
    }
};

TEST_F(InjectorFixture, BootHangFreezesTargetNode) {
    wire_v2_and_boot();
    FaultPlan plan;
    FaultEvent ev;
    ev.at = sim::minutes(1);
    ev.kind = FaultKind::kBootHang;
    ev.node = 2;
    plan.events.push_back(ev);
    FaultInjector injector = make_injector(plan);
    injector.start();
    engine.run_for(sim::minutes(2));
    EXPECT_EQ(cluster.node(2).state(), PowerState::kHung);
    EXPECT_EQ(injector.stats().boot_hangs, 1u);
    EXPECT_EQ(injector.stats().injected, 1u);
}

TEST_F(InjectorFixture, NodeCrashRequiresUpNode) {
    wire_v2_and_boot();
    cluster.node(1).inject_hang();  // already down: not crash-eligible
    FaultPlan plan;
    FaultEvent ev;
    ev.at = sim::minutes(1);
    ev.kind = FaultKind::kNodeCrash;
    ev.node = 1;
    plan.events.push_back(ev);
    FaultEvent any;
    any.at = sim::minutes(2);
    any.kind = FaultKind::kNodeCrash;  // node = -1: injector picks an up node
    plan.events.push_back(any);
    FaultInjector injector = make_injector(plan);
    injector.start();
    engine.run_for(sim::minutes(3));
    EXPECT_EQ(injector.stats().skipped, 1u);
    EXPECT_EQ(injector.stats().node_crashes, 1u);
}

TEST_F(InjectorFixture, PowerCycleCountsAndReboots) {
    wire_v2_and_boot();
    FaultPlan plan;
    FaultEvent ev;
    ev.at = sim::seconds(30);
    ev.kind = FaultKind::kPowerCycle;
    ev.node = 0;
    plan.events.push_back(ev);
    FaultInjector injector = make_injector(plan);
    injector.start();
    engine.run_all();
    EXPECT_EQ(injector.stats().power_cycles, 1u);
    // The yank is visible in the node's own diagnostics and it reboots fine.
    EXPECT_EQ(cluster.node(0).stats().hard_power_cycles, 1u);
    EXPECT_TRUE(cluster.node(0).is_up());
    EXPECT_GE(cluster.node(0).stats().boots, 2u);
}

TEST_F(InjectorFixture, PxeOutageHealsAfterDuration) {
    wire_v2_and_boot();
    FaultPlan plan;
    FaultEvent ev;
    ev.at = sim::minutes(1);
    ev.kind = FaultKind::kPxeOutage;
    ev.duration = sim::minutes(10);
    plan.events.push_back(ev);
    FaultInjector injector = make_injector(plan);
    injector.start();
    engine.run_for(sim::minutes(5));
    EXPECT_FALSE(pxe.online());
    engine.run_for(sim::minutes(10));
    EXPECT_TRUE(pxe.online());
    EXPECT_EQ(injector.stats().pxe_outages, 1u);
}

TEST_F(InjectorFixture, HeadCrashStopsThenRestarts) {
    wire_v2_and_boot();
    int stops = 0;
    int restarts = 0;
    FaultPlan plan;
    FaultEvent ev;
    ev.at = sim::minutes(1);
    ev.kind = FaultKind::kHeadCrash;
    ev.side = "linux";
    ev.duration = sim::minutes(5);
    plan.events.push_back(ev);
    FaultEvent unregistered = ev;
    unregistered.side = "windows";  // no handle registered: skipped
    plan.events.push_back(unregistered);
    FaultInjector injector = make_injector(plan);
    injector.register_head("linux", FaultInjector::HeadHandle{[&] { ++stops; },
                                                              [&] { ++restarts; }});
    injector.start();
    engine.run_for(sim::minutes(2));
    EXPECT_EQ(stops, 1);
    EXPECT_EQ(restarts, 0);
    engine.run_for(sim::minutes(10));
    EXPECT_EQ(restarts, 1);
    EXPECT_EQ(injector.stats().head_crashes, 1u);
    EXPECT_EQ(injector.stats().skipped, 1u);
}

TEST_F(InjectorFixture, PartitionSeversAndRestoresHeadLink) {
    wire_v2_and_boot();
    FaultPlan plan;
    FaultEvent ev;
    ev.at = sim::minutes(1);
    ev.kind = FaultKind::kPartition;
    ev.duration = sim::minutes(8);
    plan.events.push_back(ev);
    FaultInjector injector = make_injector(plan);
    injector.start();
    engine.run_for(sim::minutes(2));
    const std::string lin = cluster.linux_head_host();
    const std::string win = cluster.windows_head_host();
    EXPECT_TRUE(cluster.network().link_down(lin, win));
    cluster.network().send(lin, 1, win, 2, "hello");
    engine.run_for(sim::seconds(5));
    EXPECT_EQ(cluster.network().stats().dropped_partition, 1u);
    engine.run_for(sim::minutes(10));
    EXPECT_FALSE(cluster.network().link_down(lin, win));
    EXPECT_EQ(injector.stats().partitions, 1u);
}

TEST_F(InjectorFixture, V2TornWriteCorruptsFlagMenuAndRepairHeals) {
    wire_v2_and_boot();
    flag->set_flag(OsType::kWindows);
    FaultPlan plan;
    FaultEvent ev;
    ev.at = sim::minutes(1);
    ev.kind = FaultKind::kControlTornWrite;
    plan.events.push_back(ev);
    FaultInjector injector = make_injector(plan);
    injector.start();
    engine.run_for(sim::minutes(2));
    EXPECT_EQ(injector.stats().control_corruptions, 1u);
    EXPECT_FALSE(flag->flag().ok());  // menu no longer parses
    // The sweeper's fsck path: rewrite from the recorded intent.
    flag->repair();
    ASSERT_TRUE(flag->flag().ok());
    EXPECT_EQ(flag->flag().value(), OsType::kWindows);
}

TEST_F(InjectorFixture, ProbabilisticFlagTearsAreTornOnDisk) {
    wire_v2_and_boot();
    FaultPlan plan;
    plan.probabilities.flag_torn_write = 1.0;  // every write tears
    FaultInjector injector = make_injector(plan);
    injector.start();
    flag->set_flag(OsType::kWindows);
    EXPECT_FALSE(flag->flag().ok());
    EXPECT_GE(injector.stats().flag_torn_writes, 1u);
    flag->repair();  // bypasses the hook by design
    ASSERT_TRUE(flag->flag().ok());
    EXPECT_EQ(flag->flag().value(), OsType::kWindows);
}

TEST_F(InjectorFixture, ProbabilisticPxeDropsFallBackToLocalBoot) {
    pxe.set_default_rom(boot::PxeRom::kGrub4dos);
    flag = std::make_unique<boot::OsFlagStore>(pxe);
    flag->set_flag(OsType::kLinux);
    FaultPlan plan;
    plan.probabilities.pxe_drop = 1.0;  // every PXE request times out
    FaultInjector injector = make_injector(plan);
    injector.start();
    for (auto* node : cluster.nodes()) {
        node->disk() = boot::make_v2_disk();
        node->set_boot_resolver(pxe.make_resolver());
        node->power_on();
    }
    engine.run_all();
    // v2 disks carry a Windows-booting local MBR as the no-PXE fallback:
    // nodes come up (no wedge), just in the fallback OS.
    for (auto* node : cluster.nodes()) {
        EXPECT_TRUE(node->is_up());
        EXPECT_EQ(node->os(), OsType::kWindows);
    }
    EXPECT_GE(injector.stats().pxe_drops, 4u);
}

// v1: tearing a node's own controlmenu.lst wedges its next boot — the §IV.A
// fragility that motivated the PXE redesign.
TEST(InjectorV1, TornControlMenuHangsNextBoot) {
    sim::Engine engine;
    cluster::ClusterConfig cfg;
    cfg.node_count = 2;
    cfg.timing.jitter = 0;
    cluster::Cluster cluster{engine, cfg};
    for (auto* node : cluster.nodes()) {
        node->disk() = boot::make_v1_dualboot_disk(boot::V1DiskOptions{});
        node->set_boot_resolver(boot::make_local_boot_resolver());
        node->power_on();
    }
    engine.run_all();
    FaultPlan plan;
    FaultEvent ev;
    ev.at = sim::minutes(1);
    ev.kind = FaultKind::kControlTornWrite;
    ev.node = 0;
    plan.events.push_back(ev);
    FaultInjector injector(engine, cluster, plan, /*seed=*/1);
    injector.start();
    engine.run_for(sim::minutes(2));
    EXPECT_EQ(injector.stats().control_corruptions, 1u);
    EXPECT_TRUE(cluster.node(0).is_up());  // corruption is latent until reboot
    cluster.node(0).reboot();
    engine.run_all();
    EXPECT_EQ(cluster.node(0).state(), PowerState::kHung);
    EXPECT_TRUE(cluster.node(1).is_up());
}

// ---------- switch-order watchdog ----------

struct WatchdogFixture : ::testing::Test {
    sim::Engine engine;
    cluster::Cluster cluster{engine, [] {
                                 cluster::ClusterConfig cfg;
                                 cfg.node_count = 4;
                                 cfg.timing.jitter = 0;
                                 return cfg;
                             }()};
    pbs::PbsServer pbs{engine};
    winhpc::HpcScheduler winhpc{engine};
    boot::PxeServer pxe;
    std::unique_ptr<boot::OsFlagStore> flag;
    std::unique_ptr<core::ControllerV2> controller;

    void wire(core::OrderWatchdogConfig wd) {
        pxe.set_default_rom(boot::PxeRom::kGrub4dos);
        flag = std::make_unique<boot::OsFlagStore>(pxe);
        flag->set_flag(OsType::kLinux);
        for (auto* node : cluster.nodes()) {
            node->disk() = boot::make_v2_disk();
            node->set_boot_resolver(pxe.make_resolver());
            pbs.attach_node(*node);
            winhpc.attach_node(*node);
            node->power_on();
        }
        engine.run_all();
        controller = std::make_unique<core::ControllerV2>(engine, cluster, pbs, winhpc, *flag,
                                                          nullptr);
        controller->enable_order_watchdog(wd);
    }

    core::SwitchDecision decision_to_windows(int nodes = 1) {
        core::SwitchDecision d;
        d.target = OsType::kWindows;
        d.node_count = nodes;
        d.reason = "test";
        return d;
    }
};

TEST_F(WatchdogFixture, HealthySwitchSatisfiesOrder) {
    wire(core::OrderWatchdogConfig{});
    ASSERT_TRUE(controller->execute(decision_to_windows()).ok());
    EXPECT_EQ(controller->pending_order_count(), 1u);
    engine.run_all();
    EXPECT_EQ(controller->pending_order_count(), 0u);
    EXPECT_EQ(controller->stats().orders_watched, 1u);
    EXPECT_EQ(controller->stats().orders_satisfied, 1u);
    EXPECT_EQ(controller->stats().orders_reissued, 0u);
}

TEST_F(WatchdogFixture, HangDuringInFlightOrderIsReissuedAndHealed) {
    // Torn flag write + hang during the in-flight switch order: the reissue
    // re-runs prepare(), which rewrites the flag (heal), and the abandonment
    // path eventually power-cycles the hung node.
    core::OrderWatchdogConfig wd;
    wd.timeout = sim::minutes(5);
    wd.max_retries = 2;
    wd.backoff = 1.0;
    wire(wd);
    ASSERT_TRUE(controller->execute(decision_to_windows()).ok());
    // The order is in flight; the picked node hangs before finishing boot.
    engine.run_for(sim::seconds(40));
    // Tear the flag menu on disk AND hang every node that took the order.
    pxe.tftp_root().write(boot::kPxeDefaultMenu, torn_text("default 0\n"));
    for (auto* node : cluster.nodes())
        if (!node->is_up() && node->state() != PowerState::kHung) node->inject_hang();
    ASSERT_FALSE(flag->flag().ok());
    engine.run_for(sim::minutes(30));
    // The watchdog reissued; prepare() rewrote the flag; some node came up
    // in Windows and satisfied the replacement order.
    EXPECT_GE(controller->stats().orders_reissued, 1u);
    EXPECT_TRUE(flag->flag().ok());
    EXPECT_EQ(flag->flag().value(), OsType::kWindows);
    EXPECT_EQ(controller->pending_order_count(), 0u);
    EXPECT_GE(cluster.count_running(OsType::kWindows), 1);
}

TEST_F(WatchdogFixture, AbandonmentRescuesAHungNode) {
    core::OrderWatchdogConfig wd;
    wd.timeout = sim::minutes(2);
    wd.max_retries = 0;  // first timeout abandons
    wd.backoff = 1.0;
    wire(wd);
    // Stop the winhpc donor side from ever satisfying the order: send the
    // order, then hang the node it lands on *and* corrupt the PXE menu so
    // every boot attempt wedges.
    ASSERT_TRUE(controller->execute(decision_to_windows()).ok());
    engine.run_for(sim::seconds(40));
    pxe.tftp_root().write(boot::kPxeDefaultMenu, torn_text("default 0\n"));
    for (auto* node : cluster.nodes())
        if (!node->is_up() && node->state() != PowerState::kHung) node->inject_hang();
    const auto hung_before = [&] {
        int n = 0;
        for (auto* node : cluster.nodes())
            if (node->state() == PowerState::kHung) ++n;
        return n;
    }();
    ASSERT_GE(hung_before, 1);
    engine.run_for(sim::minutes(5));
    EXPECT_EQ(controller->stats().orders_abandoned, 1u);
    EXPECT_EQ(controller->stats().recovery_power_cycles, 1u);
    EXPECT_EQ(controller->pending_order_count(), 0u);
}

// ---------- recovery sweeper ----------

struct SweeperFixture : InjectorFixture {
    RecoveryOptions quick_options() {
        RecoveryOptions options;
        options.enabled = true;
        options.sweep_interval = sim::seconds(30);
        options.hang_grace = sim::seconds(30);
        options.max_backoff = sim::minutes(5);
        options.node_failed_after = 3;
        return options;
    }
};

TEST_F(SweeperFixture, PowerCyclesHungNodeBackToLife) {
    wire_v2_and_boot();
    RecoverySupervisor supervisor(engine, cluster, flag.get(), quick_options());
    supervisor.start();
    cluster.node(1).inject_hang();
    engine.run_for(sim::minutes(10));
    EXPECT_TRUE(cluster.node(1).is_up());
    EXPECT_EQ(supervisor.stats().hung_nodes_seen, 1u);
    EXPECT_GE(supervisor.stats().power_cycles, 1u);
    EXPECT_EQ(supervisor.stats().recoveries, 1u);
    EXPECT_GT(supervisor.stats().mean_time_to_recover_s(), 0.0);
}

TEST_F(SweeperFixture, RepairsTornFlagBeforeCycling) {
    wire_v2_and_boot();
    flag->set_flag(OsType::kWindows);
    RecoverySupervisor supervisor(engine, cluster, flag.get(), quick_options());
    supervisor.start();
    // Corrupt the menu, then hang a node: a naive power cycle would boot
    // into the torn menu and hang again; the sweeper must repair first.
    pxe.tftp_root().write(boot::kPxeDefaultMenu, torn_text("default 0\n"));
    ASSERT_FALSE(flag->flag().ok());
    cluster.node(2).inject_hang();
    engine.run_for(sim::minutes(10));
    EXPECT_GE(supervisor.stats().flag_repairs, 1u);
    EXPECT_TRUE(flag->flag().ok());
    EXPECT_TRUE(cluster.node(2).is_up());
    EXPECT_EQ(cluster.node(2).os(), OsType::kWindows);  // healed flag honoured
}

TEST_F(SweeperFixture, NeverGivesUpAfterDeclaringFailure) {
    wire_v2_and_boot();
    RecoveryOptions options = quick_options();
    options.node_failed_after = 2;
    RecoverySupervisor supervisor(engine, cluster, flag.get(), options);
    supervisor.start();
    // Wedge every boot: a resolver that never produces an OS hangs the node
    // at the boot loader on every power cycle (a truly broken machine).
    cluster.node(0).set_boot_resolver(
        [](const cluster::Node&) { return cluster::BootDecision{}; });
    cluster.node(0).inject_hang();
    engine.run_for(sim::minutes(30));
    EXPECT_EQ(supervisor.stats().nodes_declared_failed, 1u);
    const std::uint64_t cycles_at_declare = supervisor.stats().power_cycles;
    engine.run_for(sim::minutes(30));
    // Retries continue at capped backoff even after the declaration.
    EXPECT_GT(supervisor.stats().power_cycles, cycles_at_declare);
}

// A fault landing during a pending cloud provision: the instance hangs in
// the elastic partition — *outside* the fixed cluster the supervisor was
// built around — so it is only rescued because the world construction
// watch()es every cloud slot. The billing meter keeps running through the
// wedge (you pay for a broken instance), and once the supervisor
// power-cycles it the provision completes with a reaction time that covers
// the whole outage.
TEST_F(SweeperFixture, TornProvisionIsRescuedByTheSupervisor) {
    wire_v2_and_boot();
    cloud::CloudConfig cc;
    cc.max_burst = 2;
    cc.provision_delay = sim::minutes(2);
    cc.provision_jitter = 0;
    cloud::CloudBackend backend(engine, cc, /*index_base=*/4);
    for (auto* node : backend.nodes()) {
        node->disk() = boot::make_v2_disk();  // image, like HybridCluster wires it
        node->set_boot_resolver(pxe.make_resolver());
    }

    RecoverySupervisor supervisor(engine, cluster, flag.get(), quick_options());
    for (auto* node : backend.nodes()) supervisor.watch(*node);
    supervisor.start();
    backend.start();

    // Wedge the provision: every boot attempt hangs, including the
    // supervisor's retry cycles, until the outage clears below.
    backend.node(0).set_boot_hang_probability(1.0);
    ASSERT_EQ(backend.request_burst(OsType::kLinux, 1), 1);
    engine.run_for(sim::minutes(5));
    EXPECT_FALSE(backend.node(0).is_up());
    EXPECT_GE(backend.node(0).stats().hangs, 1u);
    EXPECT_EQ(backend.provisioning_count(), 1);  // request still open
    EXPECT_GT(backend.accrued_ms(engine.now()), 0);

    // The underlying outage clears; the sweeper's next cycle boots clean.
    backend.node(0).set_boot_hang_probability(0);
    engine.run_for(sim::minutes(15));
    EXPECT_TRUE(backend.node(0).is_up());
    EXPECT_EQ(backend.provisioning_count(), 0);
    EXPECT_EQ(backend.stats().provisions_completed, 1u);
    EXPECT_GE(supervisor.stats().power_cycles, 1u);
    EXPECT_GE(supervisor.stats().recoveries, 1u);
    // Reaction time spans request -> rescue -> up, not just the clean boot.
    EXPECT_GE(backend.stats().total_reaction_ms, sim::minutes(5).ms);
    supervisor.stop();
    backend.stop();
}

// ---------- detector degradation ----------

/// A whole-string scraper over the server's qstat -f text, mangled by
/// `fault` before parsing (truncation, garbage, empty string).
core::PbsDetector mangled_qstat_detector(const pbs::PbsServer& server,
                                         std::function<std::string(std::string)> fault) {
    return core::PbsDetector([&server, fault] { return fault(server.qstat_f_output()); },
                             [&server] { return server.pbsnodes_output(); },
                             [] { return std::int64_t{0}; });
}

TEST(DetectorFault, UnparseableTextReadsAsCalmState) {
    sim::Engine engine;
    pbs::PbsServer server{engine};
    auto detector = mangled_qstat_detector(server, [](std::string text) {
        return text.substr(0, text.size() / 3) + "\x01garbage\nResource_List.nodes = ";
    });
    // Must not throw, must not report stuck.
    const auto snap = detector.check();
    EXPECT_FALSE(snap.record.stuck);
}

TEST(DetectorFault, EmptyTextReadsAsCalmState) {
    sim::Engine engine;
    pbs::PbsServer server{engine};
    auto detector = mangled_qstat_detector(server, [](std::string) { return std::string{}; });
    const auto snap = detector.check();
    EXPECT_FALSE(snap.record.stuck);
    EXPECT_EQ(snap.running, 0);
    EXPECT_EQ(snap.queued, 0);
}

// ---------- full-stack wiring through HybridCluster ----------

TEST(HybridFault, PlanAndRecoveryAreWiredThroughTheFacade) {
    sim::Engine engine;
    core::HybridConfig config;
    config.cluster.node_count = 6;
    config.cluster.timing.jitter = 0;
    FaultEvent hang;
    hang.at = sim::minutes(20);
    hang.kind = FaultKind::kBootHang;
    config.fault_plan.events.push_back(hang);
    FaultEvent crash;
    crash.at = sim::minutes(40);
    crash.kind = FaultKind::kHeadCrash;
    crash.side = "linux";
    crash.duration = sim::minutes(10);
    config.fault_plan.events.push_back(crash);
    config.recovery.enabled = true;
    config.recovery.hang_grace = sim::minutes(1);
    config.recovery.sweep_interval = sim::minutes(1);
    core::HybridCluster hybrid(engine, config);
    ASSERT_NE(hybrid.fault_injector(), nullptr);
    ASSERT_NE(hybrid.recovery(), nullptr);
    EXPECT_TRUE(hybrid.controller().watchdog_enabled());
    hybrid.start();
    engine.run_until(sim::TimePoint{} + sim::hours(2));
    EXPECT_EQ(hybrid.fault_injector()->stats().boot_hangs, 1u);
    EXPECT_EQ(hybrid.fault_injector()->stats().head_crashes, 1u);
    EXPECT_EQ(hybrid.recovery()->stats().recoveries, 1u);
    // After the head restart the linux daemon is listening again.
    EXPECT_TRUE(hybrid.cluster().network().is_bound(hybrid.cluster().linux_head_host(),
                                                    core::kCommunicatorPort));
    for (auto* node : hybrid.cluster().nodes()) EXPECT_TRUE(node->is_up());
}

TEST(HybridFault, NoPlanMeansNoInjector) {
    sim::Engine engine;
    core::HybridConfig config;
    config.cluster.node_count = 2;
    core::HybridCluster hybrid(engine, config);
    EXPECT_EQ(hybrid.fault_injector(), nullptr);
    EXPECT_EQ(hybrid.recovery(), nullptr);
    EXPECT_FALSE(hybrid.controller().watchdog_enabled());
}

}  // namespace
}  // namespace hc::fault
