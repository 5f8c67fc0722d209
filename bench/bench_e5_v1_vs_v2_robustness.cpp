// E5 — §IV.A robustness: v2's PXE control means "a compute node could be
// switched by any reboot action, including soft reboot and physically power
// reset. This is an improvement to the initial system."
//
// All fault campaigns are driven through hc::fault plans (the same machinery
// the fuzzer and `dualboot_sim --faults` use), so each row is replayable
// from a JSON plan:
//   (a) random hard power cycles during normal hybrid operation,
//   (b) Windows reimaging (the MBR-clobber scenario),
//   (c) lossy head-to-head link (plan probabilities.message_drop),
//   (f) torn boot-control writes + recovery: v1's per-node controlmenu.lst
//       wedges for good, v2's shared PXE flag is repaired by the sweeper.
// Also reproduces the PXEGRUB-0.97 dead end: new NICs fall through to local
// boot, which is why the authors moved to GRUB4DOS.
//
// The plan-driven campaigns (a) and (f) are warm-started: per middleware
// version, one healthy world (construction + first boot) runs once per
// sweep worker, and each seed's fault plan is armed on a restored
// snapshot/fork just before its first injection — the seeds share the
// prefix and diverge at injection time. Campaigns (b) and (c) stay
// independent replicas on the plain pool (`--threads N`; `--quick` shrinks
// the seed count). Results are consumed in slot order, so output is
// identical at any thread count.
//
// With `--json <path>` the fault-campaign rows are emitted as
// "hc-bench-json/1" records (survival_rate / mttr_s / recoveries,
// parameterised by campaign + version) for run-over-run diffing.
#include <cstdio>
#include <functional>

#include "bench_common.hpp"
#include "boot/disk_layouts.hpp"
#include "boot/pxe.hpp"
#include "core/hybrid.hpp"
#include "deploy/reimage.hpp"
#include "fault/plan.hpp"

using namespace hc;

namespace {

core::HybridConfig base(deploy::MiddlewareVersion version, std::uint64_t seed) {
    core::HybridConfig cfg;
    cfg.cluster.node_count = 16;
    cfg.cluster.seed = seed;
    cfg.version = version;
    cfg.poll_interval = sim::minutes(5);
    return cfg;
}

int count_up(core::HybridCluster& hybrid) {
    int up = 0;
    for (auto* node : hybrid.cluster().nodes())
        if (node->is_up()) ++up;
    return up;
}

/// A bare warm-startable world (engine + hybrid) for the forked campaigns.
struct FaultWorld {
    FaultWorld(const core::HybridConfig& cfg, util::Arena* arena)
        : engine(/*unix_epoch=*/-1, arena), hybrid(engine, cfg) {
        hybrid.start();
    }
    struct Snapshot {
        sim::Engine::Snapshot engine;
        core::HybridCluster::SavedState world;
        [[nodiscard]] std::size_t bytes() const { return engine.bytes(); }
    };
    [[nodiscard]] Snapshot snapshot() { return {engine.snapshot(), hybrid.save_state()}; }
    void restore(const Snapshot& s) {
        engine.restore(s.engine);
        hybrid.restore_state(s.world);
    }
    sim::Engine engine;
    core::HybridCluster hybrid;
};

/// Fold one forked campaign's envelope into the bench-wide totals.
void fold_fork_stats(sweep::ForkStats& total, const sweep::ForkStats& fs) {
    total.prefixes += fs.prefixes;
    total.forks += fs.forks;
    if (fs.snapshot_bytes > total.snapshot_bytes) total.snapshot_bytes = fs.snapshot_bytes;
    total.prefix_sim_s += fs.prefix_sim_s;
    total.suffix_sim_s += fs.suffix_sim_s;
}

/// (a) Power-cycle campaign: a plan of 12 surprise power resets at 7-minute
/// intervals, targets drawn from the injector's seeded stream. Does every
/// node come back to a schedulable OS? Forked: the healthy first 9 minutes
/// run once per worker; each seed's plan is armed on a restored fork one
/// minute before its first reset.
std::vector<int> power_cycle_campaign(deploy::MiddlewareVersion version,
                                      std::uint64_t seeds, int threads,
                                      sweep::ForkStats& fork_total) {
    sweep::ForkStats fs;
    auto out = sweep::run_forked(
        seeds, threads,
        [version](sweep::WorkerContext& ctx) {
            auto world = std::make_unique<FaultWorld>(base(version, /*seed=*/1), ctx.arena);
            world->engine.run_until(sim::TimePoint{} + sim::minutes(9));
            return world;
        },
        [](FaultWorld& world, std::size_t slot) {
            const std::uint64_t seed = slot + 1;
            fault::FaultPlan plan;
            plan.seed = seed;
            for (int i = 0; i < 12; ++i) {
                fault::FaultEvent ev;
                ev.at = sim::minutes(1 + 7 * i);  // absolute minutes 10, 17, ...
                ev.kind = fault::FaultKind::kPowerCycle;
                plan.events.push_back(ev);
            }
            world.hybrid.arm_faults(plan, seed);
            world.engine.run_until(sim::TimePoint{} + sim::hours(6));
            return count_up(world.hybrid);
        },
        &fs);
    fs.prefix_sim_s = 9 * 60.0;
    fs.suffix_sim_s = 6 * 3600.0 - fs.prefix_sim_s;
    fold_fork_stats(fork_total, fs);
    return out;
}

/// (b) Reimage campaign: reimage Windows on 4 nodes mid-operation; how many
/// of them can still boot Linux afterwards (without an admin reinstall)?
int reimage_campaign(deploy::MiddlewareVersion version, std::uint64_t seed,
                     util::Arena* arena) {
    sim::Engine engine(/*unix_epoch=*/-1, arena);
    core::HybridCluster hybrid(engine, base(version, seed));
    hybrid.start();
    hybrid.settle();
    deploy::Deployer deployer(version);
    for (int i = 0; i < 4; ++i) (void)deployer.deploy_windows(hybrid.cluster().node(i));
    // Power-cycle the reimaged nodes; in v2 the flag (linux) governs, in v1
    // the Windows MBR does.
    for (int i = 0; i < 4; ++i) hybrid.cluster().node(i).hard_power_cycle();
    engine.run_until(sim::TimePoint{} + sim::hours(1));
    int linux_booted = 0;
    for (int i = 0; i < 4; ++i)
        if (hybrid.cluster().node(i).os() == cluster::OsType::kLinux) ++linux_booted;
    return linux_booted;
}

/// (c) Lossy-link campaign: fraction of a Windows-demand burst served. The
/// drop rate rides in the fault plan's probabilistic rates.
double lossy_link_campaign(deploy::MiddlewareVersion version, double drop, std::uint64_t seed,
                           util::Arena* arena) {
    sim::Engine engine(/*unix_epoch=*/-1, arena);
    auto cfg = base(version, seed);
    cfg.fault_plan.seed = seed;
    cfg.fault_plan.probabilities.message_drop = drop;
    core::HybridCluster hybrid(engine, cfg);
    hybrid.start();
    hybrid.settle();
    for (int i = 0; i < 3; ++i) {
        workload::JobSpec spec;
        spec.app = "Backburner";
        spec.os = cluster::OsType::kWindows;
        spec.nodes = 1;
        spec.runtime = sim::minutes(20);
        hybrid.submit_now(spec);
    }
    engine.run_until(sim::TimePoint{} + sim::hours(8));
    return static_cast<double>(hybrid.winhpc().stats().finished) / 3.0;
}

/// (f) Torn-control-write campaign — the §III.B fragility head-to-head. Six
/// nodes each take a torn boot-control write followed by a power reset
/// through the corrupt menu. Recovery (order watchdog + hung-node sweeper)
/// is on for both versions; only v2 gives the sweeper something it can
/// repair (the shared PXE flag menu). v1's per-node controlmenu.lst has no
/// rewriter, so those nodes stay wedged — the admin walk the paper
/// describes.
struct FlagWriteOutcome {
    int nodes_up = 0;
    int node_count = 16;
    fault::SupervisorStats recovery;
    std::uint64_t corruptions = 0;
};

std::vector<FlagWriteOutcome> flag_write_campaign(deploy::MiddlewareVersion version,
                                                  std::uint64_t seeds, int threads,
                                                  sweep::ForkStats& fork_total) {
    sweep::ForkStats fs;
    auto out = sweep::run_forked(
        seeds, threads,
        [version](sweep::WorkerContext& ctx) {
            auto cfg = base(version, /*seed=*/1);
            cfg.recovery.enabled = true;  // sweeper up from the start, as before
            auto world = std::make_unique<FaultWorld>(cfg, ctx.arena);
            world->engine.run_until(sim::TimePoint{} + sim::minutes(29));
            return world;
        },
        [](FaultWorld& world, std::size_t slot) {
            const std::uint64_t seed = slot + 1;
            fault::FaultPlan plan;
            plan.seed = seed;
            for (int i = 0; i < 6; ++i) {
                fault::FaultEvent tear;
                tear.at = sim::minutes(1 + 20 * i);  // absolute minutes 30, 50, ...
                tear.kind = fault::FaultKind::kControlTornWrite;
                tear.node = i;  // v1: node i's FAT menu; v2: the shared flag menu
                plan.events.push_back(tear);
                fault::FaultEvent reset;
                reset.at = tear.at + sim::minutes(1);
                reset.kind = fault::FaultKind::kPowerCycle;
                reset.node = i;
                plan.events.push_back(reset);
            }
            world.hybrid.arm_faults(plan, seed);
            world.engine.run_until(sim::TimePoint{} + sim::hours(8));
            FlagWriteOutcome outcome;
            outcome.nodes_up = count_up(world.hybrid);
            outcome.node_count = world.hybrid.cluster().node_count();
            if (world.hybrid.recovery() != nullptr)
                outcome.recovery = world.hybrid.recovery()->stats();
            if (world.hybrid.forked_injector() != nullptr)
                outcome.corruptions = world.hybrid.forked_injector()->stats().control_corruptions;
            return outcome;
        },
        &fs);
    fs.prefix_sim_s = 29 * 60.0;
    fs.suffix_sim_s = 8 * 3600.0 - fs.prefix_sim_s;
    fold_fork_stats(fork_total, fs);
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    bench::print_header("E5 (§IV.A claims)", "v1 vs v2 robustness under faults",
                        "v2 survives any reboot path; v1 depends on local MBR+FAT state");
    bench::JsonReport report("E5");

    const std::uint64_t kSeeds = bench::quick_mode(argc, argv) ? 1 : 3;
    const double kDrops[] = {0.0, 0.3, 0.6};
    constexpr auto kV1 = deploy::MiddlewareVersion::kV1;
    constexpr auto kV2 = deploy::MiddlewareVersion::kV2;

    const int threads = bench::threads_from_args(argc, argv);

    // (a) and (f) are warm-started fork campaigns (one per version, seeds as
    // suffixes); (b) and (c) stay independent replicas on the plain pool.
    sweep::ForkStats fork_total;
    const auto power_v1 = power_cycle_campaign(kV1, kSeeds, threads, fork_total);
    const auto power_v2 = power_cycle_campaign(kV2, kSeeds, threads, fork_total);

    std::vector<std::function<double(util::Arena*)>> tasks;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed)
        for (const auto version : {kV1, kV2})
            tasks.emplace_back([version, seed](util::Arena* a) {
                return static_cast<double>(reimage_campaign(version, seed, a));
            });
    for (const double drop : kDrops)
        for (const auto version : {kV1, kV2})
            tasks.emplace_back([version, drop](util::Arena* a) {
                return lossy_link_campaign(version, drop, 5, a);
            });
    sweep::SweepStats sweep_stats;
    const auto results = sweep::map_indexed<double>(
        tasks.size(), threads,
        [&](std::size_t slot, sweep::WorkerContext& ctx) { return tasks[slot](ctx.arena); },
        &sweep_stats);

    const auto flag_v1 = flag_write_campaign(kV1, kSeeds, threads, fork_total);
    const auto flag_v2 = flag_write_campaign(kV2, kSeeds, threads, fork_total);
    std::size_t slot = 0;

    std::printf("(a) 12 random hard power cycles over 6h — nodes back up afterwards:\n");
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const int v1 = power_v1[seed - 1];
        const int v2 = power_v2[seed - 1];
        std::printf("  seed %llu: v1 %d/16, v2 %d/16\n",
                    static_cast<unsigned long long>(seed), v1, v2);
        const std::string seed_str = std::to_string(seed);
        report.add("survival_rate", v1 / 16.0, "fraction",
                   {{"campaign", "power_cycle"}, {"version", "v1"}, {"seed", seed_str}});
        report.add("survival_rate", v2 / 16.0, "fraction",
                   {{"campaign", "power_cycle"}, {"version", "v2"}, {"seed", seed_str}});
    }

    std::printf(
        "\n(b) Windows reimage on 4 nodes, then power cycle — nodes that can still\n"
        "    reach Linux without an admin visit:\n");
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const int v1 = static_cast<int>(results[slot++]);
        const int v2 = static_cast<int>(results[slot++]);
        std::printf("  seed %llu: v1 %d/4 (MBR clobbered -> Windows only), v2 %d/4 (PXE flag)\n",
                    static_cast<unsigned long long>(seed), v1, v2);
    }

    std::printf("\n(c) lossy WINHEAD->LINHEAD link — Windows burst served within 8h:\n");
    for (const double drop : kDrops) {
        const double v1 = results[slot++];
        const double v2 = results[slot++];
        std::printf("  drop %.0f%%: v1 %3.0f%%, v2 %3.0f%% (fixed-cycle retransmission heals)\n",
                    drop * 100, v1 * 100, v2 * 100);
    }

    std::printf(
        "\n(f) 6 torn boot-control writes + power resets, recovery on — v1 tears its\n"
        "    per-node controlmenu.lst (nothing rewrites it), v2 tears the shared PXE\n"
        "    flag (sweeper repairs it before re-cycling):\n");
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const auto v1 = flag_v1[seed - 1];
        const auto v2 = flag_v2[seed - 1];
        std::printf(
            "  seed %llu: v1 %2d/%d up, %llu repairs, mttr %5.0fs | "
            "v2 %2d/%d up, %llu repairs, mttr %5.0fs\n",
            static_cast<unsigned long long>(seed), v1.nodes_up, v1.node_count,
            static_cast<unsigned long long>(v1.recovery.flag_repairs),
            v1.recovery.mean_time_to_recover_s(), v2.nodes_up, v2.node_count,
            static_cast<unsigned long long>(v2.recovery.flag_repairs),
            v2.recovery.mean_time_to_recover_s());
        const std::string seed_str = std::to_string(seed);
        for (const auto* row : {&v1, &v2}) {
            const char* version = row == &v1 ? "v1" : "v2";
            report.add("survival_rate",
                       static_cast<double>(row->nodes_up) / row->node_count, "fraction",
                       {{"campaign", "flag_write"}, {"version", version}, {"seed", seed_str}});
            report.add("mttr_s", row->recovery.mean_time_to_recover_s(), "s",
                       {{"campaign", "flag_write"}, {"version", version}, {"seed", seed_str}});
            report.add("recoveries", static_cast<double>(row->recovery.recoveries), "count",
                       {{"campaign", "flag_write"}, {"version", version}, {"seed", seed_str}});
            report.add("flag_repairs", static_cast<double>(row->recovery.flag_repairs), "count",
                       {{"campaign", "flag_write"}, {"version", version}, {"seed", seed_str}});
        }
    }

    // (e) WINHEAD crash: a kHeadCrash plan event with a 10h outage (beyond
    // the horizon, so the init-script respawn never fires — a genuinely dead
    // box). With the paper's design the control loop freezes; with our
    // watchdog hardening the Linux daemon stays live. Stays serial: the
    // probe inspects daemon stats mid-run, not just at the horizon.
    std::printf("\n(e) Windows head crash mid-operation (watchdog hardening):\n");
    for (const bool watchdog : {false, true}) {
        sim::Engine engine;
        auto cfg = base(deploy::MiddlewareVersion::kV2, 9);
        if (watchdog) cfg.watchdog_timeout = sim::minutes(15);
        fault::FaultEvent crash;
        crash.at = sim::minutes(25);
        crash.kind = fault::FaultKind::kHeadCrash;
        crash.side = "windows";
        crash.duration = sim::hours(10);
        cfg.fault_plan.events.push_back(crash);
        cfg.fault_plan.seed = 9;
        core::HybridCluster hybrid(engine, cfg);
        hybrid.start();
        hybrid.settle();
        engine.run_until(sim::TimePoint{} + sim::minutes(26));  // crash has fired
        const auto decisions_at_crash = hybrid.linux_daemon().stats().decisions_made;
        engine.run_until(sim::TimePoint{} + sim::hours(4));
        std::printf("  watchdog %-3s: decisions after crash = %llu, daemon %s\n",
                    watchdog ? "on" : "off",
                    static_cast<unsigned long long>(
                        hybrid.linux_daemon().stats().decisions_made - decisions_at_crash),
                    hybrid.linux_daemon().peer_stale() ? "flagged the silent peer"
                                                       : "froze silently (paper design)");
    }

    // (d) The PXEGRUB 0.97 NIC dead end.
    std::printf("\n(d) PXEGRUB 0.97 vs GRUB4DOS on newer NICs (r8169):\n");
    {
        sim::Engine engine;
        cluster::NodeConfig ncfg;
        ncfg.hostname = "enode01.test";
        ncfg.nic_driver = "r8169";
        cluster::Node node(engine, ncfg, util::Rng(1));
        node.disk() = boot::make_v2_disk();
        boot::PxeServer pxe;
        boot::OsFlagStore flag(pxe);
        flag.set_flag(cluster::OsType::kLinux);
        pxe.set_default_rom(boot::PxeRom::kPxegrub097);
        const auto d097 = pxe.resolve(node);
        pxe.set_default_rom(boot::PxeRom::kGrub4dos);
        const auto d4dos = pxe.resolve(node);
        std::printf("  pxegrub-0.97: booted %s via %s\n", cluster::os_name(d097.os),
                    d097.via.c_str());
        std::printf("  grub4dos    : booted %s via %s\n", cluster::os_name(d4dos.os),
                    d4dos.via.c_str());
        std::printf("  (\"new models of LAN cards are not supported. Therefore, we needed to\n"
                    "   change our approach.\" — GRUB 0.97 falls through to the local disk)\n");
    }

    bench::print_sweep_stats(sweep_stats);
    bench::print_fork_stats(fork_total);
    report.set_sweep(sweep_stats);
    report.set_fork(fork_total);
    const std::string json_path = bench::json_path_from_args(argc, argv);
    if (!json_path.empty()) (void)report.write(json_path);
    return 0;
}
