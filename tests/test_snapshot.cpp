// Engine snapshot/fork — the copy-on-write primitive under hc::sweep's
// warm-started campaigns.
//
// Two layers are pinned here:
//   * sim::Engine::snapshot()/restore(): the calendar image round-trips
//     exactly — heap order, tombstones, slot generations, seq counter, sim
//     clock, stats — so a restored engine re-issues the *same EventIds* and
//     replays the same dispatch sequence as the run that never left the
//     snapshot point. Arena mode additionally pins the image-below-watermark
//     contract: every restore rewinds suffix garbage in O(1) while the image
//     survives, oversized blocks included.
//   * core::ScenarioWorld: the whole-world checkpoint (engine + every
//     component SavedState, RNG streams included) is byte-equal to a cold
//     run, with and without a post-fork divergence (set_policy / arm_faults)
//     — the equality the forked bench path stands on.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/scenario.hpp"
#include "sim/engine.hpp"
#include "util/arena.hpp"
#include "util/errors.hpp"

namespace hc {
namespace {

// ---- engine-level ----------------------------------------------------------

/// One dispatched event, as observed by a probe callback.
using Trace = std::vector<std::pair<std::string, std::int64_t>>;

/// Populate `engine` with a busy little calendar: periodic chains, one-shot
/// events, and a sprinkling of cancellations so live slots, tombstones, and
/// free-listed slots all coexist at snapshot time.
void seed_calendar(sim::Engine& engine, Trace& log) {
    struct Chain {
        sim::Engine* engine;
        Trace* log;
        std::string name;
        std::int64_t period_ms;
        int remaining;
        void fire() {
            log->emplace_back(name, engine->now().ms);
            if (--remaining > 0)
                (void)engine->schedule_after(sim::Duration{period_ms},
                                             [self = *this]() mutable { self.fire(); });
        }
    };
    for (int c = 0; c < 3; ++c) {
        Chain chain{&engine, &log, "chain" + std::to_string(c), 70 + 13 * c, 40};
        (void)engine.schedule_after(sim::Duration{5 + c}, [chain]() mutable {
            Chain self = chain;
            self.fire();
        });
    }
    std::vector<sim::EventId> doomed;
    for (int i = 0; i < 50; ++i) {
        const auto id = engine.schedule_after(
            sim::Duration{10 + i * 7},
            [&log, i, &engine] { log.emplace_back("one" + std::to_string(i), engine.now().ms); });
        if (i % 3 == 0) doomed.push_back(id);
    }
    for (const auto id : doomed) ASSERT_TRUE(engine.cancel(id));
}

TEST(EngineSnapshot, ResumedRunMatchesUninterruptedRun) {
    for (const bool arena_mode : {false, true}) {
        util::Arena arena;
        sim::Engine engine(-1, arena_mode ? &arena : nullptr);
        Trace log;
        seed_calendar(engine, log);
        engine.run_until(sim::TimePoint{} + sim::Duration{500});

        auto snap = engine.snapshot();
        EXPECT_EQ(snap.now().ms, 500);
        EXPECT_GT(snap.bytes(), 0u);

        // Uninterrupted continuation.
        log.clear();
        engine.run_until(sim::TimePoint{} + sim::Duration{4000});
        const Trace golden = log;
        const auto golden_stats = engine.stats();
        ASSERT_FALSE(golden.empty());

        // Restore and replay — twice, to prove the image survives rewinds.
        for (int round = 0; round < 2; ++round) {
            engine.restore(snap);
            EXPECT_EQ(engine.now().ms, 500) << "arena_mode=" << arena_mode;
            log.clear();
            engine.run_until(sim::TimePoint{} + sim::Duration{4000});
            EXPECT_EQ(log, golden) << "arena_mode=" << arena_mode << " round=" << round;
            EXPECT_EQ(engine.stats().dispatched, golden_stats.dispatched);
            EXPECT_EQ(engine.stats().scheduled, golden_stats.scheduled);
            EXPECT_EQ(engine.stats().cancelled, golden_stats.cancelled);
        }
    }
}

// A restored engine must re-issue identical EventIds: same slot, same
// generation, same seq tie-break. This is what lets component SavedStates
// keep raw EventIds across a world restore.
TEST(EngineSnapshot, RestoreReissuesIdenticalEventIds) {
    sim::Engine engine;
    Trace log;
    seed_calendar(engine, log);
    engine.run_until(sim::TimePoint{} + sim::Duration{300});
    auto snap = engine.snapshot();

    auto probe = [&engine] {
        std::vector<std::uint64_t> ids;
        for (int i = 0; i < 8; ++i)
            ids.push_back(engine.schedule_after(sim::Duration{50 + i}, [] {}).value);
        return ids;
    };
    const auto first = probe();
    engine.restore(snap);
    EXPECT_EQ(probe(), first);
}

TEST(EngineSnapshot, TombstonesStayCancelledAcrossRestore) {
    sim::Engine engine;
    Trace log;
    int fired = 0;
    (void)engine.schedule_after(sim::Duration{100}, [&fired] { ++fired; });
    const auto doomed =
        engine.schedule_after(sim::Duration{200}, [&fired] { fired += 100; });
    ASSERT_TRUE(engine.cancel(doomed));

    auto snap = engine.snapshot();
    EXPECT_EQ(engine.pending_events(), 1u);

    engine.run_until(sim::TimePoint{} + sim::Duration{300});
    EXPECT_EQ(fired, 1);

    engine.restore(snap);
    // The tombstone came back as a tombstone: cancelling again is a no-op
    // and the cancelled callback never runs.
    EXPECT_FALSE(engine.cancel(doomed));
    engine.run_until(sim::TimePoint{} + sim::Duration{300});
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(engine.empty());
}

// Only *live* callbacks must be clonable: a cancelled move-only capture is
// dead weight (its tombstone matters, its closure never runs again) and must
// not block the snapshot.
TEST(EngineSnapshot, MoveOnlyCapturesRejectedUnlessCancelled) {
    sim::Engine engine;
    auto payload = std::make_unique<int>(7);
    const auto id = engine.schedule_after(
        sim::Duration{10}, [p = std::move(payload)] { (void)*p; });
    EXPECT_THROW((void)engine.snapshot(), util::PreconditionError);
    ASSERT_TRUE(engine.cancel(id));
    auto snap = engine.snapshot();  // now fine: the offender is a tombstone
    engine.restore(snap);
    engine.run_until(sim::TimePoint{} + sim::Duration{100});
    EXPECT_TRUE(engine.empty());
}

// Arena mode: the snapshot image sits below the watermark; every restore
// rewinds the suffix's allocations — oversized blocks included — so a
// thousand forks reuse the same few pages instead of growing the arena.
TEST(EngineSnapshot, ArenaRewindReclaimsSuffixIncludingOversizedBlocks) {
    // A tiny block size forces the calendar vectors themselves into
    // oversized blocks, so the image path exercises both block kinds.
    util::Arena arena(1024);
    sim::Engine engine(-1, &arena);
    Trace log;
    seed_calendar(engine, log);
    engine.run_until(sim::TimePoint{} + sim::Duration{200});

    auto snap = engine.snapshot();
    const std::size_t used_at_capture = arena.bytes_used();

    // Post-restore footprint = image + the restored working calendar (which
    // restore() re-carves above the watermark). The invariant is that it is
    // IDENTICAL every round: forks reclaim everything they minted, oversized
    // blocks included, so a thousand forks cannot grow the arena.
    std::size_t used_after_restore = 0;
    std::size_t oversized_after_restore = 0;
    for (int round = 0; round < 3; ++round) {
        // The suffix mints its own oversized blocks (big one-off buffer plus
        // calendar growth); restore must hand them all back.
        (void)arena.allocate(64 * 1024);
        log.clear();
        engine.run_until(sim::TimePoint{} + sim::Duration{3000});
        if (round > 0) {
            EXPECT_GT(arena.oversized_block_count(), oversized_after_restore);
        }

        engine.restore(snap);
        if (round == 0) {
            used_after_restore = arena.bytes_used();
            oversized_after_restore = arena.oversized_block_count();
            EXPECT_GE(used_after_restore, used_at_capture);
        } else {
            EXPECT_EQ(arena.bytes_used(), used_after_restore) << "round " << round;
            EXPECT_EQ(arena.oversized_block_count(), oversized_after_restore)
                << "round " << round;
        }
    }
}

TEST(EngineSnapshot, RestoreFromForeignEngineIsRejected) {
    sim::Engine a;
    sim::Engine b;
    (void)a.schedule_after(sim::Duration{10}, [] {});
    auto snap = a.snapshot();
    EXPECT_THROW(b.restore(snap), util::PreconditionError);
}

// ---- world-level -----------------------------------------------------------

/// The byte-comparison surface: the full hc-bench-json/1 record array for
/// one scenario result (summary, daemon stats, fault stats — everything the
/// benches publish).
std::string record_bytes(core::ScenarioResult result) {
    bench::JsonReport report("snapshot-test");
    bench::add_scenario_records(report, result, {});
    return report.render_records();
}

/// An E2-shaped world with every RNG stream hot: message drops (network
/// stream), boot hangs (per-node streams), mixed workload.
core::ScenarioConfig busy_config(std::uint64_t seed) {
    core::ScenarioConfig cfg;
    cfg.kind = core::ScenarioKind::kBiStableHybrid;
    cfg.policy = core::PolicyKind::kFairShare;
    cfg.linux_nodes = 12;
    cfg.horizon = sim::hours(8);
    cfg.message_drop_probability = 0.05;
    cfg.boot_hang_probability = 0.02;
    cfg.seed = seed;
    return cfg;
}

TEST(ScenarioSnapshot, RoundTripMatchesColdRunByteForByte) {
    const core::ScenarioConfig cfg = busy_config(11);
    const auto trace = bench::mixed_trace(0.25, /*seed=*/11, /*rate_per_hour=*/8.0,
                                          sim::hours(6));
    const std::string cold = record_bytes(core::run_scenario(cfg, trace));

    util::Arena arena;
    core::ScenarioConfig warm_cfg = cfg;
    warm_cfg.arena = &arena;
    core::ScenarioWorld world(warm_cfg, trace);
    world.run_until(sim::TimePoint{} + sim::hours(4));
    auto snap = world.snapshot();
    EXPECT_GT(snap.bytes(), 0u);

    world.run_until(world.horizon_end());
    EXPECT_EQ(record_bytes(world.finish()), cold) << "phased run diverged from run_scenario";

    // Restore and re-run the suffix twice: RNG streams (network drops, boot
    // hangs), scheduler text pipelines, and the calendar all rewind exactly.
    for (int round = 0; round < 2; ++round) {
        world.restore(snap);
        world.run_until(world.horizon_end());
        EXPECT_EQ(record_bytes(world.finish()), cold) << "restored suffix " << round;
    }
}

TEST(ScenarioSnapshot, PolicyDivergenceMatchesColdSwitch) {
    const core::ScenarioConfig cfg = busy_config(13);
    const auto trace = bench::mixed_trace(0.3, /*seed=*/13, /*rate_per_hour=*/8.0,
                                          sim::hours(6));
    const auto fork_at = sim::TimePoint{} + sim::hours(3);

    // Cold baseline: a fresh world that flips policy at fork_at.
    auto cold_with = [&](core::PolicyKind policy) {
        core::ScenarioWorld world(cfg, trace);
        world.run_until(fork_at);
        world.hybrid().set_policy(policy);
        world.run_until(world.horizon_end());
        return record_bytes(world.finish());
    };

    // Warm: one prefix, one snapshot, three policy suffixes off it.
    util::Arena arena;
    core::ScenarioConfig warm_cfg = cfg;
    warm_cfg.arena = &arena;
    core::ScenarioWorld world(warm_cfg, trace);
    world.run_until(fork_at);
    auto snap = world.snapshot();
    for (const auto policy : {core::PolicyKind::kFcfs, core::PolicyKind::kPredictive,
                              core::PolicyKind::kThreshold}) {
        world.restore(snap);
        world.hybrid().set_policy(policy);
        world.run_until(world.horizon_end());
        EXPECT_EQ(record_bytes(world.finish()), cold_with(policy))
            << "policy " << core::policy_kind_name(policy);
    }
}

TEST(ScenarioSnapshot, FaultArmDivergenceMatchesColdArm) {
    core::ScenarioConfig cfg = busy_config(17);
    cfg.recovery.enabled = true;
    const auto trace = bench::mixed_trace(0.3, /*seed=*/17, /*rate_per_hour=*/8.0,
                                          sim::hours(6));
    const auto fork_at = sim::TimePoint{} + sim::hours(2);

    auto plan_for = [](std::uint64_t seed) {
        fault::RandomPlanOptions opts;
        opts.horizon = sim::hours(5);
        return fault::make_random_plan(opts, seed);
    };

    auto cold_with = [&](std::uint64_t fault_seed) {
        core::ScenarioWorld world(cfg, trace);
        world.run_until(fork_at);
        world.hybrid().arm_faults(plan_for(fault_seed), fault_seed);
        world.run_until(world.horizon_end());
        return record_bytes(world.finish());
    };

    util::Arena arena;
    core::ScenarioConfig warm_cfg = cfg;
    warm_cfg.arena = &arena;
    core::ScenarioWorld world(warm_cfg, trace);
    world.run_until(fork_at);
    auto snap = world.snapshot();
    for (const std::uint64_t fault_seed : {101ull, 202ull}) {
        world.restore(snap);
        world.hybrid().arm_faults(plan_for(fault_seed), fault_seed);
        world.run_until(world.horizon_end());
        EXPECT_EQ(record_bytes(world.finish()), cold_with(fault_seed))
            << "fault seed " << fault_seed;
    }
}

// ---- cloud-armed worlds ----------------------------------------------------

/// record_bytes plus the cloud ledger: burst counters, reaction times, and
/// the money meter join the equality surface, so a restore that loses a
/// billing session, a pending provision, or an idle-tracking mark shows up
/// as a byte diff rather than a silent drift.
std::string cloud_record_bytes(const core::ScenarioResult& result) {
    bench::JsonReport report("snapshot-cloud-test");
    bench::add_scenario_records(report, result, {});
    report.add("cloud_bursts", static_cast<double>(result.cloud_stats.burst_requests),
               "count", {});
    report.add("cloud_provisioned",
               static_cast<double>(result.cloud_stats.provisions_completed), "count", {});
    report.add("cloud_denied", static_cast<double>(result.cloud_stats.quota_denied),
               "count", {});
    report.add("cloud_releases", static_cast<double>(result.cloud_stats.releases), "count",
               {});
    report.add("cloud_reaction_ms",
               static_cast<double>(result.cloud_stats.total_reaction_ms), "ms", {});
    report.add("cloud_node_hours", result.cloud_node_hours, "h", {});
    report.add("cloud_cost", result.cloud_cost, "$", {});
    return report.render_records();
}

/// An E10-shaped world: all-Linux start so Windows arrivals stick and the
/// burst-aware policy actually rents, with the fault RNG streams hot too.
core::ScenarioConfig cloud_config(std::uint64_t seed) {
    core::ScenarioConfig cfg;
    cfg.kind = core::ScenarioKind::kBiStableHybrid;
    cfg.policy = core::PolicyKind::kBurstAware;
    cfg.node_count = 16;
    cfg.linux_nodes = 16;
    cfg.poll_interval = sim::minutes(10);
    cfg.horizon = sim::hours(8);
    cfg.message_drop_probability = 0.05;
    cfg.boot_hang_probability = 0.02;
    cfg.seed = seed;
    cfg.cloud.max_burst = 6;
    cfg.cloud.provision_delay = sim::seconds(90);
    cfg.cloud.idle_timeout = sim::minutes(20);
    cfg.cloud.sweep_interval = sim::minutes(1);
    return cfg;
}

TEST(ScenarioSnapshot, CloudWorldRoundTripMatchesColdRunByteForByte) {
    const core::ScenarioConfig cfg = cloud_config(23);
    const auto trace = bench::mixed_trace(0.6, /*seed=*/23, /*rate_per_hour=*/12.0,
                                          sim::hours(6));
    const core::ScenarioResult cold_result = core::run_scenario(cfg, trace);
    // The fork point (4 h) sits mid-campaign: rented instances, open billing
    // sessions, and possibly an in-flight provision all cross the snapshot.
    ASSERT_TRUE(cold_result.cloud_enabled);
    ASSERT_GT(cold_result.cloud_stats.nodes_requested, 0u)
        << "workload never drove a burst — the golden would not cover the cloud path";
    const std::string cold = cloud_record_bytes(cold_result);

    util::Arena arena;
    core::ScenarioConfig warm_cfg = cfg;
    warm_cfg.arena = &arena;
    core::ScenarioWorld world(warm_cfg, trace);
    world.run_until(sim::TimePoint{} + sim::hours(4));
    auto snap = world.snapshot();

    world.run_until(world.horizon_end());
    EXPECT_EQ(cloud_record_bytes(world.finish()), cold)
        << "phased cloud run diverged from run_scenario";
    for (int round = 0; round < 2; ++round) {
        world.restore(snap);
        world.run_until(world.horizon_end());
        EXPECT_EQ(cloud_record_bytes(world.finish()), cold)
            << "restored cloud suffix " << round;
    }
}

TEST(ScenarioSnapshot, CloudWorldFaultArmDivergenceMatchesColdArm) {
    core::ScenarioConfig cfg = cloud_config(29);
    cfg.recovery.enabled = true;
    const auto trace = bench::mixed_trace(0.6, /*seed=*/29, /*rate_per_hour=*/12.0,
                                          sim::hours(6));
    const auto fork_at = sim::TimePoint{} + sim::hours(3);

    auto plan_for = [](std::uint64_t seed) {
        fault::RandomPlanOptions opts;
        opts.horizon = sim::hours(5);
        return fault::make_random_plan(opts, seed);
    };
    auto cold_with = [&](std::uint64_t fault_seed) {
        core::ScenarioWorld world(cfg, trace);
        world.run_until(fork_at);
        world.hybrid().arm_faults(plan_for(fault_seed), fault_seed);
        world.run_until(world.horizon_end());
        return cloud_record_bytes(world.finish());
    };

    util::Arena arena;
    core::ScenarioConfig warm_cfg = cfg;
    warm_cfg.arena = &arena;
    core::ScenarioWorld world(warm_cfg, trace);
    world.run_until(fork_at);
    auto snap = world.snapshot();
    for (const std::uint64_t fault_seed : {303ull, 404ull}) {
        world.restore(snap);
        world.hybrid().arm_faults(plan_for(fault_seed), fault_seed);
        world.run_until(world.horizon_end());
        EXPECT_EQ(cloud_record_bytes(world.finish()), cold_with(fault_seed))
            << "cloud world, fault seed " << fault_seed;
    }
}

}  // namespace
}  // namespace hc
