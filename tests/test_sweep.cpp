// hc::sweep — pool behaviour and the determinism contract.
//
// The headline guarantee (pinned by the *ByteIdenticalAcrossThreads tests):
// every sweep output — fuzz verdict lists, bench JSON records, merged
// histograms — is byte-identical at --threads 1 and --threads 4. Thread
// count is a wall-clock knob, nothing else. The remaining tests pin the
// pool mechanics the guarantee rests on: slot-indexed results, threads
// clamped to replicas, arenas reset between replicas, first-exception
// propagation, TaskPool worker ids, and one prefix per forked session.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "fuzz_harness.hpp"
#include "sweep/runner.hpp"

namespace hc::sweep {
namespace {

// ---- pool mechanics --------------------------------------------------------

TEST(SweepRunner, ResolveThreadsClampsSanely) {
    EXPECT_EQ(resolve_threads(5), 5);
    EXPECT_EQ(resolve_threads(256), 256);
    EXPECT_EQ(resolve_threads(10'000), 256);
    EXPECT_GE(resolve_threads(0), 1);   // hardware default
    EXPECT_GE(resolve_threads(-3), 1);  // negative = hardware default
}

TEST(SweepRunner, MapIndexedIsSlotIndexed) {
    SweepStats stats;
    const auto out = map_indexed<std::size_t>(
        100, 4, [](std::size_t slot, WorkerContext&) { return slot * slot; }, &stats);
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
    EXPECT_EQ(stats.replicas, 100u);
    EXPECT_EQ(stats.threads, 4);
    EXPECT_GT(stats.wall_ms, 0.0);
    EXPECT_GT(stats.replicas_per_sec, 0.0);
}

TEST(SweepRunner, ThreadsNeverExceedReplicas) {
    const SweepStats stats = run_indexed(3, 8, [](std::size_t, WorkerContext&) {});
    EXPECT_EQ(stats.threads, 3);
}

TEST(SweepRunner, EveryReplicaRunsExactlyOnce) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    (void)run_indexed(hits.size(), 7, [&](std::size_t slot, WorkerContext&) {
        hits[slot].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
}

TEST(SweepRunner, WorkerArenaIsFreshForEachReplica) {
    std::atomic<int> dirty{0};
    (void)run_indexed(32, 4, [&](std::size_t, WorkerContext& ctx) {
        ASSERT_NE(ctx.arena, nullptr);
        // The runner resets the arena after every replica, so each one
        // starts from an empty (fully recycled) allocator.
        if (ctx.arena->bytes_used() != 0) dirty.fetch_add(1);
        (void)ctx.arena->allocate(4096);
    });
    EXPECT_EQ(dirty.load(), 0);
}

TEST(SweepRunner, FirstExceptionPropagatesToCaller) {
    EXPECT_THROW(run_indexed(64, 4,
                             [](std::size_t slot, WorkerContext&) {
                                 if (slot == 17) throw std::runtime_error("replica 17 boom");
                             }),
                 std::runtime_error);
    // The pool is not poisoned: a subsequent sweep on fresh workers is fine.
    const SweepStats stats = run_indexed(8, 4, [](std::size_t, WorkerContext&) {});
    EXPECT_EQ(stats.replicas, 8u);
}

TEST(TaskPool, WorkerIdsInRangeAndCallerIsWorkerZero) {
    TaskPool pool(4);
    ASSERT_EQ(pool.threads(), 4);
    constexpr std::size_t kCount = 2000;
    std::vector<int> worker_of(kCount, -1);
    std::vector<std::thread::id> thread_of(kCount);
    pool.parallel_for(kCount, [&](std::size_t i, int worker) {
        worker_of[i] = worker;
        thread_of[i] = std::this_thread::get_id();
    });
    const std::thread::id caller = std::this_thread::get_id();
    std::map<int, std::thread::id> thread_of_worker;
    for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_GE(worker_of[i], 0) << "index " << i;
        EXPECT_LT(worker_of[i], 4) << "index " << i;
        EXPECT_EQ(worker_of[i] == 0, thread_of[i] == caller) << "index " << i;
        // A worker id names one thread for the pool's whole life.
        const auto [it, inserted] = thread_of_worker.emplace(worker_of[i], thread_of[i]);
        if (!inserted) {
            EXPECT_EQ(it->second, thread_of[i]) << "worker " << worker_of[i];
        }
    }
}

TEST(TaskPool, SerialPoolRunsInlineOnTheCaller) {
    TaskPool pool(1);
    ASSERT_EQ(pool.threads(), 1);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    pool.parallel_for(50, [&](std::size_t i, int worker) {
        EXPECT_EQ(worker, 0);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 50u);
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(TaskPool, EmptyRoundReturns) {
    for (const int threads : {1, 4}) {
        TaskPool pool(threads);
        int calls = 0;
        pool.parallel_for(0, [&](std::size_t, int) { ++calls; });
        EXPECT_EQ(calls, 0) << threads << " thread(s)";
    }
}

TEST(TaskPool, RunsFurtherRoundsAfterAnException) {
    for (const int threads : {1, 4}) {
        TaskPool pool(threads);
        EXPECT_THROW(pool.parallel_for(64,
                                       [](std::size_t i, int) {
                                           if (i == 17) throw std::runtime_error("index 17 boom");
                                       }),
                     std::runtime_error);
        std::vector<std::atomic<int>> hits(100);
        for (auto& h : hits) h.store(0);
        pool.parallel_for(hits.size(), [&](std::size_t i, int) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << threads << " thread(s), index " << i;
    }
}

TEST(TaskPool, RoundsCountsCalls) {
    TaskPool pool(3);
    EXPECT_EQ(pool.rounds(), 0u);
    pool.parallel_for(10, [](std::size_t, int) {});
    pool.parallel_for(0, [](std::size_t, int) {});
    pool.parallel_for(5, [](std::size_t, int) {});
    EXPECT_EQ(pool.rounds(), 3u);
}

// A minimal forkable world: its state is one int, and it owns a cell on the
// worker arena that its destructor writes, so destroying the arena before
// the world is a use-after-free under ASan.
struct ToyWorld {
    struct Snapshot {
        int value = 0;
        [[nodiscard]] std::size_t bytes() const { return sizeof(value); }
    };
    explicit ToyWorld(util::Arena& arena) : cell(arena.create<int>(0)) {}
    ~ToyWorld() { *cell = -1; }
    ToyWorld(const ToyWorld&) = delete;
    ToyWorld& operator=(const ToyWorld&) = delete;

    Snapshot snapshot() { return Snapshot{value}; }
    void restore(const Snapshot& snap) { value = snap.value; }

    int* cell;
    int value = 0;
};

TEST(SweepForked, EachSessionRunsItsPrefixOnce) {
    constexpr int kThreads = 4;
    constexpr std::size_t kSlots = 64;
    // Each element is written only by the worker it counts for.
    std::vector<int> prefix_runs(kThreads, 0);
    ForkStats fs;
    SweepStats ss;
    const auto out = run_forked(
        kSlots, kThreads,
        [&](WorkerContext& ctx) {
            EXPECT_GE(ctx.worker, 0);
            EXPECT_LT(ctx.worker, kThreads);
            ++prefix_runs[static_cast<std::size_t>(ctx.worker)];
            auto world = std::make_unique<ToyWorld>(*ctx.arena);
            world->value = 7;
            return world;
        },
        [](ToyWorld& world, std::size_t slot) {
            const int seen = world.value;  // the restored prefix state
            world.value += 1000;           // dirty it; the next restore undoes this
            return seen * 1000 + static_cast<int>(slot);
        },
        &fs, &ss);
    ASSERT_EQ(out.size(), kSlots);
    for (std::size_t slot = 0; slot < kSlots; ++slot)
        EXPECT_EQ(out[slot], 7000 + static_cast<int>(slot)) << "slot " << slot;
    int opened = 0;
    for (const int runs : prefix_runs) {
        EXPECT_LE(runs, 1);
        opened += runs;
    }
    EXPECT_EQ(opened, fs.prefixes);
    EXPECT_GE(fs.prefixes, 1);
    EXPECT_LE(fs.prefixes, kThreads);
    EXPECT_EQ(fs.forks, kSlots);
    EXPECT_EQ(fs.snapshot_bytes, sizeof(int));
    EXPECT_EQ(ss.threads, kThreads);
    EXPECT_EQ(ss.replicas, kSlots);
}

TEST(SweepForked, SuffixExceptionPropagatesAndSessionsDieBeforeArenas) {
    for (const int threads : {1, 4}) {
        EXPECT_THROW(run_forked(
                         32, threads,
                         [](WorkerContext& ctx) { return std::make_unique<ToyWorld>(*ctx.arena); },
                         [](ToyWorld&, std::size_t slot) {
                             if (slot == 13) throw std::runtime_error("suffix 13 boom");
                             return 0;
                         }),
                     std::runtime_error)
            << threads << " thread(s)";
    }
}

// ---- determinism golden tests ----------------------------------------------

// Fuzz verdict lists: the quick-shard artifact must not depend on the
// thread count. Three disjoint seed bases, 8 seeds each, threads 1 vs 4.
TEST(SweepDeterminism, FuzzVerdictsByteIdenticalAcrossThreads) {
    for (const std::uint64_t first_seed : {1ull, 501ull, 2001ull}) {
        auto shard = [first_seed](int threads) {
            const auto outcomes = map_indexed<fault::FuzzOutcome>(
                8, threads, [&](std::size_t slot, WorkerContext& ctx) {
                    fault::FuzzRunConfig cfg;
                    cfg.seed = first_seed + slot;
                    return fault::run_one(cfg, ctx.arena);
                });
            return fault::format_verdicts(first_seed, outcomes);
        };
        const std::string serial = shard(1);
        const std::string pooled = shard(4);
        EXPECT_EQ(serial, pooled) << "verdict list diverged at first_seed " << first_seed;
        // And the shard is actually green — the golden string is "all ok".
        EXPECT_EQ(serial.find("FAIL"), std::string::npos) << serial;
    }
}

// Bench JSON records: the full E2-shaped record array (per-scenario metrics
// + histogram percentiles) must render byte-identically at any thread
// count. Only the top-level sweep envelope (wall_ms etc.) may differ.
TEST(SweepDeterminism, BenchJsonRecordsByteIdenticalAcrossThreads) {
    auto render = [](int threads) {
        auto trace = std::make_shared<const std::vector<workload::JobSpec>>(
            bench::mixed_trace(0.2, /*seed=*/1, /*rate_per_hour=*/6.0, sim::hours(8)));
        std::vector<ScenarioReplica> replicas;
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            core::ScenarioConfig cfg;
            cfg.kind = core::ScenarioKind::kBiStableHybrid;
            cfg.policy = core::PolicyKind::kFairShare;
            cfg.linux_nodes = 16;
            cfg.horizon = sim::hours(10);
            cfg.seed = seed;
            replicas.push_back({cfg, trace, ""});
        }
        auto out = run_scenarios(std::move(replicas), threads);
        bench::JsonReport report("sweep-test");
        for (std::size_t slot = 0; slot < out.results.size(); ++slot)
            bench::add_scenario_records(report, out.results[slot],
                                        {{"seed", std::to_string(slot + 1)}});
        report.add("wait_p50", out.mean_wait_hist.percentile(0.5), "s", {});
        report.add("wait_p95", out.mean_wait_hist.percentile(0.95), "s", {});
        report.add("wait_count", static_cast<double>(out.mean_wait_hist.count()), "count", {});
        report.set_sweep(out.stats);  // must NOT leak into render_records()
        EXPECT_NE(report.render().find("\"host\": {\"nproc\": "), std::string::npos);
        EXPECT_EQ(report.render_records().find("\"host\""), std::string::npos);
        return report.render_records();
    };
    const std::string serial = render(1);
    const std::string pooled = render(4);
    EXPECT_EQ(serial, pooled);
    EXPECT_NE(serial.find("\"metric\": \"utilisation\""), std::string::npos);
    EXPECT_NE(serial.find("\"metric\": \"wait_p95\""), std::string::npos);
}

// The scenario-level view of the same contract: labels, summaries, and the
// merged histogram all match slot-for-slot.
TEST(SweepDeterminism, RunScenariosResultsMatchAcrossThreads) {
    auto sweep_once = [](int threads) {
        auto trace = std::make_shared<const std::vector<workload::JobSpec>>(
            bench::mixed_trace(0.2, /*seed=*/2, /*rate_per_hour=*/6.0, sim::hours(8)));
        std::vector<ScenarioReplica> replicas;
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            core::ScenarioConfig cfg;
            cfg.kind = seed % 2 == 1 ? core::ScenarioKind::kBiStableHybrid
                                     : core::ScenarioKind::kMonoStable;
            cfg.linux_nodes = 16;
            cfg.horizon = sim::hours(10);
            cfg.seed = seed;
            replicas.push_back({cfg, trace, "replica-" + std::to_string(seed)});
        }
        return run_scenarios(std::move(replicas), threads);
    };
    const auto a = sweep_once(1);
    const auto b = sweep_once(4);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].label, b.results[i].label);
        EXPECT_EQ(a.results[i].summary.completed, b.results[i].summary.completed);
        EXPECT_DOUBLE_EQ(a.results[i].summary.utilisation, b.results[i].summary.utilisation);
        EXPECT_DOUBLE_EQ(a.results[i].summary.mean_wait_s, b.results[i].summary.mean_wait_s);
        EXPECT_EQ(a.results[i].summary.os_switches, b.results[i].summary.os_switches);
    }
    EXPECT_EQ(a.mean_wait_hist.count(), b.mean_wait_hist.count());
    EXPECT_DOUBLE_EQ(a.mean_wait_hist.percentile(0.5), b.mean_wait_hist.percentile(0.5));
    EXPECT_DOUBLE_EQ(a.mean_wait_hist.mean(), b.mean_wait_hist.mean());
}

// ---- forked-vs-cold goldens ------------------------------------------------

// The warm-start guarantee: a campaign run through run_forked_scenarios()
// (shared prefix, snapshot, fan-out) renders byte-identically to cold runs
// that apply the same divergence at the same sim time — at any thread count.

std::string campaign_record_bytes(const std::vector<core::ScenarioResult>& results) {
    bench::JsonReport report("fork-golden");
    for (std::size_t slot = 0; slot < results.size(); ++slot)
        bench::add_scenario_records(report, results[slot],
                                    {{"slot", std::to_string(slot)}});
    return report.render_records();
}

/// Cold reference: a fresh world per variant, same divergence at fork_at,
/// no snapshot anywhere near it.
std::string cold_campaign_bytes(const ForkCampaign& campaign) {
    std::vector<core::ScenarioResult> results;
    for (std::size_t slot = 0; slot < campaign.variants.size(); ++slot) {
        core::ScenarioWorld world(campaign.base, *campaign.trace);
        world.run_until(campaign.fork_at);
        campaign.variants[slot](world);
        world.run_until(world.horizon_end());
        core::ScenarioResult result = world.finish();
        if (!campaign.labels.empty() && !campaign.labels[slot].empty())
            result.label = campaign.labels[slot];
        results.push_back(std::move(result));
    }
    return campaign_record_bytes(results);
}

void expect_forked_matches_cold(const ForkCampaign& campaign, const char* what) {
    const std::string cold = cold_campaign_bytes(campaign);
    for (const int threads : {1, 4, 8}) {
        ForkStats fs;
        const auto out = run_forked_scenarios(campaign, threads, &fs);
        EXPECT_EQ(campaign_record_bytes(out.results), cold)
            << what << " diverged from cold at --threads " << threads;
        EXPECT_EQ(fs.forks, campaign.variants.size()) << what;
        EXPECT_GE(fs.prefixes, 1) << what;
        EXPECT_GT(fs.snapshot_bytes, 0u) << what;
        EXPECT_DOUBLE_EQ(fs.prefix_sim_s, campaign.fork_at.seconds()) << what;
    }
}

// E2-shaped: the scenario-comparison workload, including an identity variant
// (pure snapshot round-trip) next to real divergences.
TEST(ForkedVsCold, E2ShapedCampaignByteIdentical) {
    ForkCampaign campaign;
    campaign.base.kind = core::ScenarioKind::kBiStableHybrid;
    campaign.base.policy = core::PolicyKind::kFairShare;
    campaign.base.linux_nodes = 12;
    campaign.base.horizon = sim::hours(6);
    campaign.base.message_drop_probability = 0.05;
    campaign.base.boot_hang_probability = 0.02;
    campaign.base.seed = 21;
    campaign.trace = std::make_shared<const std::vector<workload::JobSpec>>(
        bench::mixed_trace(0.25, /*seed=*/21, /*rate_per_hour=*/8.0, sim::hours(5)));
    campaign.fork_at = sim::TimePoint{} + sim::hours(4);
    campaign.variants.push_back([](core::ScenarioWorld&) {});  // identity
    for (const auto policy : {core::PolicyKind::kFcfs, core::PolicyKind::kThreshold}) {
        campaign.variants.push_back(
            [policy](core::ScenarioWorld& w) { w.hybrid().set_policy(policy); });
    }
    expect_forked_matches_cold(campaign, "E2-shaped campaign");
}

// E5-shaped: robustness campaign — suffixes diverge by arming different
// fault plans at injection time, recovery machinery running.
TEST(ForkedVsCold, E5ShapedFaultCampaignByteIdentical) {
    ForkCampaign campaign;
    campaign.base.kind = core::ScenarioKind::kBiStableHybrid;
    campaign.base.linux_nodes = 12;
    campaign.base.horizon = sim::hours(6);
    campaign.base.recovery.enabled = true;
    campaign.base.seed = 23;
    campaign.trace = std::make_shared<const std::vector<workload::JobSpec>>(
        bench::mixed_trace(0.3, /*seed=*/23, /*rate_per_hour=*/8.0, sim::hours(5)));
    campaign.fork_at = sim::TimePoint{} + sim::hours(2);
    for (std::uint64_t fault_seed = 301; fault_seed <= 304; ++fault_seed) {
        campaign.variants.push_back([fault_seed](core::ScenarioWorld& w) {
            fault::RandomPlanOptions opts;
            opts.horizon = sim::hours(3);
            w.hybrid().arm_faults(fault::make_random_plan(opts, fault_seed), fault_seed);
        });
        campaign.labels.push_back("faults-" + std::to_string(fault_seed));
    }
    expect_forked_matches_cold(campaign, "E5-shaped fault campaign");
}

// E7-shaped: policy ablation — one prefix, every policy as a suffix.
TEST(ForkedVsCold, E7ShapedPolicyAblationByteIdentical) {
    ForkCampaign campaign;
    campaign.base.kind = core::ScenarioKind::kBiStableHybrid;
    campaign.base.policy = core::PolicyKind::kFcfs;
    campaign.base.linux_nodes = 12;
    campaign.base.horizon = sim::hours(6);
    campaign.base.seed = 29;
    campaign.trace = std::make_shared<const std::vector<workload::JobSpec>>(
        bench::mixed_trace(0.3, /*seed=*/29, /*rate_per_hour=*/8.0, sim::hours(5)));
    campaign.fork_at = sim::TimePoint{} + sim::hours(4);
    for (const auto policy :
         {core::PolicyKind::kFcfs, core::PolicyKind::kThreshold,
          core::PolicyKind::kFairShare, core::PolicyKind::kPredictive}) {
        campaign.variants.push_back(
            [policy](core::ScenarioWorld& w) { w.hybrid().set_policy(policy); });
        campaign.labels.push_back(std::string("ablation/") + core::policy_kind_name(policy));
    }
    expect_forked_matches_cold(campaign, "E7-shaped policy ablation");
}

// The fork envelope rides the report top level only — records (the
// comparison surface) must not change when set_fork is attached.
TEST(ForkedVsCold, ForkStatsStayOutOfRecordBytes) {
    bench::JsonReport report("fork-envelope");
    report.add("m", 1.0, "count", {});
    const std::string before = report.render_records();
    ForkStats fs;
    fs.prefixes = 2;
    fs.forks = 8;
    fs.snapshot_bytes = 4096;
    report.set_fork(fs);
    EXPECT_EQ(report.render_records(), before);
    EXPECT_NE(report.render().find("\"forks\": 8"), std::string::npos);
    EXPECT_NE(report.render().find("\"snapshot_bytes\": 4096"), std::string::npos);
}

}  // namespace
}  // namespace hc::sweep
