// Seeded oracles for the two heads' job tables.
//
// PBS: random submit / qdel / qhold / qrls / completion streams run against
// a small PbsServer with consistency checks on, at completed_retention 0, 1,
// 7 or 64 (by seed). A std::map model keyed by seq follows the same stream:
// it learns each job's state from the lifecycle events and from the
// qhold/qrls results, and applies retention itself. After every operation:
//  * find_job of every unpurged id must be the model's record (same id, seq
//    and state), and of purged ids (those just below the oldest record and
//    a random sample of older ones) nullptr;
//  * find_job of ids the table never holds must be nullptr: ids at or above
//    the next seq, ids with a wrong or missing suffix, non-canonical and
//    out-of-range numbers;
//  * all_jobs, running_jobs and queued_jobs must list the model's records
//    in seq order;
//  * qdel/qhold/qrls must succeed exactly when the model's state allows it.
//
// WinHPC: random submit / cancel / node-loss / completion streams (node- and
// core-unit jobs, task jobs, runtime limits, rerunnable victims that
// requeue) run against a small HpcScheduler the same way. The model learns
// terminal states from on_job_terminal and applies retention itself. After
// every operation get_job of live, purged and never-issued ids, get_jobs,
// the queued + running counts, and the table window saved by save_state
// must agree with it, and cancel_job must succeed exactly for live jobs.
// Every tenth operation restores a snapshot of the world just taken, so
// the table and the queue are also checked as rebuilt from a SavedState.
//
// The quick shards run in tier-1; HC_FUZZ_SEEDS=<count> runs the long
// shards (`HC_FUZZ_SEEDS=500 ctest -L fuzz`).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "pbs/server.hpp"
#include "util/rng.hpp"
#include "winhpc/scheduler.hpp"

namespace hc::pbs {
namespace {

constexpr std::size_t kRetentions[] = {0, 1, 7, 64};
constexpr int kOpsPerSeed = 300;

struct Model {
    std::map<std::uint64_t, JobState> states;  ///< unpurged records by seq
    std::deque<std::uint64_t> completed;       ///< completion order
    std::uint64_t purged = 0;
};

/// What a shard reached, so the quick shard can show it exercised the table.
struct ShardCounts {
    std::uint64_t probes = 0;  ///< find_job calls checked
    std::uint64_t holds = 0;   ///< successful qhold calls
    std::uint64_t purged = 0;  ///< records dropped by retention
};

/// One seed at one retention, added to `counts`.
void run_seed(std::uint64_t seed, std::size_t retention, ShardCounts& counts) {
    sim::Engine engine;
    cluster::ClusterConfig ccfg;
    ccfg.node_count = 3;
    ccfg.cores_per_node = 4;
    ccfg.timing.jitter = 0;
    ccfg.seed = seed;
    cluster::Cluster cluster(engine, ccfg);
    PbsServerConfig cfg;
    cfg.completed_retention = retention;
    cfg.strict_fifo = seed % 2 == 0;
    PbsServer server(engine, cfg);
    server.enable_consistency_checks(true);
    for (auto* node : cluster.nodes()) {
        node->set_boot_resolver([](const cluster::Node&) {
            cluster::BootDecision d;
            d.os = cluster::OsType::kLinux;
            return d;
        });
        server.attach_node(*node);
        node->power_on();
    }
    engine.run_all();

    Model model;
    server.on_job_event([&](PbsServer::JobEvent ev, const Job& job) {
        switch (ev) {
            case PbsServer::JobEvent::kQueued:
            case PbsServer::JobEvent::kRequeued: model.states[job.seq] = JobState::kQueued; break;
            case PbsServer::JobEvent::kStarted: model.states[job.seq] = JobState::kRunning; break;
            case PbsServer::JobEvent::kEnded:
            case PbsServer::JobEvent::kDeleted:
            case PbsServer::JobEvent::kAborted:
                model.states[job.seq] = JobState::kCompleted;
                model.completed.push_back(job.seq);
                while (retention > 0 && model.completed.size() > retention) {
                    model.states.erase(model.completed.front());
                    model.completed.pop_front();
                    ++model.purged;
                }
                break;
        }
    });

    util::Rng rng(seed);
    std::vector<std::string> issued;  ///< every id ever returned by submit
    const std::string suffix = "." + cfg.server_name;

    auto expect_listing = [&](const std::vector<const Job*>& got, auto keep,
                              const char* what) {
        std::vector<std::uint64_t> want;
        for (const auto& [seq, state] : model.states)
            if (keep(state)) want.push_back(seq);
        std::vector<std::uint64_t> have;
        for (const Job* job : got) have.push_back(job->seq);
        EXPECT_EQ(have, want) << what << ", seed " << seed << ", retention " << retention;
    };

    auto check = [&] {
        // Every unpurged record, by the id submit returned.
        for (const auto& [seq, state] : model.states) {
            const std::string& id = issued[seq - cfg.first_job_seq];
            const Job* job = server.find_job(id);
            ++counts.probes;
            ASSERT_NE(job, nullptr) << id << " lost, seed " << seed;
            ASSERT_EQ(job->id, id);
            ASSERT_EQ(job->seq, seq);
            ASSERT_EQ(job->state, state) << id << ", seed " << seed;
        }
        // Purged ids: the few just below the oldest record (where the
        // table's base sits) and a few older ones.
        const std::size_t oldest = model.states.empty()
                                       ? issued.size()
                                       : model.states.begin()->first - cfg.first_job_seq;
        std::vector<std::size_t> purged;
        for (std::size_t i = oldest >= 4 ? oldest - 4 : 0; i < oldest; ++i) purged.push_back(i);
        for (int i = 0; i < 4 && oldest > 0; ++i)
            purged.push_back(static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(oldest) - 1)));
        for (const std::size_t i : purged) {
            ++counts.probes;
            ASSERT_EQ(server.find_job(issued[i]), nullptr)
                << "purged " << issued[i] << " still found, seed " << seed;
        }
        // Ids the table never holds.
        const std::uint64_t next = issued.empty() ? cfg.first_job_seq
                                                  : std::stoull(issued.back()) + 1;
        const std::string newest = issued.empty() ? std::to_string(next) : issued.back();
        const std::string numeric = newest.substr(0, newest.find('.'));
        const std::vector<std::string> strangers = {
            std::to_string(next) + suffix,
            std::to_string(next + 1 + rng.uniform_int(0, 1000)) + suffix,
            std::to_string(cfg.first_job_seq - 1) + suffix,
            "0" + suffix,
            numeric,
            numeric + ".other.example.org",
            numeric + suffix.substr(0, suffix.size() - 1),
            numeric + suffix + ".",
            "0" + numeric + suffix,
            "-" + numeric + suffix,
            "18446744073709551615" + suffix,
            "18446744073709551616" + suffix,
            "",
            suffix,
        };
        for (const std::string& id : strangers) {
            ++counts.probes;
            ASSERT_EQ(server.find_job(id), nullptr) << "'" << id << "', seed " << seed;
        }
        expect_listing(server.all_jobs(), [](JobState) { return true; }, "all_jobs");
        expect_listing(
            server.running_jobs(),
            [](JobState s) { return s == JobState::kRunning || s == JobState::kExiting; },
            "running_jobs");
        expect_listing(server.queued_jobs(), [](JobState s) { return s == JobState::kQueued; },
                       "queued_jobs");
        EXPECT_EQ(server.stats().purged, model.purged);
    };

    auto pick = [&]() -> std::string {
        return issued[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(issued.size()) - 1))];
    };
    auto state_of = [&](const std::string& id) -> const JobState* {
        const auto it = model.states.find(std::stoull(id));
        return it == model.states.end() ? nullptr : &it->second;
    };

    for (int op = 0; op < kOpsPerSeed; ++op) {
        const auto action = rng.uniform_int(0, 99);
        if (action < 40 || issued.empty()) {
            JobScript script;
            script.resources.ppn = static_cast<int>(rng.uniform_int(1, 4));
            script.resources.nodes = static_cast<int>(rng.uniform_int(1, 2));
            if (rng.chance(0.2)) script.resources.walltime = sim::seconds(rng.uniform(30, 300));
            JobBehavior behavior;
            behavior.run_time = sim::seconds(rng.uniform(30, 900));
            auto id = server.submit(script, rng.chance(0.5) ? "fuzz" : "fuzz@elsewhere.org",
                                    std::move(behavior));
            EXPECT_TRUE(id.ok()) << id.error_message();
            issued.push_back(id.value());
        } else if (action < 52) {
            const std::string id = pick();
            const JobState* s = state_of(id);
            const bool allowed = s != nullptr && *s != JobState::kCompleted;
            EXPECT_EQ(server.qdel(id).ok(), allowed) << "qdel " << id << ", seed " << seed;
        } else if (action < 64) {
            const std::string id = pick();
            const JobState* s = state_of(id);
            const bool allowed = s != nullptr && *s == JobState::kQueued;
            EXPECT_EQ(server.qhold(id).ok(), allowed) << "qhold " << id << ", seed " << seed;
            if (allowed) {
                model.states[std::stoull(id)] = JobState::kHeld;
                ++counts.holds;
            }
        } else if (action < 76) {
            const std::string id = pick();
            const JobState* s = state_of(id);
            const bool allowed = s != nullptr && *s == JobState::kHeld;
            if (allowed) model.states[std::stoull(id)] = JobState::kQueued;  // before it may start
            EXPECT_EQ(server.qrls(id).ok(), allowed) << "qrls " << id << ", seed " << seed;
        } else {
            engine.run_for(sim::seconds(rng.uniform(0, 600)));  // completions
        }
        check();
        if (::testing::Test::HasFailure()) break;
    }
    counts.purged += model.purged;
}

/// Seed s runs at retention kRetentions[s % 4], so every four consecutive
/// seeds cover all four.
ShardCounts run_shard(std::uint64_t first_seed, std::uint64_t seeds) {
    ShardCounts counts;
    for (std::uint64_t seed = first_seed; seed < first_seed + seeds; ++seed) {
        run_seed(seed, kRetentions[seed % std::size(kRetentions)], counts);
        if (::testing::Test::HasFailure()) break;
    }
    return counts;
}

TEST(JobTableFuzz, QuickShard) {
    const ShardCounts counts = run_shard(/*first_seed=*/1, /*seeds=*/40);
    EXPECT_GT(counts.probes, 300'000u);
    EXPECT_GT(counts.holds, 75u);
    EXPECT_GT(counts.purged, 1'200u);
}

// The long shard: HC_FUZZ_SEEDS=500 ctest -L fuzz  (nightly, sanitized).
TEST(JobTableFuzz, LongShard) {
    const char* env = std::getenv("HC_FUZZ_SEEDS");
    if (env == nullptr) GTEST_SKIP() << "set HC_FUZZ_SEEDS=<count> to run the long shard";
    const auto seeds = std::strtoull(env, nullptr, 10);
    ASSERT_GT(seeds, 0u) << "HC_FUZZ_SEEDS must be a positive integer";
    (void)run_shard(/*first_seed=*/1000, seeds);
}

}  // namespace
}  // namespace hc::pbs

// ---------------------------------------------------------------- WinHPC --

namespace hc::winhpc {
namespace {

constexpr std::size_t kWinRetentions[] = {0, 1, 7, 64};
constexpr int kWinOpsPerSeed = 300;

/// A job's state as the model knows it: "live" (queued or running; the
/// scheduler reports no start or requeue events) or its terminal state.
struct WinModel {
    std::map<int, std::optional<HpcJobState>> states;  ///< unpurged records by id
    std::deque<int> finished;                          ///< terminal order
    std::uint64_t purged = 0;
};

struct WinShardCounts {
    std::uint64_t probes = 0;              ///< get_job calls checked
    std::uint64_t requeued = 0;            ///< node-loss requeues
    std::uint64_t purged = 0;              ///< records dropped by retention
    std::uint64_t round_trips_queued = 0;  ///< snapshot restores with > 1 job queued
};

void run_win_seed(std::uint64_t seed, std::size_t retention, WinShardCounts& counts) {
    sim::Engine engine;
    engine.logger().set_min_level(util::LogLevel::kError);
    cluster::ClusterConfig ccfg;
    ccfg.node_count = 3;
    ccfg.cores_per_node = 4;
    ccfg.timing.jitter = 0;
    ccfg.seed = seed;
    cluster::Cluster cluster(engine, ccfg);
    HpcSchedulerConfig cfg;
    cfg.completed_retention = retention;
    cfg.strict_fifo = seed % 2 == 0;
    HpcScheduler scheduler(engine, cfg);
    scheduler.enable_consistency_checks(true);
    for (auto* node : cluster.nodes()) {
        node->set_boot_resolver([](const cluster::Node&) {
            cluster::BootDecision d;
            d.os = cluster::OsType::kWindows;
            return d;
        });
        scheduler.attach_node(*node);
        node->power_on();
    }
    engine.run_all();

    WinModel model;
    scheduler.on_job_terminal([&](const HpcJob& job) {
        model.states[job.id] = job.state;
        model.finished.push_back(job.id);
        while (retention > 0 && model.finished.size() > retention) {
            model.states.erase(model.finished.front());
            model.finished.pop_front();
            ++model.purged;
        }
    });

    util::Rng rng(seed);
    int last_id = 0;  ///< newest id submit_job returned

    auto check = [&] {
        std::size_t live = 0;
        for (const auto& [id, state] : model.states) {
            const HpcJob* job = scheduler.get_job(id);
            ++counts.probes;
            ASSERT_NE(job, nullptr) << "job " << id << " lost, seed " << seed;
            ASSERT_EQ(job->id, id);
            if (state.has_value()) {
                ASSERT_EQ(job->state, *state) << "job " << id << ", seed " << seed;
            } else {
                ++live;
                ASSERT_TRUE(job->state == HpcJobState::kQueued ||
                            job->state == HpcJobState::kRunning)
                    << "job " << id << " is " << hpc_job_state_name(job->state) << ", seed "
                    << seed;
            }
        }
        // Purged ids: the few just below the oldest record (where the
        // table's base sits) and a few older ones.
        const int oldest = model.states.empty() ? last_id + 1 : model.states.begin()->first;
        std::vector<int> purged;
        for (int id = std::max(1, oldest - 4); id < oldest; ++id) purged.push_back(id);
        for (int i = 0; i < 4 && oldest > 1; ++i)
            purged.push_back(static_cast<int>(rng.uniform_int(1, oldest - 1)));
        for (const int id : purged) {
            ++counts.probes;
            ASSERT_EQ(scheduler.get_job(id), nullptr)
                << "purged " << id << " still found, seed " << seed;
        }
        // Ids never issued.
        for (const int id : {last_id + 1, last_id + 2 + static_cast<int>(rng.uniform_int(0, 1000)),
                             0, -1, -last_id, std::numeric_limits<int>::min(),
                             std::numeric_limits<int>::max()}) {
            ++counts.probes;
            ASSERT_EQ(scheduler.get_job(id), nullptr) << "id " << id << ", seed " << seed;
        }
        std::vector<int> want;
        for (const auto& [id, state] : model.states) want.push_back(id);
        std::vector<int> have;
        for (const HpcJob* job : scheduler.get_jobs()) have.push_back(job->id);
        ASSERT_EQ(have, want) << "get_jobs, seed " << seed << ", retention " << retention;
        ASSERT_EQ(static_cast<std::size_t>(scheduler.queued_job_count() +
                                           scheduler.running_job_count()),
                  live);
        // The table's window starts at the oldest record and ends past the
        // newest id: purged front slots were popped.
        const HpcScheduler::SavedState saved = scheduler.save_state();
        ASSERT_EQ(saved.table.base, static_cast<std::uint64_t>(oldest)) << "seed " << seed;
        ASSERT_EQ(saved.table.next, static_cast<std::uint64_t>(last_id) + 1);
    };

    for (int op = 0; op < kWinOpsPerSeed; ++op) {
        const auto action = rng.uniform_int(0, 99);
        if (action < 40 || last_id == 0) {
            HpcJobSpec spec;
            spec.unit = rng.chance(0.5) ? JobUnitType::kNode : JobUnitType::kCore;
            const bool node_unit = spec.unit == JobUnitType::kNode;
            spec.min_resources = static_cast<int>(rng.uniform_int(1, node_unit ? 2 : 6));
            spec.run_time = sim::seconds(rng.uniform(30, 900));
            if (rng.chance(0.2)) {
                for (std::int64_t t = rng.uniform_int(1, 4); t > 0; --t)
                    spec.tasks.push_back({"worker.exe", sim::seconds(rng.uniform(30, 300))});
            }
            if (rng.chance(0.2)) spec.runtime_limit = sim::seconds(rng.uniform(30, 600));
            spec.rerun_on_failure = rng.chance(0.5);
            const int id = scheduler.submit_job(std::move(spec));
            EXPECT_EQ(id, last_id + 1);
            last_id = id;
            model.states[id] = std::nullopt;
        } else if (action < 55) {
            const int id = static_cast<int>(rng.uniform_int(1, last_id));
            const auto it = model.states.find(id);
            const bool allowed = it != model.states.end() && !it->second.has_value();
            EXPECT_EQ(scheduler.cancel_job(id).ok(), allowed)
                << "cancel " << id << ", seed " << seed;
        } else if (action < 65) {
            // Node loss: running jobs on it requeue (rerunnable) or fail.
            cluster::Node& node = cluster.node(static_cast<int>(rng.uniform_int(0, 2)));
            if (node.is_up()) node.reboot();
        } else {
            engine.run_for(sim::seconds(rng.uniform(0, 600)));  // completions
        }
        if (op % 10 == 9) {
            // Snapshot round trip: restoring what was just saved rebuilds the
            // table from its window and relinks the queue from the saved order.
            const sim::Engine::Snapshot calendar = engine.snapshot();
            const cluster::Cluster::SavedState nodes = cluster.save_state();
            const HpcScheduler::SavedState saved = scheduler.save_state();
            engine.restore(calendar);
            cluster.restore_state(nodes);
            scheduler.restore_state(saved);
            if (scheduler.queued_job_count() > 1) ++counts.round_trips_queued;
        }
        check();
        if (::testing::Test::HasFailure()) break;
    }
    counts.requeued += scheduler.stats().requeued;
    counts.purged += model.purged;
}

WinShardCounts run_win_shard(std::uint64_t first_seed, std::uint64_t seeds) {
    WinShardCounts counts;
    for (std::uint64_t seed = first_seed; seed < first_seed + seeds; ++seed) {
        run_win_seed(seed, kWinRetentions[seed % std::size(kWinRetentions)], counts);
        if (::testing::Test::HasFailure()) break;
    }
    return counts;
}

TEST(WinHpcJobTableFuzz, QuickShard) {
    const WinShardCounts counts = run_win_shard(/*first_seed=*/1, /*seeds=*/40);
    EXPECT_GT(counts.probes, 400'000u);
    EXPECT_GT(counts.requeued, 300u);
    EXPECT_GT(counts.purged, 2'000u);
    EXPECT_GT(counts.round_trips_queued, 300u);
}

// The long shard: HC_FUZZ_SEEDS=500 ctest -L fuzz  (nightly, sanitized).
TEST(WinHpcJobTableFuzz, LongShard) {
    const char* env = std::getenv("HC_FUZZ_SEEDS");
    if (env == nullptr) GTEST_SKIP() << "set HC_FUZZ_SEEDS=<count> to run the long shard";
    const auto seeds = std::strtoull(env, nullptr, 10);
    ASSERT_GT(seeds, 0u) << "HC_FUZZ_SEEDS must be a positive integer";
    (void)run_win_shard(/*first_seed=*/1000, seeds);
}

}  // namespace
}  // namespace hc::winhpc
