#include "sweep/runner.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "util/errors.hpp"

namespace hc::sweep {

namespace {

using Clock = std::chrono::steady_clock;

/// Workers a sweep of `count` slots runs on: never more than the slots, at
/// least one.
int sweep_workers(std::size_t count, int threads) {
    const int n = resolve_threads(threads);
    if (count == 0) return 1;
    return static_cast<std::size_t>(n) > count ? static_cast<int>(count) : n;
}

}  // namespace

int resolve_threads(int requested) {
    if (requested > 0) return requested < 256 ? requested : 256;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw < 256 ? hw : 256);
}

struct TaskPool::Shared {
    std::mutex m;
    std::condition_variable start;
    std::condition_variable done;
    std::uint64_t round = 0;           ///< bumped per parallel_for; workers wake on change
    std::size_t count = 0;             ///< indices in the current round
    const std::function<void(std::size_t, int)>* fn = nullptr;
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> failed{false};
    int active = 0;                    ///< helper workers still inside the round
    bool stop = false;
    std::exception_ptr first_error;
};

TaskPool::TaskPool(int threads) : threads_(resolve_threads(threads)) {
    if (threads_ > 1) shared_ = std::make_unique<Shared>();
}

TaskPool::~TaskPool() {
    if (shared_ != nullptr) {
        {
            std::lock_guard<std::mutex> lock(shared_->m);
            shared_->stop = true;
        }
        shared_->start.notify_all();
        for (std::thread& t : workers_) t.join();
    }
}

/// Helpers are spawned by the first round, after it is posted: a new thread
/// starts on an idle core, while a parked one woken by the caller tends to
/// start on the caller's core and wait to be migrated, which delays the
/// round (in a forked sweep, every prefix runs in it). noexcept: the posted round counts every helper, so one
/// that cannot be started ends the program.
void TaskPool::spawn_workers() noexcept {
    workers_.reserve(static_cast<std::size_t>(threads_) - 1);
    for (int w = 1; w < threads_; ++w) workers_.emplace_back([this, w] { worker_loop(w); });
}

/// Claim-and-run loop shared by the caller and the parked workers: indices
/// come off one atomic cursor; a thrown exception flips `failed`, which
/// abandons everything still unclaimed.
void TaskPool::drain_round(Shared& s, int worker) {
    for (;;) {
        if (s.failed.load(std::memory_order_relaxed)) return;
        const std::size_t index = s.cursor.fetch_add(1, std::memory_order_relaxed);
        if (index >= s.count) return;
        try {
            (*s.fn)(index, worker);
        } catch (...) {
            std::lock_guard<std::mutex> lock(s.m);
            if (s.first_error == nullptr) s.first_error = std::current_exception();
            s.failed.store(true, std::memory_order_relaxed);
        }
    }
}

void TaskPool::worker_loop(int worker) {
    Shared& s = *shared_;
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(s.m);
            s.start.wait(lock, [&] { return s.stop || s.round != seen; });
            if (s.stop) return;
            seen = s.round;
        }
        drain_round(s, worker);
        {
            std::lock_guard<std::mutex> lock(s.m);
            if (--s.active == 0) s.done.notify_all();
        }
    }
}

void TaskPool::parallel_for(std::size_t count,
                            const std::function<void(std::size_t, int)>& fn) {
    util::require(static_cast<bool>(fn), "TaskPool::parallel_for: null function");
    ++rounds_;
    if (shared_ == nullptr) {
        // Serial pool: plain inline loop, no synchronisation at all.
        for (std::size_t i = 0; i < count; ++i) fn(i, 0);
        return;
    }
    Shared& s = *shared_;
    {
        std::lock_guard<std::mutex> lock(s.m);
        s.count = count;
        s.fn = &fn;
        s.cursor.store(0, std::memory_order_relaxed);
        s.failed.store(false, std::memory_order_relaxed);
        s.first_error = nullptr;
        s.active = threads_ - 1;
        ++s.round;
    }
    if (workers_.empty()) {
        spawn_workers();
    } else {
        s.start.notify_all();
    }
    drain_round(s, 0);  // the caller's thread participates as worker 0
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(s.m);
        s.done.wait(lock, [&] { return s.active == 0; });
        s.fn = nullptr;
        error = s.first_error;
        s.first_error = nullptr;
    }
    if (error != nullptr) std::rethrow_exception(error);
}

namespace detail {

SweepPool::SweepPool(std::size_t slots, int threads)
    : replicas(slots),
      t0(Clock::now()),
      arenas(static_cast<std::size_t>(sweep_workers(slots, threads))),
      pool(static_cast<int>(arenas.size())) {}

SweepStats SweepPool::stats() const {
    SweepStats stats;
    stats.replicas = replicas;
    stats.threads = pool.threads();
    const double wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    stats.wall_ms = wall_s * 1e3;
    stats.replicas_per_sec = wall_s > 0 ? static_cast<double>(replicas) / wall_s : 0.0;
    return stats;
}

}  // namespace detail

SweepStats run_indexed(std::size_t count, int threads, const ReplicaFn& fn) {
    util::require(static_cast<bool>(fn), "sweep::run_indexed: null replica function");
    detail::SweepPool sp(count, threads);
    sp.pool.parallel_for(count, [&](std::size_t slot, int worker) {
        WorkerContext ctx = sp.context(worker);
        fn(slot, ctx);
        ctx.arena->reset();
    });
    return sp.stats();
}

ScenarioReplica make_replica(core::ScenarioConfig config,
                             std::vector<workload::JobSpec> trace, std::string label) {
    ScenarioReplica replica;
    replica.config = config;
    replica.trace =
        std::make_shared<const std::vector<workload::JobSpec>>(std::move(trace));
    replica.label = std::move(label);
    return replica;
}

ScenarioSweepResult run_scenarios(std::vector<ScenarioReplica> replicas, int threads) {
    ScenarioSweepResult out;
    out.results.resize(replicas.size());
    static const std::vector<workload::JobSpec> kEmptyTrace;
    out.stats = run_indexed(
        replicas.size(), threads, [&](std::size_t slot, WorkerContext& ctx) {
            const ScenarioReplica& replica = replicas[slot];
            core::ScenarioConfig config = replica.config;
            config.arena = ctx.arena;
            const auto& trace = replica.trace != nullptr ? *replica.trace : kEmptyTrace;
            core::ScenarioResult result = core::run_scenario(config, trace);
            if (!replica.label.empty()) result.label = replica.label;
            out.results[slot] = std::move(result);
        });
    // Slot-ordered aggregation on the caller's thread: the merged histogram
    // is the same object for any thread count.
    for (const core::ScenarioResult& result : out.results) {
        util::Histogram h(0, kWaitHistMaxS, kWaitHistBuckets);
        if (result.summary.completed > 0) h.add(result.summary.mean_wait_s);
        out.mean_wait_hist.merge(h);
    }
    return out;
}

ScenarioSweepResult run_forked_scenarios(const ForkCampaign& campaign, int threads,
                                         ForkStats* fork_stats) {
    util::require(campaign.labels.empty() ||
                      campaign.labels.size() == campaign.variants.size(),
                  "run_forked_scenarios: labels must be empty or match variants");
    static const std::vector<workload::JobSpec> kEmptyTrace;
    ScenarioSweepResult out;
    ForkStats fs;
    out.results = run_forked(
        campaign.variants.size(), threads,
        [&](WorkerContext& ctx) {
            core::ScenarioConfig config = campaign.base;
            config.arena = ctx.arena;
            const auto& trace =
                campaign.trace != nullptr ? *campaign.trace : kEmptyTrace;
            auto world = std::make_unique<core::ScenarioWorld>(config, trace);
            world->run_until(campaign.fork_at);
            return world;
        },
        [&](core::ScenarioWorld& world, std::size_t slot) {
            campaign.variants[slot](world);
            world.run_until(world.horizon_end());
            core::ScenarioResult result = world.finish();
            if (!campaign.labels.empty() && !campaign.labels[slot].empty())
                result.label = campaign.labels[slot];
            return result;
        },
        &fs, &out.stats);
    fs.prefix_sim_s = campaign.fork_at.seconds();
    fs.suffix_sim_s = (sim::TimePoint{} + campaign.base.horizon - campaign.fork_at).seconds();
    if (fork_stats != nullptr) *fork_stats = fs;
    for (const core::ScenarioResult& result : out.results) {
        util::Histogram h(0, kWaitHistMaxS, kWaitHistBuckets);
        if (result.summary.completed > 0) h.add(result.summary.mean_wait_s);
        out.mean_wait_hist.merge(h);
    }
    return out;
}

}  // namespace hc::sweep
