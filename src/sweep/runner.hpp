// hc::sweep — parallel replica execution engine.
//
// A replica is one self-contained simulation: a `ScenarioConfig` (which
// carries its seed and optional fault plan) plus a workload trace, producing
// a `ScenarioResult`. Replicas share nothing — every one builds its own
// engine, cluster, and schedulers — so a sweep of N replicas is
// embarrassingly parallel, and a full E5 robustness campaign or a nightly
// fuzz run is bounded by cores, not by serial wall-clock.
//
// Execution model: one persistent barrier pool, `TaskPool`. Workers park
// on a condition variable between rounds; a round's indices are claimed one
// at a time from a shared atomic cursor, so a worker that finishes early
// simply claims the next slot. The caller's thread is worker 0. A sweep
// builds a pool of min(threads, replicas) workers, each with its own
// `util::Arena` that replica-scoped allocations (the engine calendar, see
// sim/engine.hpp) ride on; the arena is reset after every replica, so
// consecutive runs on a worker recycle the same warm pages and pay zero
// malloc/free on the arena'd paths.
//
// Determinism contract (pinned by tests/test_sweep.cpp):
//   * replica i's behaviour depends only on its own config — seeds are
//     forked per replica by the *caller* (seed = first_seed + slot is the
//     house pattern), never drawn from a shared stream at run time;
//   * results land in slot-indexed storage (out[i] is always replica i) and
//     all aggregation — JSON records, fuzz verdict lists,
//     `util::Histogram::merge` — walks slots in order on the caller's
//     thread after the pool has joined;
//   * therefore every output is byte-identical at --threads 1, 8, or any
//     other count. Thread count is a wall-clock knob, nothing else.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "util/arena.hpp"
#include "util/histogram.hpp"

namespace hc::sweep {

/// Per-worker state handed to every replica the worker executes. The arena
/// is reset by the runner after each replica returns.
struct WorkerContext {
    int worker = 0;
    util::Arena* arena = nullptr;
};

/// Execution envelope of one sweep, for throughput records
/// (`hc-bench-json/1` documents carry these as top-level fields).
struct SweepStats {
    std::size_t replicas = 0;
    int threads = 1;
    /// Always 0: workers claim slots from one shared cursor and never steal.
    /// Kept only for readers of the perfbench `sweep.steals` metric.
    std::uint64_t steals = 0;
    double wall_ms = 0;
    double replicas_per_sec = 0;
};

/// Resolve a requested thread count: <= 0 means one per hardware thread
/// (clamped to [1, 256]; never more threads than replicas is applied by the
/// runner itself).
[[nodiscard]] int resolve_threads(int requested);

using ReplicaFn = std::function<void(std::size_t slot, WorkerContext&)>;

/// Run `fn(slot, ctx)` for every slot in [0, count) across `threads`
/// workers. Blocks until all replicas finish. The first exception thrown by
/// a replica is rethrown here (remaining unclaimed replicas are abandoned).
SweepStats run_indexed(std::size_t count, int threads, const ReplicaFn& fn);

/// A persistent barrier pool: the one pool every parallel path runs on.
///
/// The first parallel_for spawns the workers; between rounds they stay
/// parked on a condition variable. parallel_for wakes them, indices are
/// claimed from a shared atomic cursor, and the call returns once every
/// index has run (a full barrier). That suits both a single sweep of
/// milliseconds-heavy replicas and a caller that fans out every simulated
/// epoch (FederatedGrid runs thousands of epochs, so threads are spawned
/// once, not per round).
///
/// Determinism contract: parallel_for guarantees nothing about WHICH worker
/// runs an index or in what order — callers must make fn(i) depend only on
/// i (per-worker state such as an arena may be reused, never observed).
/// With threads <= 1 no threads are ever created and fn runs inline, so the
/// --threads 1 baseline is the plain serial loop.
class TaskPool {
public:
    explicit TaskPool(int threads);
    ~TaskPool();

    TaskPool(const TaskPool&) = delete;
    TaskPool& operator=(const TaskPool&) = delete;

    [[nodiscard]] int threads() const { return threads_; }
    /// Rounds executed so far (parallel_for calls).
    [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

    /// Run fn(index, worker) for every index in [0, count); blocks until
    /// all have returned. `worker` is the claiming worker's index in
    /// [0, threads()): 0 is the caller's thread, 1..threads()-1 the parked
    /// helpers. The first exception thrown is rethrown here after the
    /// barrier (remaining unclaimed indices are abandoned on failure); the
    /// pool stays usable for further rounds.
    void parallel_for(std::size_t count,
                      const std::function<void(std::size_t index, int worker)>& fn);

private:
    struct Shared;
    void spawn_workers() noexcept;
    static void drain_round(Shared& s, int worker);
    void worker_loop(int worker);

    int threads_ = 1;
    std::uint64_t rounds_ = 0;
    std::unique_ptr<Shared> shared_;
    std::vector<std::thread> workers_;
};

/// Execution envelope of one forked (warm-started) sweep.
struct ForkStats {
    int prefixes = 0;               ///< shared prefixes executed (one per active worker)
    std::uint64_t forks = 0;        ///< suffixes launched from a restored snapshot
    std::size_t snapshot_bytes = 0; ///< max calendar-image footprint across workers
    double prefix_sim_s = 0;        ///< sim-time covered once by the shared prefix
    double suffix_sim_s = 0;        ///< sim-time re-run per suffix
};

namespace detail {

/// The pool one sweep runs on: min(resolve_threads(threads), slots) workers
/// (at least one), one arena per worker, and the sweep's wall clock, which
/// starts at construction.
struct SweepPool {
    SweepPool(std::size_t slots, int threads);

    [[nodiscard]] WorkerContext context(int worker) {
        return {worker, &arenas[static_cast<std::size_t>(worker)]};
    }
    /// The envelope of the sweep so far: replicas, workers, wall time.
    [[nodiscard]] SweepStats stats() const;

    std::size_t replicas = 0;
    std::chrono::steady_clock::time_point t0;
    std::vector<util::Arena> arenas;
    TaskPool pool;  ///< after the arenas its workers use: joined first
};

}  // namespace detail

/// Copy-on-write fan-out: run a shared prefix ONCE per worker, then deal N
/// divergent suffixes across the pool, each starting from a restored
/// snapshot of the prefix instead of a cold replay.
///
/// `prefix(ctx)` builds a world on the worker's arena and drives it to the
/// divergence point — lazily, on the worker's first claimed slot, so a
/// worker that claims nothing never runs it — returning something
/// unique_ptr-like with `->snapshot()` / `->restore(snap)`
/// (core::ScenarioWorld is the house type). `suffix(world, slot)` applies
/// slot's divergence, drives to the end, and returns that slot's result.
/// Determinism contract (pinned by the forked-vs-cold goldens): `prefix`
/// must not depend on the worker id — every worker builds the same world —
/// and `suffix` only on its slot, so results are byte-identical at any
/// thread count.
///
/// Worker lifetime: the snapshot image and the world both ride the worker
/// arena, which is NOT reset between suffixes (restore() rewinds to the
/// snapshot watermark instead, reclaiming each suffix's garbage in O(1)).
/// A second round tears the worlds down in parallel; if a round throws,
/// scope exit destroys them instead. Either way they go before the arenas.
template <class PrefixFn, class SuffixFn>
auto run_forked(std::size_t count, int threads, PrefixFn&& prefix, SuffixFn&& suffix,
                ForkStats* fork_stats = nullptr, SweepStats* stats = nullptr) {
    using WorldPtr = decltype(prefix(std::declval<WorkerContext&>()));
    using World = typename WorldPtr::element_type;
    using Snapshot = decltype(std::declval<World&>().snapshot());
    using Result = decltype(suffix(std::declval<World&>(), std::size_t{0}));

    detail::SweepPool sp(count, threads);
    struct Session {
        WorldPtr world{};
        std::unique_ptr<Snapshot> snap;
        std::uint64_t forks = 0;
        std::size_t snapshot_bytes = 0;
    };
    // Declared after `sp`: the worlds die before the arenas they live on.
    std::vector<Session> sessions(sp.arenas.size());
    std::vector<Result> out(count);
    sp.pool.parallel_for(count, [&](std::size_t slot, int worker) {
        Session& s = sessions[static_cast<std::size_t>(worker)];
        if (s.snap == nullptr) {
            WorkerContext ctx = sp.context(worker);
            s.world = prefix(ctx);
            // The image is allocated below the arena watermark recorded
            // inside snapshot(), so every later restore() rewind preserves it.
            s.snap = std::make_unique<Snapshot>(s.world->snapshot());
            s.snapshot_bytes = s.snap->bytes();
        }
        s.world->restore(*s.snap);
        ++s.forks;
        out[slot] = suffix(*s.world, slot);
    });
    ForkStats fs;
    for (const Session& s : sessions) {
        if (s.snap != nullptr) ++fs.prefixes;
        fs.forks += s.forks;
        if (s.snapshot_bytes > fs.snapshot_bytes) fs.snapshot_bytes = s.snapshot_bytes;
    }
    // Each world is a whole simulated cluster: tear them down as one more
    // round, in parallel, rather than one after another on the caller.
    sp.pool.parallel_for(sessions.size(), [&](std::size_t w, int) {
        sessions[w].snap.reset();
        sessions[w].world = WorldPtr{};
    });
    if (stats != nullptr) *stats = sp.stats();
    if (fork_stats != nullptr) *fork_stats = fs;
    return out;
}

/// Typed fan-out: collect `fn`'s return values into a slot-indexed vector.
/// Result must be default-constructible and movable.
template <class Result, class Fn>
std::vector<Result> map_indexed(std::size_t count, int threads, Fn&& fn,
                                SweepStats* stats = nullptr) {
    std::vector<Result> out(count);
    SweepStats s = run_indexed(
        count, threads,
        [&](std::size_t slot, WorkerContext& ctx) { out[slot] = fn(slot, ctx); });
    if (stats != nullptr) *stats = s;
    return out;
}

// ---- scenario replicas -----------------------------------------------------

/// One scheduled simulation. The trace is shared (read-only) so a sweep of
/// 100 seeds over the same workload carries one copy, not 100.
struct ScenarioReplica {
    core::ScenarioConfig config;
    std::shared_ptr<const std::vector<workload::JobSpec>> trace;
    std::string label;  ///< optional override of the result's label
};

[[nodiscard]] ScenarioReplica make_replica(core::ScenarioConfig config,
                                           std::vector<workload::JobSpec> trace,
                                           std::string label = "");

/// Bucketing of the cross-replica wait histogram: mean waits land well
/// inside [0, 4h) for every scenario in the repo; the edge buckets clamp
/// the rest.
inline constexpr double kWaitHistMaxS = 4 * 3600.0;
inline constexpr int kWaitHistBuckets = 48;

struct ScenarioSweepResult {
    std::vector<core::ScenarioResult> results;  ///< slot-indexed, replica order
    SweepStats stats;
    /// Per-replica mean waits (seconds), merged in slot order via
    /// Histogram::merge — replicas that completed no jobs contribute an
    /// empty histogram (a no-op on the merged percentiles).
    util::Histogram mean_wait_hist{0, kWaitHistMaxS, kWaitHistBuckets};
};

/// Run every replica through the pool. Each replica's engine rides the
/// worker's arena; results and the merged histogram are deterministic for
/// any thread count.
[[nodiscard]] ScenarioSweepResult run_scenarios(std::vector<ScenarioReplica> replicas,
                                                int threads);

// ---- forked scenario campaigns ---------------------------------------------

/// A campaign that shares one simulated prefix: the base scenario runs cold
/// to `fork_at`, is snapshotted, and each variant's divergence closure is
/// applied to a restored copy before running out to the base horizon.
/// Variant closures must be deterministic functions of their slot (the
/// house pattern captures only values) — they run once per suffix, on
/// whichever worker claimed the slot.
struct ForkCampaign {
    core::ScenarioConfig base;
    std::shared_ptr<const std::vector<workload::JobSpec>> trace;
    sim::TimePoint fork_at{};  ///< absolute sim time of the divergence point
    std::vector<std::function<void(core::ScenarioWorld&)>> variants;
    std::vector<std::string> labels;  ///< optional, parallel to variants
};

/// Run a ForkCampaign through run_forked(): the prefix executes once per
/// worker, every variant suffix starts from the snapshot. Results are
/// slot-indexed by variant and byte-identical to cold runs that apply the
/// same divergence at the same sim time.
[[nodiscard]] ScenarioSweepResult run_forked_scenarios(const ForkCampaign& campaign,
                                                       int threads,
                                                       ForkStats* fork_stats = nullptr);

}  // namespace hc::sweep
