// Heap-allocation budgets of the PBS and WinHPC job lifecycles, of a steady
// PBS detector poll and of the first-boot settle of a hybrid cluster.
//
// This binary replaces the global operator new with a counting one, so it
// can pin how many allocations one job costs a warm server: submit, start
// on a free node, finish at its run time, purge by retention, and (on PBS)
// the detector-style refresh of the qstat -f document in between. A record that
// starts copying a constant again (the server name, the Variable_List, a
// hostname per CPU), a placement that allocates per job or per pass, or a
// poll that allocates more to report an unchanged queue shows up here as a
// count over the budget.
//
// Sanitizer runtimes bring their own allocator and count differently, so
// the budget test skips under ASan/TSan (as the arena poisoning tests gate
// on ASan), and the replacement operator is compiled out there.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "cluster/cluster.hpp"
#include "core/detector.hpp"
#include "core/hybrid.hpp"
#include "pbs/server.hpp"
#include "winhpc/scheduler.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HC_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HC_TEST_SANITIZED 1
#endif
#endif

#ifndef HC_TEST_SANITIZED
namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
// Kept out of line: GCC stops inlining the counting operator new above, and
// would then see a free() inlined against a call to operator new and flag it
// as a mismatched pair.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace hc {
namespace {

/// Boots `nodes` nodes into `os` and attaches each to `head`.
template <typename Head>
void boot_nodes(sim::Engine& engine, cluster::Cluster& cluster, Head& head, cluster::OsType os) {
    for (auto* node : cluster.nodes()) {
        node->set_boot_resolver([os](const cluster::Node&) {
            cluster::BootDecision d;
            d.os = os;
            return d;
        });
        head.attach_node(*node);
        node->power_on();
    }
    engine.run_all();
}

/// Allocations per job in the steady PBS lifecycle below, measured at 4.03:
/// the record, its id and owner strings and the id returned to the caller.
/// The placement costs nothing: a single-node job keeps its one record
/// inline and its CPUs live in the server's owner array. The deque blocks of
/// the job table and the retention queue add about one per 64 jobs each
/// (the 0.03); the budget allows twice that.
constexpr double kBudgetPerJob = 4 + 2.0 / 32;

#ifndef HC_TEST_SANITIZED
/// Runs the steady PBS lifecycle (submit, start on a free node, finish at
/// its run time, purge by retention, and the detector-style refresh of the
/// qstat -f document in between) and returns the allocations per job.
/// With `read_id` the loop also reads the returned id through
/// Result::value(), which must not allocate on success.
double pbs_allocations_per_job(bool read_id) {
    sim::Engine engine;
    cluster::ClusterConfig ccfg;
    ccfg.node_count = 4;
    ccfg.timing.jitter = 0;
    cluster::Cluster cluster(engine, ccfg);
    pbs::PbsServerConfig cfg;
    cfg.completed_retention = 16;
    pbs::PbsServer server(engine, cfg);
    boot_nodes(engine, cluster, server, cluster::OsType::kLinux);

    // The job under test, taken from the lifecycle events so that the loop
    // itself touches nothing but the server.
    const pbs::Job* job = nullptr;
    server.on_job_event([&job](pbs::PbsServer::JobEvent ev, const pbs::Job& j) {
        if (ev == pbs::PbsServer::JobEvent::kQueued) job = &j;
    });
    pbs::JobScript script;
    script.name = "steady";
    script.resources.nodes = 1;
    script.resources.ppn = 2;
    std::size_t id_bytes = 0;
    auto one_job = [&] {
        pbs::JobBehavior behavior;
        behavior.run_time = sim::seconds(60);
        auto id = server.submit(script, "sliang", std::move(behavior));
        ASSERT_TRUE(id.ok()) << id.error_message();
        if (read_id) id_bytes += id.value().size();
        ASSERT_EQ(job->state, pbs::JobState::kRunning);
        (void)server.qstat_f_document();  // the detector's poll
        engine.run_for(sim::seconds(60));
        ASSERT_EQ(job->state, pbs::JobState::kCompleted);
        (void)server.qstat_f_document();
    };
    // Warm up: the retention window fills and every container reaches its
    // steady capacity.
    for (int i = 0; i < 256; ++i) {
        one_job();
        if (::testing::Test::HasFatalFailure()) return -1;
    }

    constexpr std::uint64_t kJobs = 1024;
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < kJobs; ++i) {
        one_job();
        if (::testing::Test::HasFatalFailure()) return -1;
    }
    const std::uint64_t used = g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(server.stats().purged, 256 + kJobs - cfg.completed_retention);
    if (read_id) {
        EXPECT_GT(id_bytes, 0u);
    }
    return static_cast<double>(used) / kJobs;
}
#endif

TEST(AllocBudget, SteadySingleNodeJobLifecycle) {
#ifdef HC_TEST_SANITIZED
    GTEST_SKIP() << "allocation counts are not meaningful under a sanitizer runtime";
#else
    const double per_job = pbs_allocations_per_job(/*read_id=*/false);
    EXPECT_LE(per_job, kBudgetPerJob)
        << "the job lifecycle allocated " << per_job << " times per job, budget "
        << kBudgetPerJob;
#endif
}

TEST(AllocBudget, ResultValueOnSuccessAllocatesNothing) {
#ifdef HC_TEST_SANITIZED
    GTEST_SKIP() << "allocation counts are not meaningful under a sanitizer runtime";
#else
    const double per_job = pbs_allocations_per_job(/*read_id=*/true);
    EXPECT_LE(per_job, kBudgetPerJob)
        << "reading each id through Result::value() raised the lifecycle to " << per_job
        << " allocations per job, budget " << kBudgetPerJob;
#endif
}

/// Allocations per job in the steady WinHPC submit→finish cycle below, at
/// completed_retention 16, measured at 1.03: the record. Its allocation is
/// one cluster::RecordList, inline for one node, and try_place fills the
/// scheduler's reused placement buffer. The deque blocks of the job table
/// and the retention queue add about one per 64 jobs each (the 0.03); the
/// budget allows twice that, as on PBS.
constexpr double kWinHpcBudgetPerJob = 1 + 2.0 / 32;

TEST(AllocBudget, SteadyWinHpcJobLifecycle) {
#ifdef HC_TEST_SANITIZED
    GTEST_SKIP() << "allocation counts are not meaningful under a sanitizer runtime";
#else
    sim::Engine engine;
    cluster::ClusterConfig ccfg;
    ccfg.node_count = 4;
    ccfg.timing.jitter = 0;
    cluster::Cluster cluster(engine, ccfg);
    winhpc::HpcSchedulerConfig cfg;
    cfg.completed_retention = 16;
    winhpc::HpcScheduler scheduler(engine, cfg);
    boot_nodes(engine, cluster, scheduler, cluster::OsType::kWindows);

    winhpc::HpcJobSpec spec;  // one node for a minute; short strings stay inline
    spec.run_time = sim::seconds(60);
    auto one_job = [&] {
        const int id = scheduler.submit_job(spec);
        const winhpc::HpcJob* job = scheduler.get_job(id);
        ASSERT_NE(job, nullptr);
        ASSERT_EQ(job->state, winhpc::HpcJobState::kRunning);
        engine.run_for(sim::seconds(60));
        ASSERT_EQ(job->state, winhpc::HpcJobState::kFinished);
    };
    for (int i = 0; i < 256; ++i) ASSERT_NO_FATAL_FAILURE(one_job());

    constexpr std::uint64_t kJobs = 1024;
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < kJobs; ++i) ASSERT_NO_FATAL_FAILURE(one_job());
    const std::uint64_t used = g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(scheduler.get_jobs().size(), cfg.completed_retention);  // the rest were purged
    EXPECT_LE(static_cast<double>(used), kWinHpcBudgetPerJob * kJobs)
        << "the WinHPC job lifecycle allocated " << static_cast<double>(used) / kJobs
        << " times per job, budget " << kWinHpcBudgetPerJob;
#endif
}

/// Allocations of one detector poll of a server that has not changed since
/// the previous poll (one job running, none queued: the "Job running, no
/// queuing" branch of the Fig 6 report), measured at 0. The streaming path
/// re-parses no stanza and re-reads no first-job field, and the poll builds
/// no text: the Fig 6 block is rendered only when fig6_text() is called.
/// The wire record ("00000none") of the returned snapshot holds no id.
constexpr std::uint64_t kSteadyPollAllocations = 0;

TEST(AllocBudget, SteadyDetectorPoll) {
#ifdef HC_TEST_SANITIZED
    GTEST_SKIP() << "allocation counts are not meaningful under a sanitizer runtime";
#else
    sim::Engine engine;
    cluster::ClusterConfig ccfg;
    ccfg.node_count = 4;
    ccfg.timing.jitter = 0;
    cluster::Cluster cluster(engine, ccfg);
    pbs::PbsServer server(engine);
    boot_nodes(engine, cluster, server, cluster::OsType::kLinux);
    pbs::JobScript script;
    script.name = "steady";
    script.resources.ppn = 2;
    pbs::JobBehavior behavior;
    behavior.run_time = sim::hours(1);
    ASSERT_TRUE(server.submit(script, "sliang", std::move(behavior)).ok());

    core::PbsDetector detector(server);
    const core::QueueSnapshot first = detector.check();  // the first poll syncs
    ASSERT_EQ(first.running, 1);
    ASSERT_EQ(first.queued, 0);
    const std::string first_text = detector.fig6_text();
    constexpr std::uint64_t kPolls = 64;
    int running = 0;
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < kPolls; ++i) running += detector.check().running;
    const std::uint64_t used = g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(running, static_cast<int>(kPolls));
    EXPECT_EQ(detector.fig6_text(), first_text);
    EXPECT_LE(used, kSteadyPollAllocations * kPolls)
        << "a steady detector poll allocated " << static_cast<double>(used) / kPolls
        << " times, budget " << kSteadyPollAllocations;
#endif
}

#ifndef HC_TEST_SANITIZED
/// Bytes HybridCluster::settle() allocates per node while an `nodes`-node
/// cluster boots from power-on to all-up.
double settle_bytes_per_node(int nodes) {
    sim::Engine engine;
    core::HybridConfig cfg;
    cfg.cluster.node_count = nodes;
    core::HybridCluster hybrid(engine, cfg);
    hybrid.start();
    const std::uint64_t before = g_allocated_bytes.load(std::memory_order_relaxed);
    hybrid.settle();
    const std::uint64_t used = g_allocated_bytes.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(hybrid.cluster().count_running(cluster::OsType::kLinux), nodes);
    return static_cast<double>(used) / nodes;
}
#endif

/// The first boot costs each node a fixed number of events, so what settle()
/// allocates per node must not grow with the cluster: a settle that copies
/// or rescans the node list on every boot event spends bytes per node in
/// proportion to the node count (about 4x from 1k to 4k nodes).
TEST(AllocBudget, SettleBytesPerNodeStayFlat) {
#ifdef HC_TEST_SANITIZED
    GTEST_SKIP() << "allocation counts are not meaningful under a sanitizer runtime";
#else
    const double small = settle_bytes_per_node(1000);
    const double large = settle_bytes_per_node(4000);
    RecordProperty("bytes_per_node_1k", std::to_string(small));
    RecordProperty("bytes_per_node_4k", std::to_string(large));
    EXPECT_LE(large, 1.25 * small) << "settle() allocated " << small
                                   << " bytes per node at 1k nodes and " << large
                                   << " at 4k";
#endif
}

}  // namespace
}  // namespace hc
