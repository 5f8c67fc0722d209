// Heap-allocation budget of the PBS job lifecycle.
//
// This binary replaces the global operator new with a counting one, so it
// can pin how many allocations one job costs a warm server: submit, start
// on a free node, finish at its run time, purge by retention, and the
// detector-style refresh of the qstat -f document in between. A record that
// starts copying a constant again (the server name, the Variable_List, a
// hostname per CPU) or a placement that allocates per pass shows up here as
// a count over the budget.
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
#include "pbs/server.hpp"

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
}  // namespace

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace hc::pbs {
namespace {

/// Allocations per job in the steady lifecycle below: the record, its id
/// and owner strings, the id returned to the caller and the three exec
/// vectors. The deque blocks of the job table and the retention queue add
/// about one per 64 jobs each; the budget allows twice that.
constexpr double kBudgetPerJob = 7 + 2.0 / 32;

TEST(AllocBudget, SteadySingleNodeJobLifecycle) {
#ifdef HC_TEST_SANITIZED
    GTEST_SKIP() << "allocation counts are not meaningful under a sanitizer runtime";
#else
    sim::Engine engine;
    cluster::ClusterConfig ccfg;
    ccfg.node_count = 4;
    ccfg.timing.jitter = 0;
    cluster::Cluster cluster(engine, ccfg);
    PbsServerConfig cfg;
    cfg.completed_retention = 16;
    PbsServer server(engine, cfg);
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

    // The job under test, taken from the lifecycle events so that the loop
    // itself allocates nothing (Result::value() builds its error text).
    const Job* job = nullptr;
    server.on_job_event([&job](PbsServer::JobEvent ev, const Job& j) {
        if (ev == PbsServer::JobEvent::kQueued) job = &j;
    });
    JobScript script;
    script.name = "steady";
    script.resources.nodes = 1;
    script.resources.ppn = 2;
    auto one_job = [&] {
        JobBehavior behavior;
        behavior.run_time = sim::seconds(60);
        auto id = server.submit(script, "sliang", std::move(behavior));
        ASSERT_TRUE(id.ok()) << id.error_message();
        ASSERT_EQ(job->state, JobState::kRunning);
        (void)server.qstat_f_document();  // the detector's poll
        engine.run_for(sim::seconds(60));
        ASSERT_EQ(job->state, JobState::kCompleted);
        (void)server.qstat_f_document();
    };
    // Warm up: the retention window fills and every container reaches its
    // steady capacity.
    for (int i = 0; i < 256; ++i) ASSERT_NO_FATAL_FAILURE(one_job());

    constexpr std::uint64_t kJobs = 1024;
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < kJobs; ++i) ASSERT_NO_FATAL_FAILURE(one_job());
    const std::uint64_t used = g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(server.stats().purged, 256 + kJobs - cfg.completed_retention);
    EXPECT_LE(static_cast<double>(used), kBudgetPerJob * kJobs)
        << "the job lifecycle allocated " << static_cast<double>(used) / kJobs
        << " times per job, budget " << kBudgetPerJob;
#endif
}

}  // namespace
}  // namespace hc::pbs
