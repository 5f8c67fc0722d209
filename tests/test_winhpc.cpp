// Tests for the Windows HPC scheduler substrate.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "util/errors.hpp"
#include "winhpc/scheduler.hpp"

namespace hc::winhpc {
namespace {

using cluster::OsType;

struct HpcFixture : ::testing::Test {
    sim::Engine engine;
    cluster::Cluster cluster{engine, [] {
                                 cluster::ClusterConfig cfg;
                                 cfg.node_count = 4;
                                 cfg.timing.jitter = 0;
                                 return cfg;
                             }()};
    HpcScheduler scheduler{engine};

    void SetUp() override {
        for (auto* node : cluster.nodes()) {
            node->set_boot_resolver([](const cluster::Node&) {
                cluster::BootDecision d;
                d.os = OsType::kWindows;
                return d;
            });
            scheduler.attach_node(*node);
            node->power_on();
        }
        engine.run_all();
    }

    /// The cluster node of the job's i-th allocated record.
    [[nodiscard]] cluster::Node& allocated_node(const HpcJob& job, std::size_t i = 0) const {
        const int r = job.allocated_records.span()[i];
        return *scheduler.node_records()[static_cast<std::size_t>(r)].node;
    }

    int submit_node_job(int nodes, sim::Duration run_time, const std::string& name = "job") {
        HpcJobSpec spec;
        spec.name = name;
        spec.unit = JobUnitType::kNode;
        spec.min_resources = nodes;
        spec.run_time = run_time;
        return scheduler.submit_job(std::move(spec));
    }
};

TEST_F(HpcFixture, JobIdsAreSequentialIntegers) {
    EXPECT_EQ(submit_node_job(1, sim::seconds(1)), 1);
    EXPECT_EQ(submit_node_job(1, sim::seconds(1)), 2);
}

TEST_F(HpcFixture, NodeJobRunsExclusively) {
    const int id = submit_node_job(2, sim::hours(1));
    const HpcJob* job = scheduler.get_job(id);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->state, HpcJobState::kRunning);
    EXPECT_EQ(job->allocated_records.span().size(), 2u);
    EXPECT_EQ(scheduler.free_cores(), 8);  // 2 of 4 nodes fully booked
    EXPECT_EQ(scheduler.fully_idle_nodes().size(), 2u);
}

TEST_F(HpcFixture, CoreUnitJobsPack) {
    HpcJobSpec spec;
    spec.unit = JobUnitType::kCore;
    spec.min_resources = 6;
    spec.run_time = sim::hours(1);
    const int id = scheduler.submit_job(std::move(spec));
    EXPECT_EQ(scheduler.get_job(id)->state, HpcJobState::kRunning);
    EXPECT_EQ(scheduler.free_cores(), 10);
}

TEST_F(HpcFixture, JobFinishesAndReleases) {
    const int id = submit_node_job(1, sim::minutes(30));
    engine.run_all();
    const HpcJob* job = scheduler.get_job(id);
    EXPECT_EQ(job->state, HpcJobState::kFinished);
    EXPECT_EQ(job->end_unix - job->start_unix, 1800);
    EXPECT_EQ(scheduler.free_cores(), 16);
    EXPECT_EQ(scheduler.stats().finished, 1u);
}

TEST_F(HpcFixture, StrictFifoQueueing) {
    submit_node_job(4, sim::hours(1), "big");
    const int blocked = submit_node_job(4, sim::hours(1), "blocked");
    const int small = submit_node_job(1, sim::minutes(1), "small");
    EXPECT_EQ(scheduler.get_job(blocked)->state, HpcJobState::kQueued);
    EXPECT_EQ(scheduler.get_job(small)->state, HpcJobState::kQueued);
    EXPECT_EQ(scheduler.queued_job_count(), 2);
    EXPECT_EQ(scheduler.first_queued_job()->id, blocked);
}

TEST_F(HpcFixture, NeededCpusForNodeUnit) {
    submit_node_job(4, sim::hours(1));
    const int blocked = submit_node_job(2, sim::hours(1));
    EXPECT_EQ(scheduler.get_job(blocked)->needed_cpus(4), 8);
}

TEST_F(HpcFixture, CancelQueuedAndRunning) {
    const int running = submit_node_job(4, sim::hours(1));
    const int queued = submit_node_job(1, sim::hours(1));
    ASSERT_TRUE(scheduler.cancel_job(queued).ok());
    EXPECT_EQ(scheduler.get_job(queued)->state, HpcJobState::kCanceled);
    ASSERT_TRUE(scheduler.cancel_job(running).ok());
    EXPECT_EQ(scheduler.free_cores(), 16);
    EXPECT_FALSE(scheduler.cancel_job(running).ok());
    EXPECT_FALSE(scheduler.cancel_job(12345).ok());
}

TEST_F(HpcFixture, RuntimeLimitFailsJob) {
    HpcJobSpec spec;
    spec.min_resources = 1;
    spec.run_time = sim::hours(10);
    spec.runtime_limit = sim::minutes(5);
    const int id = scheduler.submit_job(std::move(spec));
    engine.run_all();
    EXPECT_EQ(scheduler.get_job(id)->state, HpcJobState::kFailed);
    EXPECT_EQ(scheduler.stats().killed_runtime_limit, 1u);
}

TEST_F(HpcFixture, NodeLossFailsJob) {
    const int id = submit_node_job(1, sim::hours(1));
    const HpcJob* job = scheduler.get_job(id);
    allocated_node(*job).reboot();
    EXPECT_EQ(job->state, HpcJobState::kFailed);
    EXPECT_EQ(scheduler.stats().failed_node_loss, 1u);
}

TEST_F(HpcFixture, NodeLossRequeuesWhenRerunnable) {
    HpcJobSpec spec;
    spec.min_resources = 4;
    spec.unit = JobUnitType::kNode;
    spec.run_time = sim::hours(1);
    spec.rerun_on_failure = true;
    const int id = scheduler.submit_job(std::move(spec));
    const HpcJob* job = scheduler.get_job(id);
    allocated_node(*job).reboot();
    EXPECT_EQ(job->state, HpcJobState::kQueued);
    EXPECT_EQ(job->requeue_count, 1);
    engine.run_all();
    EXPECT_EQ(job->state, HpcJobState::kFinished);
}

TEST_F(HpcFixture, LinuxNodeIsUnreachable) {
    auto* node = cluster.nodes()[0];
    node->set_boot_resolver([](const cluster::Node&) {
        cluster::BootDecision d;
        d.os = OsType::kLinux;
        return d;
    });
    node->reboot();
    engine.run_all();
    int unreachable = 0;
    for (const auto& rec : scheduler.node_records())
        if (rec.state() == HpcNodeState::kUnreachable) ++unreachable;
    EXPECT_EQ(unreachable, 1);
    EXPECT_EQ(scheduler.free_cores(), 12);
}

TEST_F(HpcFixture, AdminOfflineAndDraining) {
    const int id = submit_node_job(1, sim::hours(1));
    const std::string busy = allocated_node(*scheduler.get_job(id)).short_name();
    ASSERT_TRUE(scheduler.set_node_online(busy, false).ok());
    // Busy + offline = draining.
    bool saw_draining = false;
    for (const auto& rec : scheduler.node_records())
        if (rec.state() == HpcNodeState::kDraining) saw_draining = true;
    EXPECT_TRUE(saw_draining);
    EXPECT_FALSE(scheduler.set_node_online("nonesuch", false).ok());
}

// Attaching a node twice, or a second node whose FQDN or short name is
// already indexed, is refused and changes nothing: the later node must not
// take over a name, or set_node_online would act on it instead of the first.
TEST_F(HpcFixture, AttachRefusesTheSameNodeAndCollidingNames) {
    cluster::ClusterConfig twin_cfg;  // enode01.eridani.qgg.hud.ac.uk again
    twin_cfg.node_count = 1;
    cluster::ClusterConfig cousin_cfg = twin_cfg;  // enode01.other.example
    cousin_cfg.domain = "other.example";
    cluster::Cluster twin(engine, twin_cfg);
    cluster::Cluster cousin(engine, cousin_cfg);
    scheduler.enable_consistency_checks(true);
    EXPECT_THROW(scheduler.attach_node(cluster.node(0)), util::PreconditionError);
    EXPECT_THROW(scheduler.attach_node(cluster.node(3)), util::PreconditionError);
    EXPECT_THROW(scheduler.attach_node(twin.node(0)), util::PreconditionError);
    EXPECT_THROW(scheduler.attach_node(cousin.node(0)), util::PreconditionError);
    EXPECT_EQ(scheduler.node_records().size(), 4u);
    EXPECT_EQ(scheduler.total_cores(), 16);
    EXPECT_EQ(scheduler.free_cores(), 16);
    // Both spellings still name the first node, and a cycle's consistency
    // check finds the name index intact.
    ASSERT_TRUE(scheduler.set_node_online("enode01", false).ok());
    EXPECT_TRUE(scheduler.node_records()[0].admin_offline);
    ASSERT_TRUE(scheduler.set_node_online("enode01.eridani.qgg.hud.ac.uk", true).ok());
    EXPECT_FALSE(scheduler.node_records()[0].admin_offline);
    const int id = submit_node_job(4, sim::hours(1));
    EXPECT_EQ(scheduler.get_job(id)->state, HpcJobState::kRunning);
}

// By-name admin calls take the FQDN or the short name of any node and refuse
// anything else with the typed error.
TEST_F(HpcFixture, NodeNamesResolveByFqdnAndShortName) {
    for (int i = 0; i < cluster.node_count(); ++i) {
        const cluster::Node& node = cluster.node(i);
        const auto& rec = scheduler.node_records()[static_cast<std::size_t>(i)];
        ASSERT_TRUE(scheduler.set_node_online(node.hostname(), false).ok());
        EXPECT_TRUE(rec.admin_offline);
        ASSERT_TRUE(scheduler.set_node_online(node.short_name(), true).ok());
        EXPECT_FALSE(rec.admin_offline);
    }
    for (const std::string name : {"enode05", "enode01.eridani", "nonesuch", ""}) {
        const auto status = scheduler.set_node_online(name, false);
        ASSERT_FALSE(status.ok()) << name;
        EXPECT_EQ(status.error_message(), "unknown node: " + name);
    }
}

TEST_F(HpcFixture, GetJobsFiltering) {
    submit_node_job(4, sim::hours(1));
    submit_node_job(1, sim::hours(1));
    EXPECT_EQ(scheduler.get_jobs(HpcJobState::kRunning).size(), 1u);
    EXPECT_EQ(scheduler.get_jobs(HpcJobState::kQueued).size(), 1u);
    EXPECT_EQ(scheduler.get_jobs().size(), 2u);
}

TEST_F(HpcFixture, OnStartSeesAllocation) {
    HpcJobSpec spec;
    spec.min_resources = 2;
    spec.run_time = sim::seconds(1);
    std::vector<int> seen;
    spec.on_start = [this, &seen](HpcJob& job) {
        for (std::size_t i = 0; i < job.allocated_records.span().size(); ++i)
            seen.push_back(allocated_node(job, i).index());
    };
    (void)scheduler.submit_job(std::move(spec));
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_NE(seen[0], seen[1]);
}

TEST_F(HpcFixture, NodeListOutputRendersStates) {
    submit_node_job(1, sim::hours(1));
    const std::string out = scheduler.node_list_output();
    EXPECT_NE(out.find("Online"), std::string::npos);
    EXPECT_NE(out.find("Eridani Compute"), std::string::npos);
    EXPECT_NE(out.find("enode01"), std::string::npos);
}

TEST_F(HpcFixture, TaskJobRunsTasksInParallelLanes) {
    // 6 tasks of 10 min on a 2-node job: 2 lanes -> 3 waves -> 30 min total.
    HpcJobSpec spec;
    spec.unit = JobUnitType::kNode;
    spec.min_resources = 2;
    for (int i = 0; i < 6; ++i) spec.tasks.push_back({"worker.exe", sim::minutes(10)});
    const int id = scheduler.submit_job(std::move(spec));
    const HpcJob* job = scheduler.get_job(id);
    ASSERT_EQ(job->state, HpcJobState::kRunning);
    engine.run_for(sim::minutes(11));
    EXPECT_EQ(job->tasks_finished, 2);
    engine.run_all();
    EXPECT_EQ(job->state, HpcJobState::kFinished);
    EXPECT_EQ(job->tasks_finished, 6);
    EXPECT_EQ(job->end_unix - job->start_unix, 3 * 600);
    for (const auto& task : job->tasks) {
        EXPECT_EQ(task.state, HpcJobState::kFinished);
        EXPECT_EQ(task.end_unix - task.start_unix, 600);
    }
}

TEST_F(HpcFixture, TaskJobCancelKillsInFlightTasks) {
    HpcJobSpec spec;
    spec.min_resources = 1;
    for (int i = 0; i < 4; ++i) spec.tasks.push_back({"worker.exe", sim::hours(1)});
    const int id = scheduler.submit_job(std::move(spec));
    engine.run_for(sim::minutes(5));
    ASSERT_TRUE(scheduler.cancel_job(id).ok());
    const HpcJob* job = scheduler.get_job(id);
    EXPECT_EQ(job->state, HpcJobState::kCanceled);
    for (const auto& task : job->tasks) EXPECT_NE(task.state, HpcJobState::kRunning);
    engine.run_all();
    EXPECT_EQ(job->tasks_finished, 0);  // no ghost completions after cancel
}

TEST_F(HpcFixture, TaskJobRestartsTasksAfterRequeue) {
    HpcJobSpec spec;
    spec.unit = JobUnitType::kNode;
    spec.min_resources = 1;
    spec.rerun_on_failure = true;
    for (int i = 0; i < 2; ++i) spec.tasks.push_back({"worker.exe", sim::minutes(30)});
    const int id = scheduler.submit_job(std::move(spec));
    const HpcJob* job = scheduler.get_job(id);
    engine.run_for(sim::minutes(5));
    const std::int64_t first_start = job->start_unix;
    allocated_node(*job).reboot();  // kills the allocation
    // The requeue is immediate and, with free nodes available, so is the
    // re-placement — the job is running again on a different node with its
    // tasks restarted from scratch.
    EXPECT_EQ(job->requeue_count, 1);
    EXPECT_EQ(job->tasks_finished, 0);
    EXPECT_GT(job->start_unix, first_start);
    engine.run_all();
    EXPECT_EQ(job->state, HpcJobState::kFinished);
    EXPECT_EQ(job->tasks_finished, 2);
    // Total runtime reflects a full re-run of the 30-minute task (1 lane,
    // 2 tasks sequentially = 60 min from the restart).
    EXPECT_EQ(job->end_unix - job->start_unix, 3600);
}

TEST_F(HpcFixture, FinishCallbackFires) {
    HpcJobSpec spec;
    spec.min_resources = 1;
    spec.run_time = sim::seconds(2);
    bool finished = false;
    spec.on_finish = [&finished](HpcJob& job) {
        finished = job.state == HpcJobState::kFinished;
    };
    (void)scheduler.submit_job(std::move(spec));
    engine.run_all();
    EXPECT_TRUE(finished);
}

}  // namespace
}  // namespace hc::winhpc
