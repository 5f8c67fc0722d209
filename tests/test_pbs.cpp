// Tests for the TORQUE/PBS substrate: resource lists, job scripts (including
// the paper's Fig 4 switch script), and the batch server's FCFS semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/switch_job.hpp"
#include "pbs/job_script.hpp"
#include "pbs/resource_list.hpp"
#include "pbs/server.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace hc::pbs {
namespace {

using cluster::OsType;

// ---------- ResourceList ----------

TEST(ResourceList, ParsesPaperForm) {
    const auto rl = ResourceList::parse("nodes=1:ppn=4").value();
    EXPECT_EQ(rl.nodes, 1);
    EXPECT_EQ(rl.ppn, 4);
    EXPECT_EQ(rl.total_cpus(), 4);
    EXPECT_EQ(rl.nodes_spec(), "1:ppn=4");
}

TEST(ResourceList, DefaultsPpnToOne) {
    const auto rl = ResourceList::parse("nodes=3").value();
    EXPECT_EQ(rl.ppn, 1);
    EXPECT_EQ(rl.total_cpus(), 3);
    EXPECT_EQ(rl.nodes_spec(), "3");
}

TEST(ResourceList, ParsesProperties) {
    const auto rl = ResourceList::parse("nodes=2:ppn=4:bigmem").value();
    ASSERT_EQ(rl.properties.size(), 1u);
    EXPECT_EQ(rl.properties[0], "bigmem");
    EXPECT_EQ(rl.nodes_spec(), "2:ppn=4:bigmem");
}

TEST(ResourceList, ParsesWalltime) {
    const auto rl = ResourceList::parse("nodes=1:ppn=4,walltime=01:30:00").value();
    ASSERT_TRUE(rl.walltime.has_value());
    EXPECT_EQ(rl.walltime->whole_seconds(), 5400);
    EXPECT_EQ(rl.to_string(), "nodes=1:ppn=4,walltime=01:30:00");
}

TEST(ResourceList, RejectsBadInput) {
    EXPECT_FALSE(ResourceList::parse("").ok());
    EXPECT_FALSE(ResourceList::parse("nodes=0").ok());
    EXPECT_FALSE(ResourceList::parse("nodes=1:ppn=0").ok());
    EXPECT_FALSE(ResourceList::parse("walltime=01:00:00").ok());  // missing nodes
    EXPECT_FALSE(ResourceList::parse("mem=4gb").ok());
    EXPECT_FALSE(ResourceList::parse("nodes").ok());
    // Counts from outside the process must fit in int, and so must their
    // product (total_cpus); a walltime is bounded like every spec span.
    EXPECT_FALSE(ResourceList::parse("nodes=100000:ppn=100000").ok());
    EXPECT_FALSE(ResourceList::parse("nodes=4294967297").ok());
    EXPECT_FALSE(ResourceList::parse("nodes=1:ppn=4294967297").ok());
    EXPECT_FALSE(ResourceList::parse("nodes=1,walltime=99999999999999999999").ok());
    EXPECT_FALSE(ResourceList::parse("nodes=1,walltime=1:99999999999999999:00").ok());
    EXPECT_FALSE(ResourceList::parse("nodes=1,walltime=1000001:00:00").ok());
    EXPECT_TRUE(ResourceList::parse("nodes=1,walltime=1000000:00:00").ok());
    EXPECT_TRUE(ResourceList::parse("nodes=2147483647").ok());
}

TEST(Walltime, Formats) {
    EXPECT_EQ(parse_walltime("02:00:00").value().whole_seconds(), 7200);
    EXPECT_EQ(parse_walltime("90:00").value().whole_seconds(), 5400);
    EXPECT_EQ(parse_walltime("45").value().whole_seconds(), 45);
    EXPECT_FALSE(parse_walltime("1:2:3:4").ok());
    EXPECT_FALSE(parse_walltime("xx").ok());
    EXPECT_EQ(format_walltime(sim::seconds(3725)), "01:02:05");
}

// ---------- JobScript ----------

TEST(JobScript, ParsesFig4SwitchScript) {
    // The verbatim Fig 4 text must parse through the same qsub path as any
    // user script.
    const auto script = JobScript::parse(core::fig4_switch_script_text(OsType::kWindows));
    ASSERT_TRUE(script.ok()) << script.error_message();
    const JobScript& s = script.value();
    EXPECT_EQ(s.resources.nodes, 1);
    EXPECT_EQ(s.resources.ppn, 4);
    EXPECT_EQ(s.name, "release_1_node");
    EXPECT_EQ(s.queue, "default");
    EXPECT_TRUE(s.join_oe);
    EXPECT_EQ(s.output_path, "reboot_log.out");
    EXPECT_FALSE(s.rerunnable);  // -r n
    ASSERT_EQ(s.body.size(), 4u);
    EXPECT_NE(s.body[1].find("bootcontrol.pl"), std::string::npos);
    EXPECT_NE(s.body[2].find("sudo reboot"), std::string::npos);
    EXPECT_NE(s.body[3].find("sleep 10"), std::string::npos);
}

TEST(JobScript, DefaultsWithoutDirectives) {
    const auto s = JobScript::parse("echo hello\n").value();
    EXPECT_EQ(s.resources.nodes, 1);
    EXPECT_EQ(s.name, "STDIN");
    EXPECT_TRUE(s.rerunnable);
    ASSERT_EQ(s.body.size(), 1u);
}

TEST(JobScript, EmitRoundTrips) {
    JobScript s;
    s.resources = ResourceList::parse("nodes=2:ppn=4").value();
    s.name = "myjob";
    s.queue = "default";
    s.join_oe = true;
    s.rerunnable = false;
    s.body = {"echo hi"};
    const auto back = JobScript::parse(s.emit()).value();
    EXPECT_EQ(back.name, "myjob");
    EXPECT_EQ(back.resources.nodes, 2);
    EXPECT_FALSE(back.rerunnable);
    EXPECT_EQ(back.body, s.body);
}

TEST(JobScript, RejectsBadDirectives) {
    EXPECT_FALSE(JobScript::parse("#PBS -l\n").ok());
    EXPECT_FALSE(JobScript::parse("#PBS -r maybe\n").ok());
    EXPECT_FALSE(JobScript::parse("#PBS -z foo\n").ok());
    EXPECT_FALSE(JobScript::parse("#PBS\n").ok());
}

// ---------- PbsServer ----------

struct PbsFixture : ::testing::Test {
    sim::Engine engine;
    cluster::Cluster cluster{engine, [] {
                                 cluster::ClusterConfig cfg;
                                 cfg.node_count = 4;
                                 cfg.timing.jitter = 0;
                                 return cfg;
                             }()};
    PbsServer server{engine};

    void SetUp() override {
        for (auto* node : cluster.nodes()) {
            node->set_boot_resolver([](const cluster::Node&) {
                cluster::BootDecision d;
                d.os = OsType::kLinux;
                return d;
            });
            server.attach_node(*node);
            node->power_on();
        }
        engine.run_all();
    }

    std::string exec_host(const Job& job) const {
        std::string out;
        server.append_exec_host(job, out);
        return out;
    }

    std::string submit(int nodes, int ppn, sim::Duration run_time,
                       const std::string& name = "job") {
        JobScript script;
        script.resources.nodes = nodes;
        script.resources.ppn = ppn;
        script.name = name;
        JobBehavior behavior;
        behavior.run_time = run_time;
        auto id = server.submit(script, "sliang", std::move(behavior));
        EXPECT_TRUE(id.ok()) << id.error_message();
        return id.value();
    }
};

TEST_F(PbsFixture, JobIdsFollowPaperFormat) {
    const std::string id = submit(1, 4, sim::seconds(10));
    EXPECT_EQ(id, "1185.eridani.qgg.hud.ac.uk");  // ids start at the Fig 8 number
    EXPECT_EQ(submit(1, 4, sim::seconds(10)), "1186.eridani.qgg.hud.ac.uk");
}

TEST_F(PbsFixture, JobRunsAndCompletes) {
    const std::string id = submit(1, 4, sim::minutes(5));
    const Job* job = server.find_job(id);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->state, JobState::kRunning);  // placed immediately
    engine.run_all();
    EXPECT_EQ(job->state, JobState::kCompleted);
    EXPECT_EQ(job->completion, CompletionKind::kNormal);
    EXPECT_EQ(job->etime_unix - job->stime_unix, 300);
    EXPECT_EQ(server.stats().completed_normal, 1u);
}

TEST_F(PbsFixture, ExecHostUsesDescendingCpus) {
    const std::string id = submit(1, 4, sim::minutes(5));
    const Job* job = server.find_job(id);
    // Fig 8 pattern: host/3+host/2+host/1+host/0.
    ASSERT_EQ(job->exec_records.span().size(), 1u);
    const std::string& host = cluster.node(server.exec_node_index(*job, 0)).hostname();
    EXPECT_EQ(exec_host(*job), host + "/3+" + host + "/2+" + host + "/1+" + host + "/0");
}

TEST_F(PbsFixture, ExecHostSkipsCpusHeldByOthers) {
    // Three one-CPU jobs take cpus 3, 2 and 1 of the first node; deleting
    // the middle one leaves 3 and 1 taken. A ppn-2 job then gets the free
    // CPUs from the top down, and its exec_host lists only those.
    const std::string a = submit(1, 1, sim::hours(1));
    const std::string b = submit(1, 1, sim::hours(1));
    const std::string c = submit(1, 1, sim::hours(1));
    ASSERT_TRUE(server.qdel(b).ok());
    const Job* job = server.find_job(submit(1, 2, sim::hours(1)));
    ASSERT_EQ(job->state, JobState::kRunning);
    const std::string& host = cluster.node(0).hostname();
    ASSERT_EQ(server.exec_node_index(*job, 0), 0);
    EXPECT_EQ(exec_host(*job), host + "/2+" + host + "/0");
    EXPECT_EQ(exec_host(*server.find_job(a)), host + "/3");
    EXPECT_EQ(exec_host(*server.find_job(c)), host + "/1");
    EXPECT_NE(server.qstat_f_output().find("    exec_host = " + host + "/2+" + host + "/0\n"),
              std::string::npos);

    // A multi-node job lists its records in placement order, each from the
    // top down; the full first node is skipped.
    const Job* wide = server.find_job(submit(2, 3, sim::hours(1)));
    ASSERT_EQ(wide->state, JobState::kRunning);
    ASSERT_EQ(wide->exec_records.span().size(), 2u);
    const std::string& h1 = cluster.node(server.exec_node_index(*wide, 0)).hostname();
    const std::string& h2 = cluster.node(server.exec_node_index(*wide, 1)).hostname();
    EXPECT_EQ(h1, cluster.node(1).hostname());
    EXPECT_EQ(h2, cluster.node(2).hostname());
    EXPECT_EQ(exec_host(*wide), h1 + "/3+" + h1 + "/2+" + h1 + "/1+" + h2 + "/3+" + h2 +
                                    "/2+" + h2 + "/1");
    // Released CPUs leave nothing behind.
    ASSERT_TRUE(server.qdel(wide->id).ok());
    EXPECT_TRUE(wide->exec_records.span().empty());
    EXPECT_EQ(exec_host(*wide), "");
}

TEST_F(PbsFixture, MultiNodeJobsSpanDistinctNodes) {
    const std::string id = submit(3, 4, sim::minutes(5));
    const Job* job = server.find_job(id);
    ASSERT_EQ(job->exec_records.span().size(), 3u);
    EXPECT_NE(server.exec_node_index(*job, 0), server.exec_node_index(*job, 1));
    EXPECT_EQ(server.fully_idle_nodes().size(), 1u);
}

TEST_F(PbsFixture, StrictFifoBlocksBehindBigJob) {
    submit(4, 4, sim::hours(1), "uses-everything");
    submit(4, 4, sim::hours(1), "blocked-big");
    const std::string small_id = submit(1, 1, sim::minutes(1), "small");
    // Strict FIFO: the small job must NOT jump the blocked 4-node job.
    EXPECT_EQ(server.find_job(small_id)->state, JobState::kQueued);
    EXPECT_EQ(server.queued_jobs().size(), 2u);
}

TEST(PbsBackfill, SmallJobJumpsBlockedHeadWhenNotStrict) {
    sim::Engine engine;
    cluster::ClusterConfig ccfg;
    ccfg.node_count = 4;
    ccfg.timing.jitter = 0;
    cluster::Cluster cluster(engine, ccfg);
    PbsServerConfig scfg;
    scfg.strict_fifo = false;
    PbsServer server(engine, scfg);
    for (auto* node : cluster.nodes()) {
        node->set_boot_resolver([](const cluster::Node&) {
            cluster::BootDecision d;
            d.os = OsType::kLinux;
            return d;
        });
        server.attach_node(*node);
        node->power_on();
    }
    engine.run_all();

    auto submit = [&](int nodes, sim::Duration run_time) {
        JobScript script;
        script.resources.nodes = nodes;
        script.resources.ppn = 4;
        JobBehavior behavior;
        behavior.run_time = run_time;
        return server.submit(script, "u", std::move(behavior)).value();
    };
    submit(3, sim::hours(1));                               // 3 of 4 nodes busy
    const auto blocked = submit(4, sim::hours(1));          // blocked head (needs all 4)
    const auto small = submit(1, sim::minutes(1));          // fits the idle node
    // Backfill lets the small job flow around the blocked head immediately.
    EXPECT_EQ(server.find_job(blocked)->state, JobState::kQueued);
    EXPECT_EQ(server.find_job(small)->state, JobState::kRunning);
    engine.run_for(sim::minutes(2));
    EXPECT_EQ(server.find_job(small)->state, JobState::kCompleted);
    EXPECT_EQ(server.find_job(blocked)->state, JobState::kQueued);
}

TEST_F(PbsFixture, CoresSharedBetweenSmallJobs) {
    // Two ppn=2 jobs fit on one 4-core node.
    const auto a = submit(1, 2, sim::hours(1));
    const auto b = submit(1, 2, sim::hours(1));
    EXPECT_EQ(server.find_job(a)->state, JobState::kRunning);
    EXPECT_EQ(server.find_job(b)->state, JobState::kRunning);
    EXPECT_EQ(server.free_cpus(), 12);
}

TEST_F(PbsFixture, QdelQueuedAndRunning) {
    const auto big = submit(4, 4, sim::hours(1));
    const auto waiting = submit(1, 4, sim::hours(1));
    ASSERT_TRUE(server.qdel(waiting).ok());
    EXPECT_EQ(server.find_job(waiting)->completion, CompletionKind::kDeleted);
    ASSERT_TRUE(server.qdel(big).ok());
    EXPECT_EQ(server.free_cpus(), 16);  // allocation released
    EXPECT_FALSE(server.qdel(big).ok());  // already completed
    EXPECT_FALSE(server.qdel("999.unknown").ok());
}

TEST_F(PbsFixture, WalltimeKillsOverrunningJob) {
    JobScript script;
    script.resources = ResourceList::parse("nodes=1:ppn=4,walltime=00:10:00").value();
    JobBehavior behavior;
    behavior.run_time = sim::hours(5);
    const auto id = server.submit(script, "sliang", std::move(behavior)).value();
    engine.run_all();
    EXPECT_EQ(server.find_job(id)->completion, CompletionKind::kWalltime);
    EXPECT_EQ(server.stats().killed_walltime, 1u);
}

TEST_F(PbsFixture, NodeDownAbortsNonRerunnableJob) {
    JobScript script;
    script.resources.ppn = 4;
    script.rerunnable = false;
    JobBehavior behavior;
    behavior.run_time = sim::hours(1);
    const auto id = server.submit(script, "sliang", std::move(behavior)).value();
    const Job* job = server.find_job(id);
    ASSERT_EQ(job->state, JobState::kRunning);
    cluster.node(server.exec_node_index(*job, 0)).reboot();
    EXPECT_EQ(job->state, JobState::kCompleted);
    EXPECT_EQ(job->completion, CompletionKind::kNodeFailure);
}

TEST_F(PbsFixture, NodeDownRequeuesRerunnableJob) {
    const auto id = submit(4, 4, sim::hours(1));  // rerunnable by default
    const Job* job = server.find_job(id);
    const int victim = server.exec_node_index(*job, 0);
    cluster.node(victim).reboot();
    EXPECT_EQ(job->state, JobState::kQueued);
    EXPECT_EQ(job->requeue_count, 1);
    engine.run_all();  // node comes back, job reruns to completion
    EXPECT_EQ(job->state, JobState::kCompleted);
    EXPECT_EQ(job->completion, CompletionKind::kNormal);
}

TEST_F(PbsFixture, NodeRunningWindowsIsDown) {
    // Flip a node to Windows: PBS should see it down and not schedule there.
    auto* node = cluster.nodes()[0];
    node->set_boot_resolver([](const cluster::Node&) {
        cluster::BootDecision d;
        d.os = OsType::kWindows;
        return d;
    });
    node->reboot();
    engine.run_all();
    EXPECT_EQ(node->os(), OsType::kWindows);
    int down = 0;
    for (const auto& rec : server.node_records())
        if (rec.state() == NodeState::kDown) ++down;
    EXPECT_EQ(down, 1);
    EXPECT_EQ(server.free_cpus(), 12);
}

TEST_F(PbsFixture, OfflineNodeNotScheduled) {
    ASSERT_TRUE(server.set_node_offline("enode01", true).ok());
    const auto id = submit(4, 4, sim::hours(1));
    EXPECT_EQ(server.find_job(id)->state, JobState::kQueued);  // only 3 usable nodes
    ASSERT_TRUE(server.set_node_offline("enode01", false).ok());
    EXPECT_EQ(server.find_job(id)->state, JobState::kRunning);
    EXPECT_FALSE(server.set_node_offline("enode99", true).ok());
}

// Attaching a node twice, or a second node whose FQDN or short name is
// already indexed, is refused and changes nothing: the later node must not
// take over a name, or pbsnodes -o would act on it instead of the first.
TEST_F(PbsFixture, AttachRefusesTheSameNodeAndCollidingNames) {
    cluster::ClusterConfig twin_cfg;  // enode01.eridani.qgg.hud.ac.uk again
    twin_cfg.node_count = 1;
    cluster::ClusterConfig cousin_cfg = twin_cfg;  // enode01.other.example
    cousin_cfg.domain = "other.example";
    cluster::Cluster twin(engine, twin_cfg);
    cluster::Cluster cousin(engine, cousin_cfg);
    server.enable_consistency_checks(true);
    const std::uint64_t version = server.version();
    EXPECT_THROW(server.attach_node(cluster.node(0)), util::PreconditionError);
    EXPECT_THROW(server.attach_node(cluster.node(3)), util::PreconditionError);
    EXPECT_THROW(server.attach_node(twin.node(0)), util::PreconditionError);
    EXPECT_THROW(server.attach_node(cousin.node(0)), util::PreconditionError);
    EXPECT_EQ(server.version(), version);
    EXPECT_EQ(server.node_records().size(), 4u);
    EXPECT_EQ(server.total_cpus(), 16);
    EXPECT_EQ(server.free_cpus(), 16);
    // Both spellings still name the first node, and a cycle's consistency
    // check finds the name index intact.
    ASSERT_TRUE(server.set_node_offline("enode01", true).ok());
    EXPECT_TRUE(server.node_records()[0].offline);
    ASSERT_TRUE(server.set_node_offline("enode01.eridani.qgg.hud.ac.uk", false).ok());
    EXPECT_FALSE(server.node_records()[0].offline);
    const auto id = submit(4, 4, sim::hours(1));
    EXPECT_EQ(server.find_job(id)->state, JobState::kRunning);
}

// The name index answers both spellings of every node (pbsnodes -o/-c take
// either the FQDN or the short name) and refuses anything else with the
// typed error, for every node and not only the first one attached.
TEST_F(PbsFixture, NodeNamesResolveByFqdnAndShortName) {
    for (int i = 0; i < cluster.node_count(); ++i) {
        const cluster::Node& node = cluster.node(i);
        ASSERT_TRUE(server.set_node_offline(node.hostname(), true).ok());
        EXPECT_TRUE(server.node_records()[static_cast<std::size_t>(i)].offline);
        ASSERT_TRUE(server.set_node_offline(node.short_name(), false).ok());
        EXPECT_FALSE(server.node_records()[static_cast<std::size_t>(i)].offline);
        ASSERT_TRUE(server.set_node_properties(node.short_name(), {"all", "bigmem"}).ok());
        EXPECT_TRUE(server.node_records()[static_cast<std::size_t>(i)].has_properties({"bigmem"}));
    }
    for (const std::string name : {"enode05", "enode01.eridani", "eridani.qgg.hud.ac.uk", ""}) {
        const auto status = server.set_node_offline(name, true);
        ASSERT_FALSE(status.ok()) << name;
        EXPECT_EQ(status.error_message(), "unknown node: " + name);
        EXPECT_FALSE(server.set_node_properties(name, {"all"}).ok()) << name;
    }
}

TEST_F(PbsFixture, QholdSkipsJobAndUnblocksQueue) {
    submit(4, 4, sim::hours(1), "running");
    const auto head = submit(4, 4, sim::hours(1), "will-be-held");
    const auto small = submit(1, 4, sim::hours(1), "behind");
    // Strict FIFO: `small` is blocked behind `head`.
    EXPECT_EQ(server.find_job(small)->state, JobState::kQueued);
    ASSERT_TRUE(server.qhold(head).ok());
    EXPECT_EQ(server.find_job(head)->state, JobState::kHeld);
    // The held head no longer blocks; there are no free nodes yet though.
    engine.run_until(sim::TimePoint{} + sim::hours(2) + sim::minutes(10));
    EXPECT_EQ(server.find_job(small)->state, JobState::kCompleted);
    // The held job never ran.
    EXPECT_EQ(server.find_job(head)->state, JobState::kHeld);
    // Release: it becomes eligible and runs to completion.
    ASSERT_TRUE(server.qrls(head).ok());
    engine.run_all();
    EXPECT_EQ(server.find_job(head)->state, JobState::kCompleted);
    EXPECT_EQ(server.find_job(head)->completion, CompletionKind::kNormal);
}

TEST_F(PbsFixture, QholdValidation) {
    const auto id = submit(1, 4, sim::hours(1));
    EXPECT_FALSE(server.qhold(id).ok());  // running, not holdable
    EXPECT_FALSE(server.qhold("999.unknown").ok());
    EXPECT_FALSE(server.qrls(id).ok());  // not held
    const auto waiting = submit(4, 4, sim::hours(1));
    ASSERT_TRUE(server.qhold(waiting).ok());
    EXPECT_FALSE(server.qhold(waiting).ok());  // already held
    // Held jobs can still be deleted.
    ASSERT_TRUE(server.qdel(waiting).ok());
    EXPECT_EQ(server.find_job(waiting)->completion, CompletionKind::kDeleted);
}

TEST_F(PbsFixture, HeldJobShowsInQstatWithH) {
    submit(4, 4, sim::hours(1));
    const auto held = submit(1, 4, sim::hours(1));
    ASSERT_TRUE(server.qhold(held).ok());
    EXPECT_NE(server.qstat_f_output().find("job_state = H"), std::string::npos);
    // Held jobs are not "queued" for stuck detection purposes.
    EXPECT_TRUE(server.queued_jobs().empty());
}

TEST_F(PbsFixture, QueueDrainsInArrivalOrder) {
    std::vector<std::string> finish_order;
    for (int i = 0; i < 6; ++i) {
        JobScript script;
        script.resources.nodes = 4;
        script.resources.ppn = 4;
        script.name = "j" + std::to_string(i);
        JobBehavior behavior;
        behavior.run_time = sim::minutes(10);
        behavior.on_finish = [&finish_order](Job& job) { finish_order.push_back(job.name); };
        ASSERT_TRUE(server.submit(script, "u", std::move(behavior)).ok());
    }
    engine.run_all();
    EXPECT_EQ(finish_order,
              (std::vector<std::string>{"j0", "j1", "j2", "j3", "j4", "j5"}));
}

TEST_F(PbsFixture, OnStartHookSeesAllocation) {
    JobScript script;
    script.resources.ppn = 4;
    JobBehavior behavior;
    behavior.run_time = sim::seconds(5);
    int seen_nodes = -1;
    behavior.on_start = [&seen_nodes](Job& job) {
        seen_nodes = static_cast<int>(job.exec_records.span().size());
    };
    ASSERT_TRUE(server.submit(script, "u", std::move(behavior)).ok());
    EXPECT_EQ(seen_nodes, 1);
}

TEST_F(PbsFixture, OwnerGetsServerSuffix) {
    const auto id = submit(1, 1, sim::seconds(1));
    EXPECT_EQ(server.find_job(id)->owner, "sliang@eridani.qgg.hud.ac.uk");
}

TEST_F(PbsFixture, SubmitValidation) {
    JobScript script;
    EXPECT_FALSE(server.submit(script, "").ok());
    EXPECT_FALSE(server.qsub("#PBS -l nodes=zero\n", "u").ok());
}

// ---------- malformed / stale job ids ----------

TEST(PbsJobIds, BadIdsGiveTypedErrors) {
    sim::Engine engine;
    cluster::ClusterConfig cfg;
    cfg.node_count = 2;
    cfg.timing.jitter = 0;
    cluster::Cluster cluster{engine, cfg};
    PbsServerConfig server_cfg;
    server_cfg.completed_retention = 1;
    PbsServer server{engine, server_cfg};
    for (auto* node : cluster.nodes()) {
        node->set_boot_resolver([](const cluster::Node&) {
            cluster::BootDecision d;
            d.os = OsType::kLinux;
            return d;
        });
        server.attach_node(*node);
        node->power_on();
    }
    engine.run_all();
    auto submit = [&] {
        JobScript script;
        JobBehavior behavior;
        behavior.run_time = sim::minutes(1);
        return server.submit(script, "sliang", std::move(behavior)).value();
    };
    const std::string purged = submit();  // 1185: purged once two more complete
    submit();
    submit();
    engine.run_all();
    ASSERT_EQ(server.stats().purged, 2u);
    const std::string held = submit();  // a live job whose seq the bad ids share
    ASSERT_EQ(held, "1188.eridani.qgg.hud.ac.uk");

    const std::vector<std::string> bad = {
        "",
        ".",
        "1188",
        "1188.",
        "-1.x",
        "abc.eridani.qgg.hud.ac.uk",
        "1188.tauceti.qgg.hud.ac.uk",                  // wrong server suffix
        "01188.eridani.qgg.hud.ac.uk",                 // non-canonical number
        "18446744073709551616.eridani.qgg.hud.ac.uk",  // 2^64: overflows uint64_t
        "99999999999999999999999.eridani.qgg.hud.ac.uk",
        purged,
    };
    const PbsServer& const_server = server;
    for (const std::string& id : bad) {
        EXPECT_EQ(server.find_job(id), nullptr) << "'" << id << "'";
        EXPECT_EQ(const_server.find_job(id), nullptr) << "'" << id << "'";
        for (const util::Status& st : {server.qdel(id), server.qhold(id), server.qrls(id)}) {
            ASSERT_FALSE(st.ok()) << "'" << id << "'";
            EXPECT_NE(st.error_message().find("unknown job"), std::string::npos)
                << st.error_message();
        }
    }
    // The live job is untouched by any of the look-alikes.
    ASSERT_NE(server.find_job(held), nullptr);
    EXPECT_EQ(server.find_job(held)->state, JobState::kRunning);
}

TEST(PbsJobIds, FirstJobSeqMustBePositive) {
    // Seq 0 marks a free cpu slot, so no job may be issued it.
    sim::Engine engine;
    PbsServerConfig cfg;
    cfg.first_job_seq = 0;
    EXPECT_THROW(PbsServer(engine, cfg), util::PreconditionError);
}

// The job table spans the seqs issued since the oldest unpurged job, not just
// the live ones: a job held from the start keeps a slot for every later seq
// however few records retention keeps, and the window closes up once it is
// purged.
TEST(PbsJobTable, HeldJobPinsTheWindowFront) {
    sim::Engine engine;
    cluster::ClusterConfig cfg;
    cfg.node_count = 2;
    cfg.timing.jitter = 0;
    cluster::Cluster cluster{engine, cfg};
    PbsServerConfig server_cfg;
    server_cfg.completed_retention = 1;
    PbsServer server{engine, server_cfg};
    server.enable_consistency_checks(true);
    auto submit = [&] {
        JobBehavior behavior;
        behavior.run_time = sim::minutes(1);
        return server.submit(JobScript{}, "sliang", std::move(behavior)).value();
    };
    for (auto* node : cluster.nodes()) {
        node->set_boot_resolver([](const cluster::Node&) {
            cluster::BootDecision d;
            d.os = OsType::kLinux;
            return d;
        });
        server.attach_node(*node);
        node->power_on();
    }
    const std::string held = submit();  // queued: no node is up yet
    ASSERT_TRUE(server.qhold(held).ok());
    engine.run_all();

    constexpr std::uint64_t kStream = 100;
    for (std::uint64_t i = 0; i < kStream; ++i) submit();
    engine.run_all();
    EXPECT_EQ(server.stats().purged, kStream - 1);
    EXPECT_EQ(server.all_jobs().size(), 2u);  // the held job and one retained record
    PbsServer::SavedState window = server.save_state();
    EXPECT_EQ(window.table.base, server_cfg.first_job_seq);
    EXPECT_EQ(window.table.next - window.table.base, kStream + 1);

    // Released, the held job runs and becomes the retained record; the next
    // completion purges it and the front jumps to the newest seq.
    ASSERT_TRUE(server.qrls(held).ok());
    engine.run_all();
    EXPECT_EQ(server.save_state().table.base, server_cfg.first_job_seq);
    submit();
    engine.run_all();
    EXPECT_EQ(server.find_job(held), nullptr);
    window = server.save_state();
    EXPECT_EQ(window.table.next - window.table.base, 1u);
    EXPECT_EQ(server.all_jobs().size(), 1u);
}

// ---------- fit index vs brute force under churn ----------

/// A PBS server over 30 nodes of mixed width (np 1/2/4/8/16, interleaved so
/// every fit level is sparse), with consistency checks on: every scheduler
/// cycle cross-checks each fit-index bit and every placement against the
/// brute-force scan, and throws on divergence.
struct ChurnWorld {
    static constexpr int kWidths[] = {1, 2, 4, 8, 16};

    sim::Engine engine;
    std::vector<std::unique_ptr<cluster::Cluster>> clusters;
    std::unique_ptr<PbsServer> server;
    std::vector<cluster::Node*> nodes;  ///< in attach (record) order
    std::string events;                 ///< lifecycle log, one line per event

    ChurnWorld(std::uint64_t seed, bool strict_fifo, std::size_t retention) {
        // Every cluster names its nodes enode01, enode02, ..., and a server
        // refuses a short name it already indexes, so width k contributes its
        // nodes 6k..6k+5 (the rest stay off and unattached).
        for (std::size_t k = 0; k < std::size(kWidths); ++k) {
            const int np = kWidths[k];
            cluster::ClusterConfig cfg;
            cfg.node_count = 6 * static_cast<int>(k + 1);
            cfg.cores_per_node = np;
            cfg.domain = "np" + std::to_string(np) + ".test";
            cfg.seed = seed;
            clusters.push_back(std::make_unique<cluster::Cluster>(engine, cfg));
        }
        PbsServerConfig cfg;
        cfg.strict_fifo = strict_fifo;
        cfg.completed_retention = retention;
        server = std::make_unique<PbsServer>(engine, cfg);
        server->enable_consistency_checks(true);
        server->on_job_event([this](PbsServer::JobEvent ev, const Job& job) {
            events += std::to_string(static_cast<int>(ev)) + " " + job.id + " " +
                      std::to_string(engine.unix_now()) + " ";
            server->append_exec_host(job, events);
            events += '\n';
        });
        for (int i = 0; i < 6; ++i)
            for (std::size_t k = 0; k < clusters.size(); ++k)
                nodes.push_back(&clusters[k]->node(6 * static_cast<int>(k) + i));
        for (cluster::Node* node : nodes) {
            // Every fifth boot of a node lands in Windows (PBS sees it down).
            // Keyed on the restored boot count, so a replay boots the same way.
            node->set_boot_resolver([](const cluster::Node& n) {
                cluster::BootDecision d;
                d.os = (n.stats().boots + static_cast<std::uint64_t>(n.index())) % 5 == 4
                           ? OsType::kWindows
                           : OsType::kLinux;
                return d;
            });
            server->attach_node(*node);
            node->power_on();
        }
        engine.run_all();
    }

    struct Saved {
        sim::Engine::Snapshot calendar;
        std::vector<cluster::Cluster::SavedState> clusters;
        PbsServer::SavedState server;
        std::size_t events_size;
    };

    Saved save() {
        Saved s{engine.snapshot(), {}, server->save_state(), events.size()};
        for (const auto& c : clusters) s.clusters.push_back(c->save_state());
        return s;
    }

    void restore(const Saved& s) {
        engine.restore(s.calendar);
        for (std::size_t i = 0; i < clusters.size(); ++i)
            clusters[i]->restore_state(s.clusters[i]);
        server->restore_state(s.server);
        events.resize(s.events_size);
    }

    /// One random action, then a random stretch of simulated time.
    void step(util::Rng& rng, std::vector<std::string>& ids) {
        static const std::vector<std::vector<std::string>> kPropertySets = {
            {"all"}, {"all", "bigmem"}, {"all", "gpu"}, {"all", "bigmem", "gpu"}};
        // Half the time the queue head (so a strict-FIFO queue blocked on
        // an unplaceable job moves on), otherwise any id ever issued.
        auto pick_id = [&]() -> std::string {
            const auto queued = server->queued_jobs();
            if (!queued.empty() && rng.chance(0.5)) return queued.front()->id;
            return ids[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
        };
        auto pick_node = [&]() -> cluster::Node& {
            return *nodes[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
        };
        const auto action = rng.uniform_int(0, 99);
        if (action < 45 || ids.empty()) {
            static const int kPpn[] = {1, 1, 2, 3, 4, 8, 16};
            JobScript script;
            script.resources.ppn = kPpn[rng.uniform_int(0, 6)];
            script.resources.nodes =
                static_cast<int>(rng.uniform_int(1, script.resources.ppn >= 8 ? 1 : 3));
            if (rng.chance(0.2)) script.resources.properties.push_back("bigmem");
            if (rng.chance(0.1)) script.resources.properties.push_back("gpu");
            script.rerunnable = rng.chance(0.6);
            JobBehavior behavior;
            behavior.run_time = sim::seconds(rng.uniform(60, 3600));
            if (rng.chance(0.15))  // killed at its walltime
                script.resources.walltime = sim::seconds(rng.uniform(30, 600));
            auto id = server->submit(script, "churn", std::move(behavior));
            ASSERT_TRUE(id.ok()) << id.error_message();
            ids.push_back(id.value());
        } else if (action < 53) {
            (void)server->qhold(pick_id());
        } else if (action < 61) {
            (void)server->qrls(pick_id());
        } else if (action < 66) {
            (void)server->qdel(pick_id());
        } else if (action < 75) {
            cluster::Node& node = pick_node();
            const auto& rec = server->node_records()[static_cast<std::size_t>(
                std::find(nodes.begin(), nodes.end(), &node) - nodes.begin())];
            ASSERT_TRUE(server->set_node_offline(node.hostname(), !rec.offline).ok());
        } else if (action < 85) {
            cluster::Node& node = pick_node();
            if (node.is_up())
                node.reboot();  // running jobs requeue or abort
            else
                node.hard_power_cycle();
        } else if (action < 92) {
            cluster::Node& node = pick_node();
            const auto& props = kPropertySets[static_cast<std::size_t>(rng.uniform_int(0, 3))];
            ASSERT_TRUE(server->set_node_properties(node.hostname(), props).ok());
        }
        engine.run_for(sim::seconds(rng.uniform(0, 900)));
    }

    /// The operator clears the server (qdel of every unfinished job),
    /// returns every node to service and submits a burst of long jobs, a
    /// third of them with a walltime below their run time; then takes one
    /// node offline and queues three jobs no node set can ever hold (7 nodes
    /// of 16 CPUs, against 6 such nodes), holding the third, and four small
    /// jobs behind them. Run just before the snapshot, it makes the split
    /// hold many running jobs with pending completion and walltime timers
    /// next to a held job, an offline node and at least two eligible jobs
    /// (under strict FIFO six, blocked at the head), and the deletions let
    /// retention purge the job table's front past older records.
    void clear_and_fill(util::Rng& rng, std::vector<std::string>& ids) {
        // Ids first: a qdel may purge records the listing points at.
        std::vector<std::string> unfinished;
        for (const Job* job : server->all_jobs())
            if (job->state != JobState::kCompleted) unfinished.push_back(job->id);
        for (const std::string& id : unfinished) ASSERT_TRUE(server->qdel(id).ok()) << id;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            if (server->node_records()[i].offline) {
                ASSERT_TRUE(server->set_node_offline(nodes[i]->hostname(), false).ok());
            }
        }
        auto submit = [&](JobScript script, sim::Duration run_time) {
            JobBehavior behavior;
            behavior.run_time = run_time;
            auto id = server->submit(script, "burst", std::move(behavior));
            ASSERT_TRUE(id.ok()) << id.error_message();
            ids.push_back(id.value());
        };
        for (int i = 0; i < 40; ++i) {
            JobScript script;
            script.resources.ppn = static_cast<int>(rng.uniform_int(1, 2));
            script.rerunnable = rng.chance(0.6);
            if (i % 3 == 0) script.resources.walltime = sim::seconds(rng.uniform(300, 1200));
            ASSERT_NO_FATAL_FAILURE(submit(script, sim::seconds(rng.uniform(1800, 3600))));
        }
        const cluster::Node& offline = *nodes[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
        ASSERT_TRUE(server->set_node_offline(offline.hostname(), true).ok());
        JobScript too_wide;
        too_wide.resources.nodes = 7;
        too_wide.resources.ppn = 16;
        for (int i = 0; i < 3; ++i)
            ASSERT_NO_FATAL_FAILURE(submit(too_wide, sim::seconds(rng.uniform(60, 600))));
        ASSERT_TRUE(server->qhold(ids.back()).ok());
        for (int i = 0; i < 4; ++i)
            ASSERT_NO_FATAL_FAILURE(submit(JobScript{}, sim::seconds(rng.uniform(60, 600))));
    }

    /// Everything observable: both text outputs (checked against their
    /// reference renders), the lifecycle log, the server counters and the
    /// calendar counters (a timer left uncancelled shows there).
    std::string fingerprint() {
        const std::string nodes_text = server->pbsnodes_output();
        const std::string jobs_text = server->qstat_f_output();
        EXPECT_EQ(nodes_text, server->debug_full_render_pbsnodes());
        EXPECT_EQ(jobs_text, server->debug_full_render_qstat_f());
        const ServerStats& st = server->stats();
        return nodes_text + jobs_text + server->qstat_output() + events +
               std::to_string(st.started) + "/" + std::to_string(st.completed_normal) + "/" +
               std::to_string(st.deleted) + "/" + std::to_string(st.aborted_node_failure) +
               "/" + std::to_string(st.killed_walltime) + "/" + std::to_string(st.requeued) +
               "/" + std::to_string(st.purged) + "/" + std::to_string(server->version()) +
               " events " + std::to_string(engine.stats().scheduled) + "/" +
               std::to_string(engine.stats().dispatched) + "/" +
               std::to_string(engine.stats().cancelled);
    }
};

/// What a straight churn run ends with, for the test's path checks.
struct ChurnRun {
    ServerStats stats;
    std::uint64_t front_at_split = 0;  ///< lowest unpurged seq at the snapshot
    std::uint64_t front_at_end = 0;    ///< the same at the end, 0 when none is left
};

/// Churn to the split, clear and refill the server there, snapshot, churn
/// on to the end; then restore the snapshot, replay the same suffix and
/// require a byte-identical fingerprint.
void churn_and_replay(std::uint64_t seed, std::size_t retention, ChurnRun& run) {
    ChurnWorld world(seed, /*strict_fifo=*/seed % 2 == 0, retention);
    util::Rng rng(seed);
    std::vector<std::string> ids;
    constexpr int kSteps = 600;
    constexpr int kSplit = 250;
    for (int i = 0; i < kSplit; ++i) ASSERT_NO_FATAL_FAILURE(world.step(rng, ids));
    ASSERT_NO_FATAL_FAILURE(world.clear_and_fill(rng, ids));

    // The snapshot holds many runs with pending timers, walltime kills
    // among them, a queue for restore to relink, a held job and an offline
    // node.
    const auto running = world.server->running_jobs();
    EXPECT_GE(running.size(), 20u);
    EXPECT_GE(std::count_if(running.begin(), running.end(),
                            [](const Job* j) { return j->walltime_event.valid(); }),
              5);
    EXPECT_GE(world.server->queued_jobs().size(), 2u);
    const auto live = world.server->all_jobs();
    EXPECT_TRUE(std::any_of(live.begin(), live.end(),
                            [](const Job* j) { return j->state == JobState::kHeld; }));
    const auto& records = world.server->node_records();
    EXPECT_TRUE(std::any_of(records.begin(), records.end(),
                            [](const NodeRecord& r) { return r.offline; }));
    run.front_at_split = live.front()->seq;
    const ChurnWorld::Saved saved = world.save();
    const util::Rng rng_at_split = rng;
    const std::vector<std::string> ids_at_split = ids;
    for (int i = kSplit; i < kSteps; ++i) ASSERT_NO_FATAL_FAILURE(world.step(rng, ids));
    world.engine.run_all();
    const std::string straight = world.fingerprint();
    run.stats = world.server->stats();
    const auto live_at_end = world.server->all_jobs();
    run.front_at_end = live_at_end.empty() ? 0 : live_at_end.front()->seq;

    world.restore(saved);
    rng = rng_at_split;
    ids = ids_at_split;
    for (int i = kSplit; i < kSteps; ++i) ASSERT_NO_FATAL_FAILURE(world.step(rng, ids));
    world.engine.run_all();
    EXPECT_EQ(world.fingerprint(), straight);
}

class PbsFitIndexChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PbsFitIndexChurn, MatchesBruteForceAndReplaysFromSnapshot) {
    ChurnRun run;
    ASSERT_NO_FATAL_FAILURE(churn_and_replay(GetParam(), /*retention=*/16, run));
    // The churn reached every path the index has to follow.
    EXPECT_GT(run.stats.started, 100u);
    EXPECT_GT(run.stats.requeued + run.stats.aborted_node_failure, 0u);
    EXPECT_GT(run.stats.killed_walltime, 0u);
    EXPECT_GT(run.stats.deleted, 0u);
    EXPECT_GT(run.stats.purged, 0u);
}

// One retained record: the snapshot is taken after purges moved the job
// table's front, and the front moves again before the end, so a restore has
// to put the table's base back rather than keep the one it finds.
TEST_P(PbsFitIndexChurn, ReplaysAfterTheJobTableFrontMoved) {
    ChurnRun run;
    ASSERT_NO_FATAL_FAILURE(churn_and_replay(GetParam(), /*retention=*/1, run));
    EXPECT_GT(run.front_at_split, PbsServerConfig{}.first_job_seq);
    EXPECT_TRUE(run.front_at_end == 0 || run.front_at_end > run.front_at_split);
    EXPECT_GT(run.stats.purged, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PbsFitIndexChurn, ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace hc::pbs
