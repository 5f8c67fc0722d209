// Tests for the TORQUE/PBS substrate: resource lists, job scripts (including
// the paper's Fig 4 switch script), and the batch server's FCFS semantics.
#include <gtest/gtest.h>

#include <algorithm>
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
    const std::string host = job->exec_slots[0].host;
    EXPECT_EQ(job->exec_host_string(),
              host + "/3+" + host + "/2+" + host + "/1+" + host + "/0");
}

TEST_F(PbsFixture, MultiNodeJobsSpanDistinctNodes) {
    const std::string id = submit(3, 4, sim::minutes(5));
    const Job* job = server.find_job(id);
    ASSERT_EQ(job->exec_node_indices.size(), 3u);
    EXPECT_NE(job->exec_node_indices[0], job->exec_node_indices[1]);
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
    cluster.node(job->exec_node_indices[0]).reboot();
    EXPECT_EQ(job->state, JobState::kCompleted);
    EXPECT_EQ(job->completion, CompletionKind::kNodeFailure);
}

TEST_F(PbsFixture, NodeDownRequeuesRerunnableJob) {
    const auto id = submit(4, 4, sim::hours(1));  // rerunnable by default
    const Job* job = server.find_job(id);
    const int victim = job->exec_node_indices[0];
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
        seen_nodes = static_cast<int>(job.exec_node_indices.size());
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

    ChurnWorld(std::uint64_t seed, bool strict_fifo) {
        for (const int np : kWidths) {
            cluster::ClusterConfig cfg;
            cfg.node_count = 6;
            cfg.cores_per_node = np;
            cfg.domain = "np" + std::to_string(np) + ".test";
            cfg.seed = seed;
            clusters.push_back(std::make_unique<cluster::Cluster>(engine, cfg));
        }
        PbsServerConfig cfg;
        cfg.strict_fifo = strict_fifo;
        cfg.completed_retention = 16;
        server = std::make_unique<PbsServer>(engine, cfg);
        server->enable_consistency_checks(true);
        server->on_job_event([this](PbsServer::JobEvent ev, const Job& job) {
            events += std::to_string(static_cast<int>(ev)) + " " + job.id + " " +
                      std::to_string(engine.unix_now()) + " " + job.exec_host_string() + "\n";
        });
        for (int i = 0; i < 6; ++i)
            for (auto& c : clusters) nodes.push_back(&c->node(i));
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

    /// Everything observable: both text outputs (checked against their
    /// reference renders), the lifecycle log and the counters.
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
               "/" + std::to_string(st.purged) + "/" + std::to_string(server->version());
    }
};

class PbsFitIndexChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PbsFitIndexChurn, MatchesBruteForceAndReplaysFromSnapshot) {
    const std::uint64_t seed = GetParam();
    ChurnWorld world(seed, /*strict_fifo=*/seed % 2 == 0);
    util::Rng rng(seed);
    std::vector<std::string> ids;
    constexpr int kSteps = 600;
    constexpr int kSplit = 250;
    for (int i = 0; i < kSplit; ++i) ASSERT_NO_FATAL_FAILURE(world.step(rng, ids));

    const ChurnWorld::Saved saved = world.save();
    const util::Rng rng_at_split = rng;
    const std::vector<std::string> ids_at_split = ids;
    for (int i = kSplit; i < kSteps; ++i) ASSERT_NO_FATAL_FAILURE(world.step(rng, ids));
    world.engine.run_all();
    const std::string straight = world.fingerprint();
    const ServerStats stats = world.server->stats();

    world.restore(saved);
    rng = rng_at_split;
    ids = ids_at_split;
    for (int i = kSplit; i < kSteps; ++i) ASSERT_NO_FATAL_FAILURE(world.step(rng, ids));
    world.engine.run_all();
    EXPECT_EQ(world.fingerprint(), straight);

    // The churn reached every path the index has to follow.
    EXPECT_GT(stats.started, 100u);
    EXPECT_GT(stats.requeued + stats.aborted_node_failure, 0u);
    EXPECT_GT(stats.killed_walltime, 0u);
    EXPECT_GT(stats.deleted, 0u);
    EXPECT_GT(stats.purged, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PbsFitIndexChurn, ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace hc::pbs
