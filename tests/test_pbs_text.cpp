// Tests for the PBS text command layer — the Fig 7 (pbsnodes) and Fig 8
// (qstat -f) formats the detector scrapes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "cluster/cluster.hpp"
#include "pbs/accounting.hpp"
#include "pbs/server.hpp"
#include "util/rng.hpp"

namespace hc::pbs {
namespace {

using cluster::OsType;

struct TextFixture : ::testing::Test {
    sim::Engine engine;
    cluster::Cluster cluster{engine, [] {
                                 cluster::ClusterConfig cfg;
                                 cfg.node_count = 2;
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
};

TEST_F(TextFixture, PbsnodesListsEveryNodeWithFig7Fields) {
    const std::string out = server.pbsnodes_output();
    // Fig 7 structure for a free node.
    EXPECT_NE(out.find("enode01.eridani.qgg.hud.ac.uk\n"), std::string::npos);
    EXPECT_NE(out.find("     state = free\n"), std::string::npos);
    EXPECT_NE(out.find("     np = 4\n"), std::string::npos);
    EXPECT_NE(out.find("     properties = all\n"), std::string::npos);
    EXPECT_NE(out.find("     ntype = cluster\n"), std::string::npos);
    EXPECT_NE(out.find("opsys=linux"), std::string::npos);
    EXPECT_NE(out.find("totmem=15881584kb"), std::string::npos);  // Fig 7 value
    EXPECT_NE(out.find("physmem=8069096kb"), std::string::npos);
    EXPECT_NE(out.find("ncpus=4"), std::string::npos);
    EXPECT_NE(out.find("enode02.eridani.qgg.hud.ac.uk\n"), std::string::npos);
}

TEST_F(TextFixture, PbsnodesShowsJobsAndExclusiveState) {
    JobScript script;
    script.resources.ppn = 4;
    JobBehavior behavior;
    behavior.run_time = sim::hours(1);
    const auto id = server.submit(script, "sliang", std::move(behavior)).value();
    const std::string out = server.pbsnodes_output();
    EXPECT_NE(out.find("state = job-exclusive"), std::string::npos);
    EXPECT_NE(out.find("jobs = 0/" + id), std::string::npos);
    EXPECT_NE(out.find("3/" + id), std::string::npos);
}

TEST_F(TextFixture, PbsnodesShowsDownNode) {
    cluster.node(0).reboot();
    const std::string out = server.pbsnodes_output();
    EXPECT_NE(out.find("state = down"), std::string::npos);
    // Down nodes report no status attributes.
    const auto block_start = out.find("enode01");
    const auto block_end = out.find("\n\n", block_start);
    EXPECT_EQ(out.substr(block_start, block_end - block_start).find("status ="),
              std::string::npos);
}

TEST_F(TextFixture, QstatFMatchesFig8Layout) {
    JobScript script;
    script.resources.ppn = 4;
    script.name = "release_1_node";
    script.queue = "default";
    script.join_oe = true;
    JobBehavior behavior;
    behavior.run_time = sim::hours(1);
    const auto id = server.submit(script, "sliang", std::move(behavior)).value();
    const std::string out = server.qstat_f_output();
    EXPECT_NE(out.find("Job Id: " + id + "\n"), std::string::npos);
    EXPECT_NE(out.find("    Job_Name = release_1_node\n"), std::string::npos);
    EXPECT_NE(out.find("    Job_Owner = sliang@eridani.qgg.hud.ac.uk\n"), std::string::npos);
    EXPECT_NE(out.find("    job_state = R\n"), std::string::npos);
    EXPECT_NE(out.find("    queue = default\n"), std::string::npos);
    EXPECT_NE(out.find("    server = eridani.qgg.hud.ac.uk\n"), std::string::npos);
    EXPECT_NE(out.find("    exec_host = enode01.eridani.qgg.hud.ac.uk/3+"), std::string::npos);
    EXPECT_NE(out.find("    Priority = 0\n"), std::string::npos);
    EXPECT_NE(out.find("    qtime = Fri Apr 16 "), std::string::npos);  // sim epoch date
    EXPECT_NE(out.find("    Resource_List.nodes = 1:ppn=4\n"), std::string::npos);
    EXPECT_NE(out.find("    Variable_List = PBS_O_HOME=/home/sliang,"), std::string::npos);
    EXPECT_NE(out.find("\n\tPBS_O_PATH="), std::string::npos);  // tab continuation
}

TEST_F(TextFixture, QstatFShowsQueuedJobWithoutExecHost) {
    JobScript big;
    big.resources.nodes = 2;
    big.resources.ppn = 4;
    JobBehavior long_run;
    long_run.run_time = sim::hours(1);
    ASSERT_TRUE(server.submit(big, "a", std::move(long_run)).ok());
    JobScript blocked;
    blocked.resources.nodes = 2;
    blocked.resources.ppn = 4;
    const auto id = server.submit(blocked, "b").value();
    const std::string out = server.qstat_f_output();
    const auto block = out.find("Job Id: " + id);
    ASSERT_NE(block, std::string::npos);
    EXPECT_NE(out.find("job_state = Q", block), std::string::npos);
    EXPECT_EQ(out.find("exec_host", block), std::string::npos);
}

TEST_F(TextFixture, QstatFOmitsCompletedJobs) {
    JobScript script;
    JobBehavior behavior;
    behavior.run_time = sim::seconds(5);
    const auto id = server.submit(script, "u", std::move(behavior)).value();
    engine.run_all();
    EXPECT_EQ(server.qstat_f_output().find(id), std::string::npos);
}

TEST_F(TextFixture, QstatFEmptyWhenNoJobs) {
    EXPECT_EQ(server.qstat_f_output(), "");
}

TEST_F(TextFixture, QstatBriefTableFormat) {
    JobScript running;
    running.resources.ppn = 4;
    running.name = "release_1_node";
    JobBehavior behavior;
    behavior.run_time = sim::hours(2);
    ASSERT_TRUE(server.submit(running, "sliang", std::move(behavior)).ok());
    JobScript queued;
    queued.resources.nodes = 2;
    queued.resources.ppn = 4;
    queued.name = "waiting";
    ASSERT_TRUE(server.submit(queued, "ikureshi").ok());
    engine.run_for(sim::minutes(5));
    const std::string out = server.qstat_output();
    EXPECT_NE(out.find("Job ID"), std::string::npos);
    EXPECT_NE(out.find("1185.eridani "), std::string::npos);  // id truncated at 2nd dot
    EXPECT_NE(out.find("release_1_node"), std::string::npos);
    EXPECT_NE(out.find(" R default"), std::string::npos);
    EXPECT_NE(out.find(" Q default"), std::string::npos);
    EXPECT_NE(out.find("sliang"), std::string::npos);
    EXPECT_NE(out.find("00:05:00"), std::string::npos);  // time in use
}

TEST_F(TextFixture, QstatBriefEmptyWhenIdle) {
    EXPECT_EQ(server.qstat_output(), "");
}

TEST_F(TextFixture, WalltimeShownWhenRequested) {
    JobScript script;
    script.resources = ResourceList::parse("nodes=1:ppn=1,walltime=02:00:00").value();
    ASSERT_TRUE(server.submit(script, "u").ok());
    EXPECT_NE(server.qstat_f_output().find("    Resource_List.walltime = 02:00:00\n"),
              std::string::npos);
}

// ---- render cache invalidation ------------------------------------------
// The outputs are memoized against the server's mutation counter; the risk
// a cache introduces is *stale* text, so these tests mutate state and check
// the very next render reflects it.

TEST_F(TextFixture, VersionBumpsOnMutations) {
    const std::uint64_t v0 = server.version();
    JobScript script;
    script.resources.ppn = 1;
    const auto id = server.submit(script, "u").value();
    const std::uint64_t v1 = server.version();
    EXPECT_GT(v1, v0);
    engine.run_all();  // job completes
    EXPECT_GT(server.version(), v1);
    EXPECT_EQ(server.find_job(id)->state, JobState::kCompleted);
}

TEST_F(TextFixture, CachedOutputsRefreshAfterMutation) {
    const std::string idle_nodes = server.pbsnodes_output();
    const std::string idle_qstat = server.qstat_output();
    EXPECT_EQ(idle_qstat, "");
    // Same instant, no mutation: repeated calls serve the cached text.
    EXPECT_EQ(server.pbsnodes_output(), idle_nodes);

    JobScript script;
    script.resources.ppn = 4;
    JobBehavior behavior;
    behavior.run_time = sim::hours(1);
    const auto id = server.submit(script, "sliang", std::move(behavior)).value();
    // The mutation must invalidate all three outputs immediately, with no
    // simulated time passing.
    EXPECT_NE(server.pbsnodes_output(), idle_nodes);
    EXPECT_NE(server.pbsnodes_output().find("jobs = 0/" + id), std::string::npos);
    EXPECT_NE(server.qstat_output(), idle_qstat);
    EXPECT_NE(server.qstat_f_output().find("Job Id: " + id), std::string::npos);
}

TEST_F(TextFixture, BriefQstatTicksButPbsnodesIsHeartbeatStable) {
    JobScript script;
    script.resources.ppn = 1;
    JobBehavior behavior;
    behavior.run_time = sim::hours(2);
    ASSERT_TRUE(server.submit(script, "sliang", std::move(behavior)).ok());
    const std::uint64_t v = server.version();
    const std::string qstat_before = server.qstat_output();
    const std::string nodes_before = server.pbsnodes_output();
    const auto renders_before = server.text_stats().node_stanza_renders;
    engine.run_for(sim::minutes(5));  // nothing schedules: version unchanged
    ASSERT_EQ(server.version(), v);
    // The brief qstat's Time Use column embeds the clock, so that text must
    // move even though no mutation occurred.
    EXPECT_NE(server.qstat_output(), qstat_before);
    EXPECT_NE(server.qstat_output().find("00:05:00"), std::string::npos);
    // pbsnodes, by contrast, reports mom heartbeats: rectime/idletime come
    // from each node's last report, so with no state change the output is
    // byte-stable and no stanza is re-rendered.
    EXPECT_EQ(server.pbsnodes_output(), nodes_before);
    EXPECT_EQ(server.text_stats().node_stanza_renders, renders_before);
    // A real mutation moves the heartbeat again.
    ASSERT_TRUE(server.set_node_offline("enode02.eridani.qgg.hud.ac.uk", true).ok());
    EXPECT_NE(server.pbsnodes_output(), nodes_before);
    EXPECT_GT(server.text_stats().node_stanza_renders, renders_before);
}

// ---- byte golden ---------------------------------------------------------
// Every qstat -f and pbsnodes listing a seeded churn produces, plus its
// accounting log, hashed into one number. A change to how the server keeps
// placements, owners or stanzas must leave this hash alone; a change meant
// to alter the bytes must say so and re-record it.

std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) {
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

// Recorded from the code before PbsServer derived exec_host at render time
// (when each job still kept its per-CPU exec slots and each node record its
// own cpu_owner vector); the render-time derivation reproduces it.
constexpr std::uint64_t kChurnTextHash = 6237786237075762389ull;

TEST(PbsTextGolden, SeededChurnTextMatchesTheRecordedHash) {
    sim::Engine engine;
    cluster::ClusterConfig ccfg;
    ccfg.node_count = 8;
    ccfg.timing.jitter = 0;
    cluster::Cluster cluster(engine, ccfg);
    PbsServer server(engine);
    AccountingLog log;
    log.attach(server);
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

    std::uint64_t hash = 14695981039346656037ull;
    const auto take = [&] {
        hash = fnv1a(hash, server.qstat_f_output());
        hash = fnv1a(hash, server.pbsnodes_output());
    };
    const auto submit = [&](int nodes, int ppn, bool rerunnable, double run_s) {
        JobScript script;
        script.name = "churn";
        script.resources.nodes = nodes;
        script.resources.ppn = ppn;
        script.rerunnable = rerunnable;
        JobBehavior behavior;
        behavior.run_time = sim::seconds(run_s);
        auto id = server.submit(script, "sliang", std::move(behavior));
        EXPECT_TRUE(id.ok()) << id.error_message();
        return id.ok() ? id.value() : std::string();
    };

    // Two long jobs share the first node (cpus 3,2 and 1,0); the reboot
    // below requeues the rerunnable one and aborts the other. The churn
    // never picks them.
    const std::string requeued = submit(1, 2, /*rerunnable=*/true, 36'000);
    const std::string aborted = submit(1, 2, /*rerunnable=*/false, 36'000);
    take();

    util::Rng rng(2012);
    std::vector<std::string> ids;
    const auto pick = [&] {
        return ids[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
    };
    for (int step = 0; step < 240; ++step) {
        if (step == 80) cluster.node(0).reboot();
        const auto roll = rng.uniform_int(0, 99);
        if (roll < 45 || ids.empty()) {
            ids.push_back(submit(static_cast<int>(rng.uniform_int(1, 3)),
                                 static_cast<int>(rng.uniform_int(1, 4)), rng.chance(0.7),
                                 rng.uniform(60, 2400)));
        } else if (roll < 55) {
            (void)server.qdel(pick());
        } else if (roll < 63) {
            (void)server.qhold(pick());
        } else if (roll < 71) {
            (void)server.qrls(pick());
        }
        engine.run_for(sim::seconds(rng.uniform(0, 300)));
        take();
    }
    engine.run_all();
    take();
    hash = fnv1a(hash, log.text());

    // The churn reached what the hash is meant to cover.
    EXPECT_EQ(server.find_job(requeued)->requeue_count, 1);
    EXPECT_EQ(server.find_job(aborted)->completion, CompletionKind::kNodeFailure);
    EXPECT_GT(server.stats().deleted, 0u);
    EXPECT_GT(server.stats().started, 100u);
    EXPECT_EQ(hash, kChurnTextHash);
}

}  // namespace
}  // namespace hc::pbs
