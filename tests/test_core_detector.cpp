// Detector tests: the PBS detector must work purely from command text (the
// paper's no-API constraint); the Windows detector uses the SDK.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "core/detector.hpp"
#include "util/errors.hpp"

namespace hc::core {
namespace {

using cluster::OsType;

// ---------- parse_qstat_f on canned text ----------

constexpr const char* kCannedQstat =
    "Job Id: 1185.eridani.qgg.hud.ac.uk\n"
    "    Job_Name = sleep\n"
    "    Job_Owner = sliang@eridani.qgg.hud.ac.uk\n"
    "    job_state = R\n"
    "    queue = default\n"
    "    Resource_List.nodes = 1:ppn=4\n"
    "\n"
    "Job Id: 1186.eridani.qgg.hud.ac.uk\n"
    "    Job_Name = waiting1\n"
    "    Job_Owner = u@eridani.qgg.hud.ac.uk\n"
    "    job_state = Q\n"
    "    Resource_List.nodes = 2:ppn=4\n"
    "\n"
    "Job Id: 1187.eridani.qgg.hud.ac.uk\n"
    "    Job_Name = waiting2\n"
    "    job_state = Q\n"
    "    Resource_List.nodes = 1:ppn=1\n";

TEST(QstatParse, CountsStatesAndFirstQueued) {
    const auto parse = PbsDetector::parse_qstat_f(kCannedQstat);
    ASSERT_TRUE(parse.ok()) << parse.error_message();
    EXPECT_EQ(parse.value().running, 1);
    EXPECT_EQ(parse.value().queued, 2);
    EXPECT_EQ(parse.value().first_queued_id, "1186.eridani.qgg.hud.ac.uk");
    EXPECT_EQ(parse.value().first_queued_cpus, 8);  // 2 nodes x ppn 4
    EXPECT_EQ(parse.value().first_running_id, "1185.eridani.qgg.hud.ac.uk");
    EXPECT_EQ(parse.value().first_running_name, "sleep");
}

TEST(QstatParse, EmptyTextIsZero) {
    const auto parse = PbsDetector::parse_qstat_f("");
    ASSERT_TRUE(parse.ok());
    EXPECT_EQ(parse.value().running, 0);
    EXPECT_EQ(parse.value().queued, 0);
}

TEST(QstatParse, ExitingCountsAsRunning) {
    const auto parse = PbsDetector::parse_qstat_f(
        "Job Id: 1.x\n    job_state = E\n    Resource_List.nodes = 1\n");
    ASSERT_TRUE(parse.ok());
    EXPECT_EQ(parse.value().running, 1);
}

TEST(QstatParse, BadResourceListOnFirstQueuedIsError) {
    const auto parse = PbsDetector::parse_qstat_f(
        "Job Id: 1.x\n    job_state = Q\n    Resource_List.nodes = banana\n");
    EXPECT_FALSE(parse.ok());
}

TEST(CountIdleNodes, FreeWithoutJobsOnly) {
    const std::string text =
        "enode01.x\n"
        "     state = free\n"
        "     np = 4\n"
        "\n"
        "enode02.x\n"
        "     state = free\n"
        "     jobs = 0/1.x\n"
        "\n"
        "enode03.x\n"
        "     state = down\n"
        "\n"
        "enode04.x\n"
        "     state = free\n";
    EXPECT_EQ(PbsDetector::count_idle_nodes(text), 2);
    EXPECT_EQ(PbsDetector::count_idle_nodes(""), 0);
}

// ---------- detectors against live servers ----------

struct DetectorFixture : ::testing::Test {
    sim::Engine engine;
    cluster::Cluster cluster{engine, [] {
                                 cluster::ClusterConfig cfg;
                                 cfg.node_count = 4;
                                 cfg.timing.jitter = 0;
                                 return cfg;
                             }()};
    pbs::PbsServer pbs{engine};
    winhpc::HpcScheduler winhpc{engine};

    void boot_all(OsType os) {
        for (auto* node : cluster.nodes()) {
            node->set_boot_resolver([os](const cluster::Node&) {
                cluster::BootDecision d;
                d.os = os;
                return d;
            });
            pbs.attach_node(*node);
            winhpc.attach_node(*node);
            node->power_on();
        }
        engine.run_all();
    }
};

TEST_F(DetectorFixture, PbsDetectorIdleState) {
    boot_all(OsType::kLinux);
    PbsDetector detector(pbs);
    const QueueSnapshot snap = detector.check();
    EXPECT_FALSE(snap.record.stuck);
    EXPECT_EQ(snap.record.encode(), "00000none");
    EXPECT_EQ(snap.idle_nodes, 4);
    EXPECT_NE(detector.fig6_text().find("Other state"), std::string::npos);
    EXPECT_NE(detector.fig6_text().find("R=0 nR=0"), std::string::npos);
}

TEST_F(DetectorFixture, PbsDetectorRunningNoQueue) {
    boot_all(OsType::kLinux);
    pbs::JobScript script;
    script.resources.ppn = 4;
    script.name = "sleep";
    pbs::JobBehavior behavior;
    behavior.run_time = sim::hours(1);
    ASSERT_TRUE(pbs.submit(script, "sliang", std::move(behavior)).ok());
    PbsDetector detector(pbs);
    const QueueSnapshot snap = detector.check();
    EXPECT_FALSE(snap.record.stuck);
    EXPECT_EQ(snap.running, 1);
    // The Fig 6 "running" debug block, with the paper's Job_Ownner spelling.
    EXPECT_NE(detector.fig6_text().find("Job running, no queuing."), std::string::npos);
    EXPECT_NE(detector.fig6_text().find("Job_Name=sleep"), std::string::npos);
    EXPECT_NE(detector.fig6_text().find("Job_Ownner=sliang@eridani.qgg.hud.ac.uk"),
              std::string::npos);
    EXPECT_NE(detector.fig6_text().find("state=R"), std::string::npos);
    EXPECT_NE(detector.fig6_text().find("time=2010 04 1"), std::string::npos);
    EXPECT_EQ(snap.idle_nodes, 3);
}

TEST_F(DetectorFixture, PbsDetectorStuckState) {
    // All nodes are in Windows: PBS sees them down, a queued job is stuck.
    boot_all(OsType::kWindows);
    pbs::JobScript script;
    script.resources.nodes = 1;
    script.resources.ppn = 4;
    const auto id = pbs.submit(script, "u").value();
    PbsDetector detector(pbs);
    const QueueSnapshot snap = detector.check();
    EXPECT_TRUE(snap.record.stuck);
    EXPECT_EQ(snap.record.needed_cpus, 4);
    EXPECT_EQ(snap.record.stuck_job_id, id);
    EXPECT_EQ(snap.idle_nodes, 0);
    EXPECT_NE(detector.fig6_text().find("Queue stuck"), std::string::npos);
    EXPECT_NE(detector.fig6_text().find("R=0 nR=1"), std::string::npos);
}

TEST_F(DetectorFixture, PbsDetectorSurvivesGarbageText) {
    PbsDetector detector([] { return std::string("Job Id: 1.x\n    job_state = Q\n"
                                                 "    Resource_List.nodes = ???\n"); },
                         [] { return std::string(""); }, [] { return std::int64_t{0}; });
    const QueueSnapshot snap = detector.check();
    EXPECT_FALSE(snap.record.stuck);  // fails safe
    EXPECT_NE(detector.fig6_text().find("parse error"), std::string::npos);
}

TEST_F(DetectorFixture, ServerWiredDetectorStreamsChangedStanzasOnly) {
    boot_all(OsType::kLinux);
    pbs::JobScript script;
    script.resources.ppn = 4;
    pbs::JobBehavior behavior;
    behavior.run_time = sim::hours(1);
    ASSERT_TRUE(pbs.submit(script, "u", std::move(behavior)).ok());

    PbsDetector detector(pbs);
    (void)detector.check();
    const std::string first_text = detector.fig6_text();
    // The first poll walks both documents: one resync each.
    EXPECT_EQ(detector.poll_stats().resyncs, 2u);
    const std::uint64_t synced_parses = detector.poll_stats().stanza_parses;
    EXPECT_EQ(synced_parses, 5u);  // four node stanzas and one job stanza

    // Nothing moved: the second poll re-parses no stanza and does not resync.
    const QueueSnapshot second = detector.check();
    EXPECT_EQ(detector.poll_stats().polls, 2u);
    EXPECT_EQ(detector.poll_stats().resyncs, 2u);
    EXPECT_EQ(detector.poll_stats().stanza_parses, synced_parses);
    EXPECT_EQ(detector.fig6_text(), first_text);

    // And it reads exactly what the whole-string scraper reads.
    PbsDetector oracle([this] { return pbs.qstat_f_output(); },
                       [this] { return pbs.pbsnodes_output(); },
                       [this] { return engine.unix_now(); });
    const QueueSnapshot want = oracle.check();
    EXPECT_EQ(second.record, want.record);
    EXPECT_EQ(second.running, want.running);
    EXPECT_EQ(second.queued, want.queued);
    EXPECT_EQ(second.idle_nodes, want.idle_nodes);
    EXPECT_EQ(detector.fig6_text(), oracle.fig6_text());
}

TEST_F(DetectorFixture, ServerWiredShimRefusesWholeStringMode) {
    EXPECT_THROW((void)PbsDetector(pbs, false), util::PreconditionError);
    EXPECT_NO_THROW((void)PbsDetector(pbs, true));
}

TEST_F(DetectorFixture, WinDetectorIdle) {
    boot_all(OsType::kWindows);
    WinHpcDetector detector(winhpc);
    const QueueSnapshot snap = detector.check();
    EXPECT_FALSE(snap.record.stuck);
    EXPECT_EQ(snap.idle_nodes, 4);
}

TEST_F(DetectorFixture, WinDetectorStuck) {
    boot_all(OsType::kLinux);  // Windows sees every node unreachable
    winhpc::HpcJobSpec spec;
    spec.unit = winhpc::JobUnitType::kNode;
    spec.min_resources = 2;
    const int id = winhpc.submit_job(std::move(spec));
    WinHpcDetector detector(winhpc);
    const QueueSnapshot snap = detector.check();
    EXPECT_TRUE(snap.record.stuck);
    EXPECT_EQ(snap.record.needed_cpus, 8);
    EXPECT_EQ(snap.record.stuck_job_id, std::to_string(id) + ".winhpc");
    EXPECT_EQ(detector.fig6_text(),
              snap.record.encode() + "\nQueue stuck\nR=0 nR=1\n");
}

TEST_F(DetectorFixture, WinDetectorRunningNotStuck) {
    boot_all(OsType::kWindows);
    winhpc::HpcJobSpec running;
    running.min_resources = 4;
    running.run_time = sim::hours(1);
    (void)winhpc.submit_job(std::move(running));
    winhpc::HpcJobSpec queued;
    queued.min_resources = 1;
    (void)winhpc.submit_job(std::move(queued));
    WinHpcDetector detector(winhpc);
    const QueueSnapshot snap = detector.check();
    EXPECT_FALSE(snap.record.stuck);  // something is running
    EXPECT_EQ(snap.running, 1);
    EXPECT_EQ(snap.queued, 1);
}

}  // namespace
}  // namespace hc::core
