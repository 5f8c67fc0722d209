// Tests for the TORQUE-style accounting log: event capture, record format,
// parse round-trip, and summary cross-checks against the server's own stats.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "pbs/accounting.hpp"
#include "util/rng.hpp"
#include "util/time_format.hpp"

namespace hc::pbs {
namespace {

using cluster::OsType;

struct AccountingFixture : ::testing::Test {
    sim::Engine engine;
    cluster::Cluster cluster{engine, [] {
                                 cluster::ClusterConfig cfg;
                                 cfg.node_count = 4;
                                 cfg.timing.jitter = 0;
                                 return cfg;
                             }()};
    PbsServer server{engine};
    AccountingLog log;

    void SetUp() override {
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
    }

    std::string submit(int nodes, int ppn, sim::Duration run_time, bool rerunnable = true) {
        JobScript script;
        script.resources.nodes = nodes;
        script.resources.ppn = ppn;
        script.rerunnable = rerunnable;
        JobBehavior behavior;
        behavior.run_time = run_time;
        return server.submit(script, "sliang", std::move(behavior)).value();
    }
};

TEST_F(AccountingFixture, NormalLifecycleWritesQSE) {
    const std::string id = submit(1, 4, sim::minutes(5));
    engine.run_all();
    const auto records = parse_accounting_log(log.text());
    ASSERT_TRUE(records.ok()) << records.error_message();
    ASSERT_EQ(records.value().size(), 3u);
    EXPECT_EQ(records.value()[0].type, 'Q');
    EXPECT_EQ(records.value()[1].type, 'S');
    EXPECT_EQ(records.value()[2].type, 'E');
    for (const auto& rec : records.value()) EXPECT_EQ(rec.job_id, id);
}

TEST_F(AccountingFixture, RecordFieldsAreTorqueLike) {
    submit(1, 4, sim::minutes(5));
    engine.run_all();
    const auto records = parse_accounting_log(log.text()).value();
    const AccountingRecord& start = records[1];
    ASSERT_NE(start.find("user"), nullptr);
    EXPECT_EQ(*start.find("user"), "sliang");
    EXPECT_EQ(*start.find("queue"), "default");
    ASSERT_NE(start.find("exec_host"), nullptr);
    EXPECT_NE(start.find("exec_host")->find("/3+"), std::string::npos);
    EXPECT_EQ(*start.find("Resource_List.nodes"), "1:ppn=4");

    const AccountingRecord& end = records[2];
    ASSERT_NE(end.find("resources_used.walltime"), nullptr);
    EXPECT_EQ(*end.find("resources_used.walltime"), "00:05:00");
    EXPECT_EQ(*end.find("Exit_status"), "0");
}

TEST_F(AccountingFixture, TimestampMatchesSimCalendar) {
    submit(1, 1, sim::seconds(1));
    const auto records = parse_accounting_log(log.text()).value();
    // Sim epoch is 2010-04-16; the Q record carries that date and the exact
    // simulated second of submission.
    EXPECT_EQ(records[0].unix_time, server.engine().unix_now());
    const util::CivilTime c = util::unix_to_civil(records[0].unix_time);
    EXPECT_EQ(c.year, 2010);
    EXPECT_EQ(c.month, 4);
    EXPECT_EQ(c.day, 16);
}

TEST_F(AccountingFixture, DeleteWritesD) {
    submit(4, 4, sim::hours(1));
    const std::string waiting = submit(1, 4, sim::hours(1));
    ASSERT_TRUE(server.qdel(waiting).ok());
    const auto records = parse_accounting_log(log.text()).value();
    int deletes = 0;
    for (const auto& rec : records)
        if (rec.type == 'D' && rec.job_id == waiting) ++deletes;
    EXPECT_EQ(deletes, 1);
}

TEST_F(AccountingFixture, AbortAndRequeueRecorded) {
    // Non-rerunnable job killed by node loss -> A with non-zero exit.
    const std::string fragile = submit(1, 4, sim::hours(1), /*rerunnable=*/false);
    const Job* job = server.find_job(fragile);
    cluster.node(server.exec_node_index(*job, 0)).reboot();
    // Rerunnable job requeued by node loss -> R.
    engine.run_all();
    const std::string robust = submit(4, 4, sim::hours(1));
    const Job* robust_job = server.find_job(robust);
    cluster.node(server.exec_node_index(*robust_job, 0)).reboot();
    engine.run_all();

    const auto records = parse_accounting_log(log.text()).value();
    bool saw_abort = false, saw_requeue = false;
    for (const auto& rec : records) {
        if (rec.type == 'A' && rec.job_id == fragile) {
            saw_abort = true;
            EXPECT_EQ(*rec.find("Exit_status"), "271");
        }
        if (rec.type == 'R' && rec.job_id == robust) saw_requeue = true;
    }
    EXPECT_TRUE(saw_abort);
    EXPECT_TRUE(saw_requeue);
}

TEST_F(AccountingFixture, SummaryMatchesServerStats) {
    for (int i = 0; i < 5; ++i) submit(1, 4, sim::minutes(10 + i));
    const std::string doomed = submit(4, 4, sim::hours(9));
    engine.run_for(sim::minutes(2));
    (void)server.qdel(doomed);
    engine.run_all();

    const auto records = parse_accounting_log(log.text()).value();
    const AccountingSummary summary = summarise_accounting(records);
    EXPECT_EQ(summary.queued, server.stats().submitted);
    EXPECT_EQ(summary.ended, server.stats().completed_normal);
    EXPECT_EQ(summary.deleted, server.stats().deleted);
    // 5 jobs x 4 cpus x (10..14 min) = 4 * 60 * (10+11+12+13+14) s.
    EXPECT_DOUBLE_EQ(summary.consumed_cpu_seconds, 4.0 * 60.0 * (10 + 11 + 12 + 13 + 14));
}

TEST_F(AccountingFixture, ParserRejectsJunk) {
    EXPECT_FALSE(parse_accounting_log("not a record\n").ok());
    EXPECT_FALSE(parse_accounting_log("04/16/2010 00:00:00;X\n").ok());
    EXPECT_FALSE(parse_accounting_log("junk;Q;1.x;user=a\n").ok());
    EXPECT_FALSE(parse_accounting_log("04/16/2010 00:00:00;QQ;1.x;user=a\n").ok());
    EXPECT_FALSE(parse_accounting_log("04/16/2010 00:00:00;Q;1.x;loose-token\n").ok());
    EXPECT_TRUE(parse_accounting_log("").ok());
}

TEST_F(AccountingFixture, LineCountTracksEvents) {
    EXPECT_EQ(log.line_count(), 0u);
    submit(1, 1, sim::seconds(5));
    engine.run_all();
    EXPECT_EQ(log.line_count(), 3u);  // Q, S, E
}

TEST_F(AccountingFixture, JobNamesWithFramingCharactersRoundTrip) {
    // The record format's own framing characters must survive the
    // writer -> parser trip inside values.
    const std::string awkward[] = {
        "my job",            // token separator
        "a;b;c",             // record separator
        "50% done",          // the escape character itself
        "%20already%3b",     // text that looks pre-escaped
        "x=y",               // '=' inside a value
        " lead-and-trail ",  // boundary whitespace
    };
    for (const auto& name : awkward) {
        JobScript script;
        script.resources.nodes = 1;
        script.resources.ppn = 1;
        script.name = name;
        JobBehavior behavior;
        behavior.run_time = sim::seconds(30);
        ASSERT_TRUE(server.submit(script, "sliang", std::move(behavior)).ok());
    }
    engine.run_all();
    const auto records = parse_accounting_log(log.text());
    ASSERT_TRUE(records.ok()) << records.error_message();
    std::vector<std::string> names;
    for (const auto& rec : records.value())
        if (rec.type == 'Q') names.push_back(*rec.find("jobname"));
    ASSERT_EQ(names.size(), std::size(awkward));
    for (std::size_t i = 0; i < names.size(); ++i) EXPECT_EQ(names[i], awkward[i]);
}

TEST_F(AccountingFixture, RandomizedLifecyclesRoundTripAndSummarise) {
    // Property test: random job mixes (sizes, runtimes, odd names, deletes,
    // node-loss aborts/requeues) always produce a log that parses back
    // losslessly and whose summary matches the server's own counters.
    util::Rng rng(20120924);  // CLUSTER 2012 — any fixed seed works
    const std::string alphabet = "abcXYZ019 %;=_.-";
    std::vector<std::pair<std::string, std::string>> submitted;  // id -> name
    std::vector<std::string> deletable;
    for (int i = 0; i < 40; ++i) {
        JobScript script;
        script.resources.nodes = 1 + rng.uniform_int(0, 2);
        script.resources.ppn = 1 + rng.uniform_int(0, 3);
        script.rerunnable = rng.chance(0.5);
        std::string name;
        const int len = 1 + rng.uniform_int(0, 11);
        for (int c = 0; c < len; ++c)
            name += alphabet[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<int>(alphabet.size()) - 1))];
        script.name = name;
        JobBehavior behavior;
        behavior.run_time = sim::seconds(30 + rng.uniform_int(0, 1800));
        auto id = server.submit(script, "sliang", std::move(behavior));
        ASSERT_TRUE(id.ok());
        submitted.emplace_back(id.value(), name);
        if (rng.chance(0.2)) deletable.push_back(id.value());
        if (rng.chance(0.3)) engine.run_for(sim::minutes(rng.uniform_int(1, 10)));
        if (rng.chance(0.1)) {
            // Knock a busy node over: running jobs there abort or requeue.
            cluster::Node& victim = cluster.node(rng.uniform_int(0, 3));
            if (victim.is_up()) victim.reboot();
        }
    }
    for (const auto& id : deletable) (void)server.qdel(id);
    engine.run_all();

    const auto records = parse_accounting_log(log.text());
    ASSERT_TRUE(records.ok()) << records.error_message();
    ASSERT_EQ(records.value().size(), log.line_count());

    // Every Q record's jobname survives the trip verbatim.
    std::size_t q_seen = 0;
    for (const auto& rec : records.value()) {
        if (rec.type != 'Q') continue;
        ASSERT_LT(q_seen, submitted.size());
        EXPECT_EQ(rec.job_id, submitted[q_seen].first);
        ASSERT_NE(rec.find("jobname"), nullptr);
        EXPECT_EQ(*rec.find("jobname"), submitted[q_seen].second);
        ++q_seen;
    }
    EXPECT_EQ(q_seen, submitted.size());

    const AccountingSummary summary = summarise_accounting(records.value());
    EXPECT_EQ(summary.queued, server.stats().submitted);
    EXPECT_EQ(summary.started, server.stats().started);
    EXPECT_EQ(summary.ended, server.stats().completed_normal);
    EXPECT_EQ(summary.deleted, server.stats().deleted);
    EXPECT_EQ(summary.aborted, server.stats().aborted_node_failure);
    EXPECT_EQ(summary.requeued, server.stats().requeued);
}

}  // namespace
}  // namespace hc::pbs
