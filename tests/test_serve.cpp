// hc::serve — the submission-service front door.
//
// The bars these tests pin:
//  * admission is explicit: the channel refuses past its bound, token
//    buckets rate-limit at the door, overload sheds at drain time — each
//    with its own typed rejection, and every request gets exactly one
//    response (conservation);
//  * determinism: a fixed spec yields byte-identical counters and report
//    text whether replicas run on 1 thread or 4 (the hc::sweep contract);
//  * the satellites: spec-loadable arrival processes, the shared
//    status-JSON renderer, cycle-aligned PeriodicTask start, and p99 in
//    metrics snapshots.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/metrics.hpp"
#include "pbs/server.hpp"
#include "serve/backend.hpp"
#include "serve/channel.hpp"
#include "serve/runner.hpp"
#include "serve/service.hpp"
#include "serve/spec.hpp"
#include "sim/engine.hpp"
#include "sweep/runner.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/status_json.hpp"
#include "winhpc/scheduler.hpp"
#include "workload/arrival.hpp"

namespace {

using namespace hc;

// ---------------------------------------------------------------- channel --

TEST(BoundedChannel, RefusesPastCapacityAndDrainsFifo) {
    serve::BoundedChannel<int> channel(2);
    EXPECT_TRUE(channel.try_push(1));
    EXPECT_TRUE(channel.try_push(2));
    EXPECT_FALSE(channel.try_push(3));  // full: refused, not silently dropped
    EXPECT_EQ(channel.size(), 2u);
    EXPECT_EQ(channel.pushed(), 2u);
    EXPECT_EQ(channel.refused(), 1u);
    EXPECT_EQ(channel.high_water(), 2u);

    std::vector<int> out;
    EXPECT_EQ(channel.drain(1, out), 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 1);  // FIFO
    EXPECT_EQ(channel.drain(10, out), 1u);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1], 2);
    EXPECT_TRUE(channel.empty());
    EXPECT_EQ(channel.drain(10, out), 0u);
}

// ---------------------------------------------------------------- arrival --

TEST(ArrivalSpec, FlatSpecDrawsMatchLegacyFixedRate) {
    workload::ArrivalSpec spec;
    spec.rate_per_hour = 8.0;
    ASSERT_TRUE(spec.flat());
    workload::ArrivalProcess process(spec);

    // Same Rng state must produce the exact draw the old hardcoded
    // `exponential(3600/rate)` made — golden traces stay valid.
    util::Rng a(42);
    util::Rng b(42);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(process.next_gap_s(a, 1000.0 * i), b.exponential(3600.0 / 8.0));
}

TEST(ArrivalSpec, DiurnalAndBurstMultipliersCompose) {
    workload::ArrivalSpec spec;
    spec.rate_per_hour = 10.0;
    spec.diurnal.assign(24, 1.0);
    spec.diurnal[0] = 0.5;
    spec.diurnal[9] = 2.0;
    EXPECT_FALSE(spec.flat());
    EXPECT_DOUBLE_EQ(spec.multiplier_at(0.25), 0.5);
    EXPECT_DOUBLE_EQ(spec.multiplier_at(9.75), 2.0);
    EXPECT_DOUBLE_EQ(spec.multiplier_at(24.5), 0.5);  // day wraps
    EXPECT_DOUBLE_EQ(spec.rate_at(9.0), 20.0);

    spec.diurnal.clear();
    spec.burst_factor = 3.0;
    spec.burst_hours = 1.0;
    spec.burst_every_hours = 6.0;
    EXPECT_DOUBLE_EQ(spec.multiplier_at(0.5), 3.0);   // inside the window
    EXPECT_DOUBLE_EQ(spec.multiplier_at(1.5), 1.0);   // after it
    EXPECT_DOUBLE_EQ(spec.multiplier_at(6.5), 3.0);   // next period

    // A zero diurnal hour clamps instead of stalling the sampler forever.
    workload::ArrivalSpec dead;
    dead.diurnal.assign(24, 0.0);
    EXPECT_DOUBLE_EQ(dead.multiplier_at(3.0), 1e-3);
}

TEST(ArrivalSpec, ParseRejectsMalformedBlocks) {
    auto parse = [](const std::string& text) {
        auto doc = util::JsonReader(text).parse();
        EXPECT_TRUE(doc.ok());
        return workload::parse_arrival_spec(doc.value());
    };
    EXPECT_TRUE(parse("{\"rate_per_hour\": 4.0}").ok());
    EXPECT_FALSE(parse("{\"rate_per_hour\": -1}").ok());
    EXPECT_FALSE(parse("{\"burst_factor\": 0}").ok());
    EXPECT_FALSE(parse("{\"diurnal\": [1, 2, 3]}").ok());  // not 24 entries
    EXPECT_FALSE(parse("{\"diurnal\": [1,1,1,1,1,1,1,1,1,1,1,1,"
                       "1,1,1,1,1,1,1,1,1,1,1,\"x\"]}")
                     .ok());
}

// ------------------------------------------------------------------- spec --

TEST(ServeSpec, ParsesAndValidates) {
    auto ok = serve::parse_serve_spec(
        "{\"schema\": \"hc-serve-spec/1\", \"clients\": 20, \"nodes\": 8,"
        " \"hours\": 0.5, \"backend\": \"winhpc\","
        " \"admission\": {\"queue_capacity\": 32, \"per_client_rate_per_min\": 5},"
        " \"arrival\": {\"rate_per_hour\": 12}}");
    ASSERT_TRUE(ok.ok()) << ok.error_message();
    EXPECT_EQ(ok.value().clients, 20);
    EXPECT_EQ(ok.value().backend, serve::BackendKind::kWinHpc);
    EXPECT_EQ(ok.value().admission.queue_capacity, 32u);
    EXPECT_DOUBLE_EQ(ok.value().arrival.rate_per_hour, 12.0);

    EXPECT_FALSE(serve::parse_serve_spec("{\"schema\": \"other/1\"}").ok());
    EXPECT_FALSE(serve::parse_serve_spec(
                     "{\"schema\": \"hc-serve-spec/1\", \"backend\": \"slurm\"}")
                     .ok());
    EXPECT_FALSE(serve::parse_serve_spec(
                     "{\"schema\": \"hc-serve-spec/1\", \"clients\": 0}")
                     .ok());
    EXPECT_FALSE(serve::parse_serve_spec(
                     "{\"schema\": \"hc-serve-spec/1\", \"arrival\": {\"rate_per_hour\": 0}}")
                     .ok());
}

// ---------------------------------------------------------- periodic task --

TEST(PeriodicTask, StartAlignedFiresOnWholeIntervalBoundaries) {
    sim::Engine engine;
    std::vector<std::int64_t> ticks;
    sim::PeriodicTask task(engine, sim::seconds(10),
                           [&] { ticks.push_back(engine.now().ms); });
    engine.schedule_after(sim::Duration{3'500}, [&] { task.start_aligned(); });
    engine.run_until(sim::TimePoint{30'500});
    task.stop();
    ASSERT_EQ(ticks.size(), 3u);
    EXPECT_EQ(ticks[0], 10'000);  // next whole multiple after 3.5 s
    EXPECT_EQ(ticks[1], 20'000);
    EXPECT_EQ(ticks[2], 30'000);
}

// ---------------------------------------------------------------- metrics --

TEST(Metrics, SnapshotAndJsonCarryTailPercentiles) {
    obs::Registry registry;
    registry.set_enabled(true);
    auto h = registry.histogram("latency_ms", 0, 1000, 100);
    for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i * 10));
    const obs::MetricsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_GT(snap.histograms[0].p99, snap.histograms[0].p50);
    EXPECT_GE(snap.histograms[0].p99, snap.histograms[0].p95);
    EXPECT_NE(snap.to_json().find("\"p99\":"), std::string::npos);
}

// ------------------------------------------------------------ status json --

TEST(StatusJson, SharedRendererEmitsCheckqueueSchemaBytes) {
    util::QueueStatusFields fields;
    fields.stuck = true;
    fields.needed_cpus = 16;
    fields.stuck_job = "100041191.eridani";
    fields.running = 3;
    fields.queued = 2;
    fields.idle_nodes = 1;
    fields.wire = "Q 16";
    EXPECT_EQ(util::render_queue_status_json("hc-checkqueue/1", fields),
              "{\"schema\": \"hc-checkqueue/1\", \"stuck\": true, \"needed_cpus\": 16, "
              "\"stuck_job\": \"100041191.eridani\", \"running\": 3, \"queued\": 2, "
              "\"idle_nodes\": 1, \"wire\": \"Q 16\"}");
    const util::JsonExtras extras = {{"staleness_s", "42"}, {"free_cpus", "8"}};
    const std::string with_extras =
        util::render_queue_status_json("hc-checkqueue/1", fields, extras);
    EXPECT_NE(with_extras.find(", \"staleness_s\": 42, \"free_cpus\": 8}"),
              std::string::npos);
}

// ------------------------------------------------- direct service testbed --

constexpr const char* kScript =
    "#!/bin/bash\n#PBS -N t\n#PBS -l nodes=1:ppn=4\n./t\n";

/// A booted PBS mini-cluster with the serve backend over it.
struct MiniPbs {
    sim::Engine engine;
    cluster::Cluster cluster;
    pbs::PbsServer server;
    serve::PbsBackend backend;

    explicit MiniPbs(int nodes)
        : cluster(engine, make_cluster_config(nodes)), server(engine, {}), backend(server) {
        engine.logger().set_min_level(util::LogLevel::kError);
        for (auto* node : cluster.nodes()) {
            node->set_boot_resolver([](const cluster::Node&) {
                cluster::BootDecision decision;
                decision.os = cluster::OsType::kLinux;
                return decision;
            });
            server.attach_node(*node);
            node->power_on();
        }
        engine.run_all();
    }

    static cluster::ClusterConfig make_cluster_config(int nodes) {
        cluster::ClusterConfig cfg;
        cfg.node_count = nodes;
        cfg.timing.jitter = 0;
        return cfg;
    }
};

TEST(SubmissionService, TokenBucketRateLimitsAtTheDoor) {
    MiniPbs testbed(4);
    serve::ServiceConfig cfg;
    cfg.admission.burst_tokens = 3;
    cfg.admission.per_client_rate_per_min = 1;
    serve::SubmissionService service(testbed.engine, testbed.backend, cfg);
    serve::InProcSession session;
    const int id = service.connect(session, "alice");
    service.start();

    // A 10-submit burst against a 3-deep bucket: 3 enqueue, 7 rejected
    // synchronously at the door.
    for (int i = 0; i < 10; ++i) service.submit(id, kScript, sim::minutes(10));
    EXPECT_EQ(session.stats().rejected, 7u);
    EXPECT_EQ(session.stats().rejects_by_reason[static_cast<int>(
                  serve::RejectReason::kRateLimited)],
              7u);

    testbed.engine.run_for(sim::seconds(5));  // let the cycle drain
    EXPECT_EQ(session.stats().accepted, 3u);
    EXPECT_EQ(service.counters().requests, 10u);
    EXPECT_EQ(service.counters().answered(), 10u);

    // After a minute the bucket has refilled one token.
    testbed.engine.run_for(sim::minutes(1));
    service.submit(id, kScript, sim::minutes(10));
    testbed.engine.run_for(sim::seconds(5));
    EXPECT_EQ(session.stats().accepted, 4u);
    service.stop();
}

TEST(SubmissionService, AnswersInlineOnceStopped) {
    MiniPbs testbed(2);
    serve::SubmissionService service(testbed.engine, testbed.backend, {});
    serve::InProcSession session;
    const int id = service.connect(session, "bob");
    service.start();
    service.submit(id, kScript, sim::minutes(5));
    testbed.engine.run_for(sim::seconds(5));
    ASSERT_EQ(session.stats().accepted, 1u);
    const std::string job_id = session.last_job_id();

    service.stop();
    // With the cycle loop stopped, requests are answered synchronously —
    // nothing can sit in the inbox forever.
    service.query_status(id, job_id);
    EXPECT_EQ(session.stats().job_infos, 1u);
    service.query_status(id, "no-such-job");
    EXPECT_EQ(session.stats().rejects_by_reason[static_cast<int>(
                  serve::RejectReason::kUnknownJob)],
              1u);
    EXPECT_EQ(service.counters().answered(), service.counters().requests);
}

TEST(SubmissionService, BadScriptsGetTypedRejections) {
    MiniPbs testbed(2);
    serve::SubmissionService service(testbed.engine, testbed.backend, {});
    serve::InProcSession session;
    const int id = service.connect(session, "carol");
    service.start();
    service.submit(id, "#PBS -l nodes=zero:ppn=bad\n", sim::minutes(5));
    // 10^10 cpus: each count fits in int, their product does not.
    service.submit(id, "#PBS -l nodes=100000:ppn=100000\n", sim::minutes(5));
    testbed.engine.run_for(sim::seconds(5));
    EXPECT_EQ(session.stats().rejects_by_reason[static_cast<int>(
                  serve::RejectReason::kBadScript)],
              2u);
    service.stop();
}

/// A booted Windows HPC mini-cluster with the serve backend over it.
struct MiniWinHpc {
    sim::Engine engine;
    cluster::Cluster cluster;
    winhpc::HpcScheduler scheduler;
    serve::WinHpcBackend backend;

    explicit MiniWinHpc(int nodes)
        : cluster(engine, MiniPbs::make_cluster_config(nodes)),
          scheduler(engine, {}),
          backend(scheduler) {
        engine.logger().set_min_level(util::LogLevel::kError);
        for (auto* node : cluster.nodes()) {
            node->set_boot_resolver([](const cluster::Node&) {
                cluster::BootDecision decision;
                decision.os = cluster::OsType::kWindows;
                return decision;
            });
            scheduler.attach_node(*node);
            node->power_on();
        }
        engine.run_all();
    }
};

TEST(SubmissionService, WinHpcStatusQueriesTakeOnlyWholeIds) {
    MiniWinHpc testbed(2);
    serve::ServiceConfig cfg;
    cfg.admission.burst_tokens = 64;  // 12 submits and 10 queries, none rate-limited
    serve::SubmissionService service(testbed.engine, testbed.backend, cfg);
    serve::InProcSession session;
    const int id = service.connect(session, "dave");
    service.start();
    for (int i = 0; i < 12; ++i) service.submit(id, kScript, sim::minutes(5));
    testbed.engine.run_for(sim::seconds(5));
    ASSERT_EQ(session.stats().accepted, 12u);
    const std::string job_id = session.last_job_id();
    ASSERT_EQ(job_id, "12");
    service.stop();

    service.query_status(id, job_id);
    EXPECT_EQ(session.stats().job_infos, 1u);
    // Client-supplied ids: a suffix, a sign, a space, a negative, an empty
    // or an out-of-range number never reads as some job.
    const std::vector<std::string> strangers = {
        "12junk", job_id + " ", " " + job_id, "+" + job_id, "-1", "", "0",
        "99999999999999999999", "2147483648"};
    for (const std::string& stranger : strangers) service.query_status(id, stranger);
    EXPECT_EQ(session.stats().job_infos, 1u);
    EXPECT_EQ(session.stats().rejects_by_reason[static_cast<int>(
                  serve::RejectReason::kUnknownJob)],
              strangers.size());
    EXPECT_EQ(service.counters().answered(), service.counters().requests);
}

// --------------------------------------------------------- full-run bars --

serve::ServeSpec smoke_spec() {
    serve::ServeSpec spec;
    spec.clients = 50;
    spec.nodes = 32;
    spec.hours = 0.5;
    spec.seed = 7;
    spec.arrival.rate_per_hour = 6.0;
    spec.runtime_scale = 0.25;
    return spec;
}

/// Every request gets exactly one response, and the books balance across
/// fleet, service, sessions, and backend.
TEST(ServeRun, ConservationAcrossFleetServiceAndBackend) {
    const serve::ServeResult result = serve::run_serve(smoke_spec());
    const serve::ServeCounters& c = result.counters;
    EXPECT_GT(c.fleet.submits, 0u);
    EXPECT_EQ(c.fleet.requests(), c.service.requests);
    EXPECT_EQ(c.service.answered(), c.service.requests);
    EXPECT_EQ(c.sessions.responses(), c.service.answered());
    EXPECT_EQ(c.service.accepted, c.backend.submitted);
    EXPECT_EQ(c.backend.submitted,
              c.backend.completed + c.backend_queued_final +
                  (c.backend.started - c.backend.completed));
    // The detector polled, and the final staleness is fresh (a shutdown poll).
    EXPECT_GT(c.service.polls, 1u);
    EXPECT_EQ(c.staleness_at_end_s, 0);
}

serve::ServeSpec overload_spec(std::uint64_t seed) {
    serve::ServeSpec spec;
    spec.clients = 50;
    spec.nodes = 8;
    spec.hours = 0.25;
    spec.seed = seed;
    spec.arrival.rate_per_hour = 600.0;  // ~10 submits/min per client
    spec.admission.queue_capacity = 16;
    spec.admission.max_batch = 8;
    spec.admission.per_client_rate_per_min = 4;
    spec.admission.burst_tokens = 2;
    spec.admission.max_backend_queue = 10;
    return spec;
}

/// Drive the fleet well past every admission limit: the service must shed
/// with typed rejections, not fall over — and still answer everything.
TEST(ServeRun, OverloadShedsWithTypedRejections) {
    const serve::ServeResult result = serve::run_serve(overload_spec(7));
    const serve::ServeCounters& c = result.counters;
    EXPECT_GT(c.service.rejected_rate_limited, 0u);
    EXPECT_GT(c.service.rejected_shed, 0u);
    EXPECT_EQ(c.service.answered(), c.service.requests);
    EXPECT_EQ(c.sessions.responses(), c.service.requests);
    // Sheds happen at drain time, so the sessions saw them too.
    EXPECT_EQ(c.sessions.rejects_by_reason[static_cast<int>(
                  serve::RejectReason::kOverloadShed)],
              c.service.rejected_shed);
}

/// The sweep bar: replicas of the overload run must produce byte-identical
/// counters and report text at any thread count.
TEST(ServeRun, ReplicasAreThreadCountInvariant) {
    constexpr std::size_t kReplicas = 4;
    auto run_at = [&](int threads) {
        return sweep::map_indexed<serve::ServeResult>(
            kReplicas, threads, [&](std::size_t slot, sweep::WorkerContext& ctx) {
                return serve::run_serve(overload_spec(100 + slot), ctx.arena);
            });
    };
    const auto one = run_at(1);
    const auto four = run_at(4);
    ASSERT_EQ(one.size(), kReplicas);
    ASSERT_EQ(four.size(), kReplicas);
    for (std::size_t i = 0; i < kReplicas; ++i) {
        EXPECT_TRUE(one[i].counters == four[i].counters) << "replica " << i;
        EXPECT_EQ(one[i].render_report(false), four[i].render_report(false))
            << "replica " << i;
        EXPECT_GT(one[i].counters.service.rejected(), 0u) << "replica " << i;
    }
    // Different seeds genuinely diverge (the replicas are not aliased).
    EXPECT_FALSE(one[0].counters == one[1].counters);
}

}  // namespace
