// Scale-model tests (ISSUE 6): the indexed scheduler state and the
// incremental text/detector pipeline must be *externally indistinguishable*
// from the brute-force paths they replaced.
//
//  * randomized churn at 10k nodes: the incrementally patched pbsnodes /
//    qstat -f buffers stay byte-for-byte equal to a full re-render, and the
//    streaming detector reports the same snapshot as a fresh whole-string
//    scraper;
//  * steady-state polls at 100k nodes render zero stanzas (the acceptance
//    render-counter assertion);
//  * the P2 stream harness is golden-deterministic (bitwise-equal counters
//    run to run, with and without brute-force consistency checks);
//  * completed-job retention actually bounds live records;
//  * the detector survives a change-journal trim by resyncing.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "p2_scale.hpp"
#include "util/rng.hpp"
#include "winhpc/scheduler.hpp"

namespace hc {
namespace {

/// EXPECT_EQ on multi-megabyte strings prints both operands on failure;
/// report only the first divergence instead.
void expect_same_text(const std::string& got, const std::string& want, const char* what) {
    if (got == want) return;
    std::size_t pos = 0;
    const std::size_t n = std::min(got.size(), want.size());
    while (pos < n && got[pos] == want[pos]) ++pos;
    const auto ctx = [&](const std::string& s) {
        return s.substr(pos > 40 ? pos - 40 : 0, 120);
    };
    FAIL() << what << ": incremental text diverges from full render at byte " << pos
           << " (sizes " << got.size() << " vs " << want.size() << ")\n incremental: ..."
           << ctx(got) << "...\n full render: ..." << ctx(want) << "...";
}

void expect_same_snapshot(const core::QueueSnapshot& got, const core::QueueSnapshot& want,
                          const char* what) {
    EXPECT_EQ(got.record, want.record) << what;
    EXPECT_EQ(got.running, want.running) << what;
    EXPECT_EQ(got.queued, want.queued) << what;
    EXPECT_EQ(got.idle_nodes, want.idle_nodes) << what;
}

/// The reference oracle: a whole-string scraper over the server's assembled
/// qstat -f and pbsnodes text, sharing no state with the streaming path.
core::PbsDetector whole_string_detector(const pbs::PbsServer& server) {
    return core::PbsDetector([&server] { return server.qstat_f_output(); },
                             [&server] { return server.pbsnodes_output(); },
                             [] { return std::int64_t{0}; });
}

/// Drive one random operation against the server. Returns false when the op
/// was a no-op (e.g. acting on an already-finished job) — callers don't care.
void random_op(bench::P2Testbed& bed, util::Rng& rng, std::vector<std::string>& ids) {
    const auto pick_id = [&]() -> std::string {
        if (ids.empty()) return "none";
        return ids[rng.uniform_int(0, static_cast<std::uint64_t>(ids.size()) - 1)];
    };
    const auto roll = rng.uniform_int(0, 99);
    if (roll < 50) {
        pbs::JobScript script;
        script.resources.nodes = 1;
        script.resources.ppn = static_cast<int>(rng.uniform_int(1, 4));
        script.name = "churn";
        pbs::JobBehavior behavior;
        behavior.run_time = sim::seconds(rng.uniform_int(30, 1200));
        auto id = bed.server.submit(script, "churn", std::move(behavior));
        ASSERT_TRUE(id.ok());
        ids.push_back(id.value());
    } else if (roll < 60) {
        (void)bed.server.qdel(pick_id());
    } else if (roll < 67) {
        (void)bed.server.qhold(pick_id());
    } else if (roll < 74) {
        (void)bed.server.qrls(pick_id());
    } else if (roll < 82) {
        const auto idx = rng.uniform_int(0, static_cast<std::uint64_t>(bed.cluster.node_count()) - 1);
        (void)bed.server.set_node_offline(bed.cluster.node(static_cast<int>(idx)).hostname(),
                                          rng.uniform_int(0, 1) == 0);
    } else if (roll < 88) {
        bed.cluster.node(static_cast<int>(rng.uniform_int(
                             0, static_cast<std::uint64_t>(bed.cluster.node_count()) - 1)))
            .reboot();
    } else {
        bed.engine.run_for(sim::seconds(rng.uniform_int(1, 900)));
    }
}

TEST(ScaleChurn, IncrementalTextMatchesFullRenderAt10k) {
    bench::P2Testbed bed(10'000);
    core::PbsDetector streaming(bed.server);
    util::Rng rng(42);
    std::vector<std::string> ids;
    for (int op = 1; op <= 400; ++op) {
        random_op(bed, rng, ids);
        if (op % 50 != 0) continue;
        expect_same_text(bed.server.pbsnodes_output(), bed.server.debug_full_render_pbsnodes(),
                         "pbsnodes");
        expect_same_text(bed.server.qstat_f_output(), bed.server.debug_full_render_qstat_f(),
                         "qstat -f");
        // The long-lived streaming detector must agree with a brand-new
        // whole-string scraper at every checkpoint.
        auto oracle = whole_string_detector(bed.server);
        expect_same_snapshot(streaming.check(), oracle.check(), "churn checkpoint");
    }
}

TEST(ScaleChurn, ConsistencyChecksCoverIndicesUnderChurn) {
    // Brute-force cross-checks (placement rescans, aggregate recounts, set
    // memberships, eligible-queue walks, clean-chunk re-renders) run after
    // every scheduler cycle. Any drift in the incremental indices throws.
    bench::P2Testbed bed(300);
    bed.server.enable_consistency_checks(true);
    util::Rng rng(7);
    std::vector<std::string> ids;
    for (int op = 1; op <= 500; ++op) {
        random_op(bed, rng, ids);
    }
    bed.engine.run_for(sim::hours(2));
    expect_same_text(bed.server.pbsnodes_output(), bed.server.debug_full_render_pbsnodes(),
                     "pbsnodes after drain");
    expect_same_text(bed.server.qstat_f_output(), bed.server.debug_full_render_qstat_f(),
                     "qstat -f after drain");
}

TEST(ScaleSteadyState, PollAt100kRendersNothing) {
    // ISSUE 6 acceptance: a steady-state detector poll at 100k nodes must
    // not re-render the full pbsnodes listing. Pin it with render counters.
    constexpr int kNodes = 100'000;
    bench::P2Testbed bed(kNodes);
    for (int i = 0; i < kNodes; ++i) bed.submit(1, 4, sim::hours(2000));  // saturate
    for (int i = 0; i < 16; ++i) bed.submit(1, 4, sim::hours(1));         // blocked backlog
    bed.engine.run_for(sim::minutes(5));

    core::PbsDetector detector(bed.server);
    const auto first = detector.check();  // pays the one-time full sync
    EXPECT_EQ(first.running, kNodes);
    EXPECT_EQ(first.queued, 16);
    // One full walk per document (qstat -f + pbsnodes), never again below.
    EXPECT_EQ(detector.poll_stats().resyncs, 2u);

    const auto renders = bed.server.text_stats();
    const auto assemblies = bed.server.pbsnodes_doc_stats().assemblies;
    const auto parses = detector.poll_stats().stanza_parses;
    for (int i = 0; i < 10; ++i) {
        const auto snap = detector.check();
        EXPECT_EQ(snap.running, first.running);
        EXPECT_EQ(snap.queued, first.queued);
        EXPECT_EQ(snap.idle_nodes, first.idle_nodes);
    }
    EXPECT_EQ(bed.server.text_stats().node_stanza_renders, renders.node_stanza_renders);
    EXPECT_EQ(bed.server.text_stats().job_stanza_renders, renders.job_stanza_renders);
    EXPECT_EQ(bed.server.pbsnodes_doc_stats().assemblies, assemblies);
    EXPECT_EQ(detector.poll_stats().stanza_parses, parses);
    EXPECT_EQ(detector.poll_stats().resyncs, 2u);

    // Even with wall-clock time advancing (the heartbeat), nothing mutated,
    // so stanzas stay byte-stable and the poll still renders nothing.
    bed.engine.run_for(sim::minutes(10));
    (void)detector.check();
    EXPECT_EQ(bed.server.text_stats().node_stanza_renders, renders.node_stanza_renders);
    EXPECT_EQ(detector.poll_stats().stanza_parses, parses);
}

TEST(ScaleGolden, P2StreamCountersAreDeterministic) {
    bench::P2StreamConfig cfg;
    cfg.node_count = 256;
    cfg.job_count = 2'000;
    cfg.seed = 3;
    const auto a = bench::run_p2_stream(cfg);
    const auto b = bench::run_p2_stream(cfg);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.submitted, cfg.job_count);
    EXPECT_EQ(a.completed, cfg.job_count);
    EXPECT_GT(a.detector_polls, 0u);
}

TEST(ScaleGolden, ConsistencyCheckedStreamMatchesFastPath) {
    bench::P2StreamConfig fast;
    fast.node_count = 128;
    fast.job_count = 600;
    fast.seed = 11;
    auto checked = fast;
    checked.consistency_checks = true;
    const auto a = bench::run_p2_stream(fast);
    const auto b = bench::run_p2_stream(checked);
    // The brute-force cross-checks must not perturb the simulation. (Text
    // counters are excluded: checked runs flush the dirty sets on a
    // different cadence, which legitimately coalesces renders differently.)
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.started, b.started);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.purged, b.purged);
    EXPECT_EQ(a.scheduler_cycles, b.scheduler_cycles);
    EXPECT_EQ(a.server_version, b.server_version);
    EXPECT_EQ(a.final_unix, b.final_unix);
    EXPECT_EQ(a.peak_active_jobs, b.peak_active_jobs);
}

TEST(ScaleRetention, CompletedRecordsArePurged) {
    bench::P2Testbed bed(8, /*retention=*/4);
    std::vector<std::string> ids;
    for (int i = 0; i < 20; ++i) {
        pbs::JobScript script;
        script.resources.nodes = 1;
        script.resources.ppn = 4;
        script.name = "retain";
        pbs::JobBehavior behavior;
        behavior.run_time = sim::seconds(30);
        auto id = bed.server.submit(script, "bench", std::move(behavior));
        ASSERT_TRUE(id.ok());
        ids.push_back(id.value());
    }
    bed.engine.run_all();
    EXPECT_EQ(bed.server.stats().completed_normal, 20u);
    EXPECT_EQ(bed.server.stats().purged, 16u);
    // Oldest records are gone, the newest `retention` remain queryable.
    EXPECT_EQ(bed.server.find_job(ids.front()), nullptr);
    ASSERT_NE(bed.server.find_job(ids.back()), nullptr);
    EXPECT_EQ(bed.server.find_job(ids.back())->state, pbs::JobState::kCompleted);
}

TEST(ScaleDetector, ResyncsAfterJournalTrim) {
    // Burn through the pbsnodes change journal between two polls: the
    // detector's `changed_since` window falls off the trimmed log and it
    // must fall back to a full-document walk — and still agree with a fresh
    // whole-string scraper afterwards.
    bench::P2Testbed bed(64);
    core::PbsDetector detector(bed.server);
    (void)detector.check();
    EXPECT_EQ(detector.poll_stats().resyncs, 2u);  // initial sync, one per document

    for (int i = 0; i < 1'200; ++i) {
        const auto& host = bed.cluster.node(i % 64).hostname();
        ASSERT_TRUE(bed.server.set_node_offline(host, (i / 64) % 2 == 0).ok());
        // Force a refresh each toggle so every flip lands in the journal
        // rather than coalescing into one patch.
        (void)bed.server.pbsnodes_output();
    }
    EXPECT_GT(bed.server.pbsnodes_doc_stats().log_trims, 0u);

    const auto snap = detector.check();
    // Exactly one more: the pbsnodes document resynced, qstat -f did not.
    EXPECT_EQ(detector.poll_stats().resyncs, 3u);
    auto oracle = whole_string_detector(bed.server);
    expect_same_snapshot(snap, oracle.check(), "post-trim");
}

TEST(ScaleWinHpc, ConsistencyChecksUnderChurn) {
    sim::Engine engine;
    cluster::ClusterConfig cluster_cfg;
    cluster_cfg.node_count = 64;
    cluster_cfg.timing.jitter = 0;
    cluster::Cluster cluster(engine, cluster_cfg);
    engine.logger().set_min_level(util::LogLevel::kError);
    winhpc::HpcScheduler scheduler(engine);
    for (auto* node : cluster.nodes()) {
        node->set_boot_resolver([](const cluster::Node&) {
            cluster::BootDecision d;
            d.os = cluster::OsType::kWindows;
            return d;
        });
        scheduler.attach_node(*node);
        node->power_on();
    }
    engine.run_all();
    scheduler.enable_consistency_checks(true);

    util::Rng rng(13);
    std::vector<int> job_ids;
    for (int op = 0; op < 400; ++op) {
        const auto roll = rng.uniform_int(0, 99);
        if (roll < 55) {
            winhpc::HpcJobSpec spec;
            spec.unit = rng.uniform_int(0, 1) == 0 ? winhpc::JobUnitType::kNode
                                                   : winhpc::JobUnitType::kCore;
            spec.min_resources = static_cast<int>(rng.uniform_int(1, 6));
            spec.run_time = sim::seconds(rng.uniform_int(20, 600));
            spec.rerun_on_failure = rng.uniform_int(0, 3) == 0;
            job_ids.push_back(scheduler.submit_job(std::move(spec)));
        } else if (roll < 70 && !job_ids.empty()) {
            (void)scheduler.cancel_job(
                job_ids[rng.uniform_int(0, static_cast<std::uint64_t>(job_ids.size()) - 1)]);
        } else if (roll < 80) {
            cluster.node(static_cast<int>(rng.uniform_int(0, 63))).reboot();
        } else {
            engine.run_for(sim::seconds(rng.uniform_int(1, 600)));
        }
    }
    engine.run_all();
    // All reboots and jobs have drained; incremental aggregates must close
    // the books exactly.
    EXPECT_EQ(scheduler.queued_job_count(), 0);
    EXPECT_EQ(scheduler.running_job_count(), 0);
    EXPECT_EQ(scheduler.free_cores(), scheduler.total_cores());
    EXPECT_EQ(scheduler.fully_idle_count(), 64);
}

}  // namespace
}  // namespace hc
