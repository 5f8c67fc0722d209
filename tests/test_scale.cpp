// Scale-model tests (ISSUE 6): the indexed scheduler state and the
// incremental text/detector pipeline must be *externally indistinguishable*
// from the brute-force paths they replaced.
//
//  * randomized churn at 10k nodes: the incrementally patched pbsnodes /
//    qstat -f buffers stay byte-for-byte equal to a full re-render, and the
//    streaming detector reports the same snapshot as a fresh whole-string
//    scraper; on a saturated cluster too, where queued stanzas outlive polls;
//  * steady-state polls at 100k nodes render zero stanzas (the acceptance
//    render-counter assertion);
//  * the P2 stream harness is golden-deterministic (bitwise-equal counters
//    run to run, with and without brute-force consistency checks);
//  * completed-job retention actually bounds live records;
//  * the detector survives a change-journal trim by resyncing;
//  * the Windows scheduler's bitsets, job table and on-job timers agree with
//    brute force under churn and replay exactly from a mid-churn snapshot.
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
    FAIL() << what << ": text diverges from the reference at byte " << pos << " (sizes "
           << got.size() << " vs " << want.size() << ")\n got:       ..." << ctx(got)
           << "...\n reference: ..." << ctx(want) << "...";
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

TEST(ScaleChurn, SaturatedChurnKeepsQueuedStanzasInStep) {
    // Every node busy and a standing queue, so queued stanzas outlive many
    // polls while jobs are submitted, deleted, held, released and started
    // under them; whole-cluster drains (every node offline) empty the
    // running set so the stuck record names the first queued job. The
    // streaming detector must equal the whole-string oracle on every poll,
    // debug text included.
    bench::P2Testbed bed(48);
    core::PbsDetector streaming(bed.server);
    core::PbsDetector oracle([&bed] { return bed.server.qstat_f_output(); },
                             [&bed] { return bed.server.pbsnodes_output(); },
                             [&bed] { return bed.engine.unix_now(); });
    util::Rng rng(19);
    std::vector<std::string> ids;
    const auto submit = [&] {
        pbs::JobScript script;
        script.resources.nodes = static_cast<int>(rng.uniform_int(1, 2));
        script.resources.ppn = static_cast<int>(rng.uniform_int(1, 4));
        script.name = "sat" + std::to_string(ids.size());
        pbs::JobBehavior behavior;
        behavior.run_time = sim::seconds(rng.uniform_int(3'600, 36'000));
        auto id = bed.server.submit(script, "churn" + std::to_string(ids.size() % 5),
                                    std::move(behavior));
        ASSERT_TRUE(id.ok());
        ids.push_back(id.value());
    };
    const auto set_all_offline = [&](bool offline) {
        for (int n = 0; n < bed.cluster.node_count(); ++n)
            ASSERT_TRUE(bed.server.set_node_offline(bed.cluster.node(n).hostname(), offline).ok());
    };
    for (int i = 0; i < 300; ++i) submit();

    int queued_polls = 0;
    int stuck_polls = 0;
    for (int op = 1; op <= 900; ++op) {
        const auto pick = [&] {
            return ids[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
        };
        const auto roll = rng.uniform_int(0, 99);
        if (roll < 40) {
            submit();
        } else if (roll < 50) {
            (void)bed.server.qdel(pick());
        } else if (roll < 58) {
            (void)bed.server.qhold(pick());
        } else if (roll < 68) {
            (void)bed.server.qrls(pick());
        } else if (roll < 69) {
            set_all_offline(true);
            bed.engine.run_for(sim::hours(10));  // every running job finishes
        } else if (roll < 75) {
            set_all_offline(false);
        } else {
            bed.engine.run_for(sim::seconds(rng.uniform_int(1, 300)));
        }
        if (op % 3 != 0) continue;
        const auto got = streaming.check();
        const auto want = oracle.check();
        expect_same_snapshot(got, want, "saturated churn poll");
        EXPECT_EQ(streaming.fig6_text(), oracle.fig6_text()) << "op " << op;
        EXPECT_EQ(got.checked_unix, want.checked_unix) << "op " << op;
        if (::testing::Test::HasFailure()) FAIL() << "first divergence at op " << op;
        queued_polls += want.queued > 0 ? 1 : 0;
        stuck_polls += want.record.stuck ? 1 : 0;
    }
    // The run exercised what it is for: a standing queue on most polls and
    // a stuck queue (running = 0) on some.
    EXPECT_GT(queued_polls, 250);
    EXPECT_GT(stuck_polls, 20);
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

/// A 64-node Windows cluster under random churn: node- and core-unit jobs,
/// task jobs, runtime limits, rerunnable victims, cancels, admin toggles and
/// reboots, with the brute-force consistency checks on for every scheduler
/// cycle. save()/restore() take and rewind a whole-world snapshot (calendar,
/// cluster and scheduler), the way a forked sweep does.
struct WinChurnWorld {
    sim::Engine engine;
    cluster::Cluster cluster;
    winhpc::HpcScheduler scheduler;

    static cluster::ClusterConfig cluster_config() {
        cluster::ClusterConfig cfg;
        cfg.node_count = 64;
        cfg.timing.jitter = 0;
        return cfg;
    }
    static winhpc::HpcSchedulerConfig scheduler_config(bool strict_fifo) {
        winhpc::HpcSchedulerConfig cfg;
        cfg.strict_fifo = strict_fifo;
        return cfg;
    }

    explicit WinChurnWorld(bool strict_fifo)
        : cluster(engine, cluster_config()), scheduler(engine, scheduler_config(strict_fifo)) {
        engine.logger().set_min_level(util::LogLevel::kError);
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
    }

    struct Saved {
        sim::Engine::Snapshot calendar;
        cluster::Cluster::SavedState cluster;
        winhpc::HpcScheduler::SavedState scheduler;
    };

    Saved save() { return {engine.snapshot(), cluster.save_state(), scheduler.save_state()}; }

    void restore(const Saved& s) {
        engine.restore(s.calendar);
        cluster.restore_state(s.cluster);
        scheduler.restore_state(s.scheduler);
    }

    /// One random action, then a random stretch of simulated time.
    void step(util::Rng& rng) {
        const auto roll = rng.uniform_int(0, 99);
        if (roll < 50) {
            winhpc::HpcJobSpec spec;
            spec.unit = rng.chance(0.5) ? winhpc::JobUnitType::kNode : winhpc::JobUnitType::kCore;
            spec.min_resources = static_cast<int>(rng.uniform_int(1, 6));
            spec.run_time = sim::seconds(static_cast<double>(rng.uniform_int(300, 3600)));
            if (rng.chance(0.3)) {
                const auto tasks = rng.uniform_int(1, 10);
                for (std::int64_t t = 0; t < tasks; ++t) {
                    winhpc::HpcTaskSpec task;
                    task.run_time = sim::seconds(static_cast<double>(rng.uniform_int(60, 900)));
                    spec.tasks.push_back(task);
                }
            }
            if (rng.chance(0.2))  // killed at its limit when below run_time
                spec.runtime_limit = sim::seconds(static_cast<double>(rng.uniform_int(60, 1800)));
            spec.rerun_on_failure = rng.chance(0.5);
            (void)scheduler.submit_job(std::move(spec));
        } else if (roll < 62) {
            // Half the time the queue head, so a strict-FIFO queue blocked
            // on an unplaceable job moves on; otherwise a running job.
            const auto running = scheduler.get_jobs(winhpc::HpcJobState::kRunning);
            const winhpc::HpcJob* victim = scheduler.first_queued_job();
            if (!running.empty() && (victim == nullptr || rng.chance(0.5)))
                victim = running[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1))];
            if (victim != nullptr) {
                ASSERT_TRUE(scheduler.cancel_job(victim->id).ok());
            }
        } else if (roll < 72) {
            const int i = static_cast<int>(rng.uniform_int(0, 63));
            const bool offline = scheduler.node_records()[static_cast<std::size_t>(i)].admin_offline;
            ASSERT_TRUE(scheduler.set_node_online(cluster.node(i).short_name(), offline).ok());
        } else if (roll < 82) {
            cluster::Node& node = cluster.node(static_cast<int>(rng.uniform_int(0, 63)));
            if (node.is_up())
                node.reboot();  // running jobs requeue or fail
            else
                node.hard_power_cycle();
        }
        engine.run_for(sim::seconds(static_cast<double>(rng.uniform_int(0, 120))));
    }

    /// Eight node-unit jobs of 8 to 24 nodes each, 64 or more nodes in all
    /// on a cluster whose nodes are partly busy, offline or rebooting, so a
    /// snapshot taken right after has several queued jobs of mixed sizes
    /// (the test asserts at least three) and a restore has an order to
    /// relink.
    void queue_burst(util::Rng& rng) {
        for (int i = 0; i < 8; ++i) {
            winhpc::HpcJobSpec spec;
            spec.unit = winhpc::JobUnitType::kNode;
            spec.min_resources = static_cast<int>(rng.uniform_int(8, 24));
            spec.run_time = sim::seconds(static_cast<double>(rng.uniform_int(600, 1800)));
            spec.rerun_on_failure = rng.chance(0.5);
            (void)scheduler.submit_job(std::move(spec));
        }
    }

    /// Bring every node back online and run the calendar dry.
    void drain() {
        for (int i = 0; i < 64; ++i)
            ASSERT_TRUE(scheduler.set_node_online(cluster.node(i).short_name(), true).ok());
        engine.run_all();
    }

    /// Everything observable: the node listing, every job's lifecycle and
    /// allocation, the scheduler counters and the calendar counters.
    [[nodiscard]] std::string fingerprint() const {
        std::string out = scheduler.node_list_output();
        for (const winhpc::HpcJob* job : scheduler.get_jobs()) {
            out += std::to_string(job->id) + ' ' + winhpc::hpc_job_state_name(job->state) + ' ' +
                   std::to_string(job->start_unix) + ' ' + std::to_string(job->end_unix) + ' ' +
                   std::to_string(job->requeue_count) + ' ' +
                   std::to_string(job->tasks_finished) + ' ';
            for (const int r : job->allocated_records.span())
                out += std::to_string(
                           scheduler.node_records()[static_cast<std::size_t>(r)].node->index()) +
                       ',';
            out += '\n';
        }
        const winhpc::HpcStats& st = scheduler.stats();
        for (const std::uint64_t n : {st.submitted, st.started, st.finished, st.failed_node_loss,
                                      st.canceled, st.killed_runtime_limit, st.requeued})
            out += std::to_string(n) + '/';
        const sim::EngineStats& es = engine.stats();
        out += " events " + std::to_string(es.scheduled) + '/' + std::to_string(es.dispatched) +
               '/' + std::to_string(es.cancelled) + " at " + std::to_string(engine.now().ms);
        return out;
    }
};

class ScaleWinHpc : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScaleWinHpc, ConsistencyChecksUnderChurn) {
    const std::uint64_t seed = GetParam();
    WinChurnWorld world(/*strict_fifo=*/seed % 2 == 0);
    util::Rng rng(seed);
    constexpr int kSteps = 500;
    constexpr int kSplit = 200;
    for (int i = 0; i < kSplit; ++i) ASSERT_NO_FATAL_FAILURE(world.step(rng));
    world.queue_burst(rng);
    EXPECT_GE(world.scheduler.queued_job_count(), 3);  // an order for the restore to relink

    const WinChurnWorld::Saved saved = world.save();
    const util::Rng rng_at_split = rng;
    auto finish = [&](std::string& out) {
        for (int i = kSplit; i < kSteps; ++i) ASSERT_NO_FATAL_FAILURE(world.step(rng));
        out = world.fingerprint();  // jobs still running, nodes allocated
        ASSERT_NO_FATAL_FAILURE(world.drain());
        out += world.fingerprint();
    };
    std::string straight;
    ASSERT_NO_FATAL_FAILURE(finish(straight));
    const winhpc::HpcStats stats = world.scheduler.stats();
    int task_jobs_finished = 0;
    for (const winhpc::HpcJob* job : world.scheduler.get_jobs())
        if (!job->tasks.empty() && job->state == winhpc::HpcJobState::kFinished)
            ++task_jobs_finished;

    // All reboots and jobs have drained; incremental aggregates must close
    // the books exactly.
    EXPECT_EQ(world.scheduler.queued_job_count(), 0);
    EXPECT_EQ(world.scheduler.running_job_count(), 0);
    EXPECT_EQ(world.scheduler.free_cores(), world.scheduler.total_cores());
    EXPECT_EQ(world.scheduler.fully_idle_count(), 64);

    // Replaying the suffix from the snapshot reproduces it exactly.
    world.restore(saved);
    rng = rng_at_split;
    std::string replayed;
    ASSERT_NO_FATAL_FAILURE(finish(replayed));
    expect_same_text(replayed, straight, "snapshot replay");

    // The churn reached every path the timers and bitsets have to follow.
    EXPECT_GT(stats.started, 100u);
    EXPECT_GT(stats.requeued, 0u);
    EXPECT_GT(stats.failed_node_loss, 0u);
    EXPECT_GT(stats.killed_runtime_limit, 0u);
    EXPECT_GT(stats.canceled, 0u);
    EXPECT_GT(task_jobs_finished, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScaleWinHpc, ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

/// A 100k-job Windows stream at completed_retention 64: the job table holds
/// the 64 newest finished records plus the live ones, never the stream.
/// Every job runs the same 75 s, so under strict FIFO jobs finish in id
/// order and purges empty the front of the table; the span (slots from the
/// oldest record to the newest id) then stays within the same bound. A job
/// that outlived later ones would pin the front and widen the span, which
/// this stream does not do.
TEST(ScaleWinHpc, RetentionBoundsTheJobTable) {
    constexpr std::size_t kRetention = 64;
    constexpr int kJobs = 100'000;
    constexpr int kPerStep = 2;  // every 30 s; ~12 of 16 nodes busy, a short queue
    sim::Engine engine;
    engine.logger().set_min_level(util::LogLevel::kError);
    cluster::ClusterConfig ccfg;
    ccfg.node_count = 16;
    ccfg.timing.jitter = 0;
    cluster::Cluster cluster(engine, ccfg);
    winhpc::HpcSchedulerConfig cfg;
    cfg.completed_retention = kRetention;
    winhpc::HpcScheduler scheduler(engine, cfg);
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

    util::Rng rng(7);
    std::size_t checks = 0;
    std::size_t widest = 0;
    for (int submitted = 0; submitted < kJobs;) {
        for (int i = 0; i < kPerStep; ++i, ++submitted) {
            winhpc::HpcJobSpec spec;
            spec.min_resources = static_cast<int>(rng.uniform_int(1, 4));
            spec.run_time = sim::seconds(75);
            (void)scheduler.submit_job(std::move(spec));
        }
        engine.run_for(sim::seconds(30));
        if (submitted % (8 * kPerStep) != 0) continue;
        const auto live = static_cast<std::size_t>(scheduler.queued_job_count() +
                                                   scheduler.running_job_count());
        const winhpc::HpcScheduler::SavedState saved = scheduler.save_state();
        const std::size_t span = saved.table.next - saved.table.base;
        ASSERT_LE(saved.table.jobs.size(), kRetention + live) << "after " << submitted << " jobs";
        ASSERT_LE(span, kRetention + live) << "after " << submitted << " jobs";
        widest = std::max(widest, span);
        ++checks;
    }
    engine.run_all();
    EXPECT_EQ(scheduler.stats().submitted, static_cast<std::uint64_t>(kJobs));
    EXPECT_EQ(scheduler.stats().finished, static_cast<std::uint64_t>(kJobs));
    EXPECT_EQ(scheduler.get_jobs().size(), kRetention);
    EXPECT_EQ(scheduler.get_job(1), nullptr);
    EXPECT_NE(scheduler.get_job(kJobs), nullptr);
    EXPECT_GT(checks, 3000u);
    EXPECT_GT(widest, kRetention);  // live jobs were counted, not just retained ones
}

}  // namespace
}  // namespace hc
