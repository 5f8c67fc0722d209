// P2 — cluster-scale benchmarks: the 100k-node perf trajectory.
//
// The paper's Eridani cluster is 16 nodes; the production-scale goal is four
// orders of magnitude beyond it. This bench pins the costs that must stay
// flat (or near-flat) as the model grows: steady-state scheduler-cycle
// latency, steady-state detector poll cost (both should be O(1) after the
// indexed-state refactor), resident memory per node, and end-to-end job
// throughput for a streamed arrival workload. `--json <path>` emits the
// hc-bench-json/1 record set; `--quick` shrinks streams and rep counts for
// CI smoke runs while keeping the record schema identical to a full run.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "p2_scale.hpp"
#include "sweep/runner.hpp"

using namespace hc;

namespace {

using Clock = std::chrono::steady_clock;

template <class F>
double time_s(F&& f) {
    const auto t0 = Clock::now();
    f();
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ScaleRow {
    int nodes = 0;
    double build_ms = 0;
    double cycle_us = 0;
    double poll_steady_us = 0;
    double poll_advancing_us = 0;
    double stream_jobs_per_sec = 0;
    double rss_build_mib = 0;
    double rss_stream_mib = 0;
    bench::P2Counters counters;
};

/// Measure one scale point: testbed build, steady-state cycle and poll
/// latency on a saturated cluster with a blocked queue, then a streamed
/// arrival workload.
ScaleRow measure_scale(int nodes, bool quick) {
    ScaleRow row;
    row.nodes = nodes;
    const std::size_t rss_before = bench::resident_kib();
    {
        bench::P2Testbed* bed = nullptr;
        row.build_ms = time_s([&] { bed = new bench::P2Testbed(nodes); }) * 1e3;
        row.rss_build_mib =
            static_cast<double>(bench::resident_kib() - rss_before) / 1024.0;

        // The Fig 5 "stuck" steady state at scale: every core busy, a
        // blocked backlog behind the head. This is what the daemons poll
        // through for hours, so its cost is the one that must not grow with
        // cluster size.
        for (int i = 0; i < nodes; ++i) bed->submit(1, 4, sim::hours(2000));
        for (int i = 0; i < 64; ++i) bed->submit(1, 4, sim::hours(1));
        const int cycle_reps = quick ? 500 : 5'000;
        row.cycle_us = time_s([&] {
                           for (int i = 0; i < cycle_reps; ++i) bed->server.schedule_cycle();
                       }) /
                       cycle_reps * 1e6;

        core::PbsDetector detector(bed->server);
        (void)detector.check();  // first poll pays the full sync
        const int poll_reps = quick ? 200 : 2'000;
        const auto renders_before = bed->server.text_stats().node_stanza_renders;
        int sink = 0;
        row.poll_steady_us = time_s([&] {
                                 for (int i = 0; i < poll_reps; ++i)
                                     sink += detector.check().queued;
                             }) /
                             poll_reps * 1e6;
        if (bed->server.text_stats().node_stanza_renders != renders_before)
            std::fprintf(stderr, "P2: steady-state polls re-rendered node stanzas!\n");
        const int adv_reps = poll_reps / 5 + 1;
        row.poll_advancing_us = time_s([&] {
                                    for (int i = 0; i < adv_reps; ++i) {
                                        bed->engine.run_for(sim::minutes(10));
                                        sink += detector.check().queued;
                                    }
                                }) /
                                adv_reps * 1e6;
        if (sink == 0) std::fprintf(stderr, "P2: unexpected empty queue\n");
        delete bed;
    }

    bench::P2StreamConfig cfg;
    cfg.node_count = nodes;
    cfg.job_count = quick ? std::max<std::uint64_t>(2'000, static_cast<std::uint64_t>(nodes) / 5)
                          : 1'000'000;
    cfg.seed = 7;
    const std::size_t rss_stream_before = bench::resident_kib();
    const double stream_s = time_s([&] { row.counters = bench::run_p2_stream(cfg); });
    row.rss_stream_mib =
        static_cast<double>(bench::resident_kib() - rss_stream_before) / 1024.0;
    row.stream_jobs_per_sec = static_cast<double>(cfg.job_count) / stream_s;
    return row;
}

void add_scale_records(bench::JsonReport& report, const ScaleRow& row) {
    const std::vector<std::pair<std::string, std::string>> p = {
        {"nodes", std::to_string(row.nodes)}};
    report.add("build_ms", row.build_ms, "ms", p);
    report.add("scheduler_cycle_us", row.cycle_us, "us", p);
    report.add("detector_poll_us", row.poll_steady_us, "us",
               {{"nodes", std::to_string(row.nodes)}, {"variant", "steady"}});
    report.add("detector_poll_us", row.poll_advancing_us, "us",
               {{"nodes", std::to_string(row.nodes)}, {"variant", "advancing"}});
    report.add("stream_jobs_per_sec", row.stream_jobs_per_sec, "jobs/s", p);
    report.add("rss_mib", row.rss_build_mib, "MiB",
               {{"nodes", std::to_string(row.nodes)}, {"point", "after_build"}});
    report.add("rss_mib", row.rss_stream_mib, "MiB",
               {{"nodes", std::to_string(row.nodes)}, {"point", "after_stream"}});
    // Deterministic stream work counters: same config → same values, every
    // run. Useful when a perf regression needs attributing to "did we do
    // more work" vs "did the same work get slower".
    const auto& c = row.counters;
    report.add("stream_scheduler_cycles", static_cast<double>(c.scheduler_cycles), "count", p);
    report.add("stream_node_stanza_renders", static_cast<double>(c.node_stanza_renders),
               "count", p);
    report.add("stream_job_stanza_renders", static_cast<double>(c.job_stanza_renders),
               "count", p);
    report.add("stream_detector_stanza_parses", static_cast<double>(c.detector_stanza_parses),
               "count", p);
    report.add("stream_detector_resyncs", static_cast<double>(c.detector_resyncs), "count", p);
    report.add("stream_purged_records", static_cast<double>(c.purged), "count", p);
    report.add("stream_peak_active_jobs", static_cast<double>(c.peak_active_jobs), "count", p);
}

}  // namespace

int main(int argc, char** argv) {
    const bool quick = hc::bench::quick_mode(argc, argv);
    const int threads = hc::bench::threads_from_args(argc, argv);
    const std::string json_path = hc::bench::json_path_from_args(argc, argv);
    hc::bench::JsonReport report("P2");

    hc::bench::print_header("P2 (scale trajectory)", "cluster model at 1k / 10k / 100k nodes",
                            "steady cycle and poll must stay O(1); memory tracks active state");

    std::vector<ScaleRow> rows;
    for (int nodes : {1'000, 10'000, 100'000}) {
        std::printf("\n-- %d nodes --\n", nodes);
        ScaleRow row = measure_scale(nodes, quick);
        std::printf("  testbed build:     %10.1f ms  (%.1f MiB resident)\n", row.build_ms,
                    row.rss_build_mib);
        std::printf("  scheduler cycle:   %10.3f us/cycle (saturated, 64-job backlog)\n",
                    row.cycle_us);
        std::printf("  detector poll:     %10.3f us steady, %.3f us advancing\n",
                    row.poll_steady_us, row.poll_advancing_us);
        std::printf("  arrival stream:    %10.0f jobs/s (%llu jobs, %.1f MiB delta"
                    ", peak %d active)\n",
                    row.stream_jobs_per_sec,
                    static_cast<unsigned long long>(row.counters.submitted),
                    row.rss_stream_mib, row.counters.peak_active_jobs);
        add_scale_records(report, row);
        rows.push_back(std::move(row));
    }

    // The headline scaling guarantee (ISSUE 6 acceptance): the steady-state
    // cycle at 100k nodes stays within 20x the 1k-node cycle. With the
    // indexed state both are O(1); the ratio mostly measures cache locality.
    {
        const double ratio = rows.front().cycle_us > 0
                                 ? rows.back().cycle_us / rows.front().cycle_us
                                 : 0.0;
        std::printf("\nsteady-cycle ratio 100k/1k: %.2fx (budget: 20x) %s\n", ratio,
                    ratio <= 20.0 ? "[ok]" : "[EXCEEDED]");
        report.add("cycle_ratio_100k_over_1k", ratio, "x", {});
    }

    // Replica streams through hc::sweep: many independent mid-size streams
    // saturating the pool — the campaign shape a robustness sweep at scale
    // would use. Deterministic per-slot counters; wall-clock in set_sweep.
    {
        const std::size_t replicas = quick ? 8 : 32;
        const int stream_nodes = quick ? 256 : 1'024;
        const std::uint64_t stream_jobs = quick ? 2'000 : 10'000;
        hc::sweep::SweepStats stats;
        auto counters = hc::sweep::map_indexed<hc::bench::P2Counters>(
            replicas, threads,
            [&](std::size_t slot, hc::sweep::WorkerContext&) {
                hc::bench::P2StreamConfig cfg;
                cfg.node_count = stream_nodes;
                cfg.job_count = stream_jobs;
                cfg.seed = static_cast<std::uint64_t>(slot) + 1;
                return hc::bench::run_p2_stream(cfg);
            },
            &stats);
        std::uint64_t total_jobs = 0;
        for (const auto& c : counters) total_jobs += c.submitted;
        const double jobs_per_sec =
            stats.wall_ms > 0 ? static_cast<double>(total_jobs) / (stats.wall_ms / 1e3) : 0.0;
        std::printf("\nsweep: %zu stream replica(s) x %d nodes: %.0f jobs/s aggregate\n",
                    replicas, stream_nodes, jobs_per_sec);
        hc::bench::print_sweep_stats(stats);
        // No params: quick and full runs use different replica shapes, and
        // the record identity must be mode-invariant for bench_check.
        report.add("stream_sweep_jobs_per_sec", jobs_per_sec, "jobs/s", {});
        report.set_sweep(stats);
    }

    if (!json_path.empty() && !report.write(json_path)) return 1;
    return 0;
}
