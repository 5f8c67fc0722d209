// P2 scale driver — shared between bench_p2_scale and the scale tests.
//
// Builds an N-node Linux-side testbed, streams a batched job-arrival
// workload through the PBS server while an incremental detector polls, and
// collects P2Counters: pure simulated-domain work counters (cycles,
// renders, stanza parses, purges...). Deterministic: the same config must
// produce the same counters on every run, at any optimisation level, which
// is what the golden-determinism test pins. The wall-clock cost of the same
// stream at 100k nodes is perfbench's `pbs_stream` workload.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "cluster/cluster.hpp"
#include "core/detector.hpp"
#include "pbs/server.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace hc::bench {

/// Deterministic work counters from one streamed run.
struct P2Counters {
    std::uint64_t submitted = 0;
    std::uint64_t started = 0;
    std::uint64_t completed = 0;
    std::uint64_t purged = 0;
    std::uint64_t scheduler_cycles = 0;
    std::uint64_t node_stanza_renders = 0;
    std::uint64_t job_stanza_renders = 0;
    std::uint64_t doc_assemblies = 0;     ///< pbsnodes full-text concatenations
    std::uint64_t detector_polls = 0;
    std::uint64_t detector_stanza_parses = 0;
    std::uint64_t detector_resyncs = 0;
    std::uint64_t server_version = 0;
    std::int64_t final_unix = 0;
    int peak_active_jobs = 0;             ///< high-water mark of live job records

    bool operator==(const P2Counters&) const = default;
};

struct P2StreamConfig {
    int node_count = 1000;
    std::uint64_t job_count = 10'000;
    /// Jobs submitted per arrival batch; 0 = node_count / 4 (keeps the
    /// cluster slightly oversubscribed so the queue never runs dry
    /// mid-stream).
    std::uint64_t batch_size = 0;
    sim::Duration arrival_step = sim::minutes(1);
    sim::Duration poll_interval = sim::minutes(10);
    /// Completed-job records the server retains (bounds resident memory
    /// against the lifetime job total).
    std::size_t retention = 1024;
    std::uint64_t seed = 1;
    bool consistency_checks = false;  ///< brute-force cross-checks every cycle
};

/// An N-node Linux cluster wired to a PbsServer, booted and settled.
struct P2Testbed {
    sim::Engine engine;
    cluster::Cluster cluster;
    pbs::PbsServer server;

    explicit P2Testbed(int node_count, std::size_t retention = 0)
        : cluster(engine,
                  [&] {
                      cluster::ClusterConfig cfg;
                      cfg.node_count = node_count;
                      cfg.timing.jitter = 0;
                      return cfg;
                  }()),
          server(engine, [&] {
              pbs::PbsServerConfig cfg;
              cfg.completed_retention = retention;
              return cfg;
          }()) {
        engine.logger().set_min_level(util::LogLevel::kError);
        for (auto* node : cluster.nodes()) {
            node->set_boot_resolver([](const cluster::Node&) {
                cluster::BootDecision d;
                d.os = cluster::OsType::kLinux;
                return d;
            });
            server.attach_node(*node);
            node->power_on();
        }
        engine.run_all();
    }

    void submit(int nodes, int ppn, sim::Duration run_time) {
        pbs::JobScript script;
        script.resources.nodes = nodes;
        script.resources.ppn = ppn;
        script.name = "p2";
        pbs::JobBehavior behavior;
        behavior.run_time = run_time;
        auto id = server.submit(script, "bench", std::move(behavior));
        if (!id.ok()) std::fprintf(stderr, "p2 submit failed: %s\n", id.error_message().c_str());
    }
};

/// Stream cfg.job_count jobs through an N-node server in arrival batches,
/// with an incremental detector polling on its own cadence, until the queue
/// drains. Returns the deterministic work counters.
inline P2Counters run_p2_stream(const P2StreamConfig& cfg) {
    P2Testbed bed(cfg.node_count, cfg.retention);
    bed.server.enable_consistency_checks(cfg.consistency_checks);
    core::PbsDetector detector(bed.server);
    util::Rng rng(cfg.seed);

    const std::uint64_t batch =
        cfg.batch_size > 0 ? cfg.batch_size
                           : std::max<std::uint64_t>(1, static_cast<std::uint64_t>(cfg.node_count) / 4);
    std::uint64_t submitted = 0;
    int peak_active = 0;

    auto active_jobs = [&]() -> std::uint64_t {
        const auto& s = bed.server.stats();
        return s.submitted - s.completed_normal - s.deleted - s.aborted_node_failure -
               s.killed_walltime;
    };

    // Self-rescheduling arrival process: one batch per step until the budget
    // is spent. Run times are drawn deterministically from the seed; the mix
    // of ppn widths exercises partial-node placements.
    std::function<void()> arrive = [&] {
        for (std::uint64_t i = 0; i < batch && submitted < cfg.job_count; ++i, ++submitted) {
            const int ppn = static_cast<int>(rng.uniform_int(1, 4));
            const auto run_s = rng.uniform_int(30, 600);
            bed.submit(1, ppn, sim::seconds(run_s));
        }
        peak_active = std::max(peak_active, static_cast<int>(active_jobs()));
        if (submitted < cfg.job_count) bed.engine.schedule_after(cfg.arrival_step, arrive);
    };
    // Detector polling rides the same calendar; it stops rescheduling once
    // the stream is drained so run_all() can terminate.
    std::function<void()> poll = [&] {
        (void)detector.check();
        if (submitted < cfg.job_count || active_jobs() > 0)
            bed.engine.schedule_after(cfg.poll_interval, poll);
    };
    bed.engine.schedule_after(sim::seconds(1), arrive);
    bed.engine.schedule_after(cfg.poll_interval, poll);
    bed.engine.run_all();
    // Final poll so the detector sees the drained state.
    (void)detector.check();

    P2Counters out;
    const auto& st = bed.server.stats();
    out.submitted = st.submitted;
    out.started = st.started;
    out.completed = st.completed_normal;
    out.purged = st.purged;
    out.scheduler_cycles = st.scheduler_cycles;
    out.node_stanza_renders = bed.server.text_stats().node_stanza_renders;
    out.job_stanza_renders = bed.server.text_stats().job_stanza_renders;
    out.doc_assemblies = bed.server.pbsnodes_doc_stats().assemblies;
    out.detector_polls = detector.poll_stats().polls;
    out.detector_stanza_parses = detector.poll_stats().stanza_parses;
    out.detector_resyncs = detector.poll_stats().resyncs;
    out.server_version = bed.server.version();
    out.final_unix = bed.engine.unix_now();
    out.peak_active_jobs = peak_active;
    return out;
}

}  // namespace hc::bench
