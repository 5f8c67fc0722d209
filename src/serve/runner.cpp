#include "serve/runner.hpp"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <memory>

#include "cluster/cluster.hpp"
#include "workload/catalog.hpp"

namespace hc::serve {

namespace {

[[nodiscard]] double histogram_percentile(const obs::MetricsSnapshot& metrics,
                                          const std::string& name, double p) {
    for (const auto& h : metrics.histograms)
        if (h.name == name) {
            if (p <= 0.50) return h.p50;
            if (p <= 0.95) return h.p95;
            return h.p99;
        }
    return 0;
}

[[nodiscard]] double histogram_mean(const obs::MetricsSnapshot& metrics,
                                    const std::string& name) {
    for (const auto& h : metrics.histograms)
        if (h.name == name) return h.mean;
    return 0;
}

void append_line(std::string& out, const char* fmt, ...) {
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    out += buf;
}

}  // namespace

double ServeResult::submissions_per_sim_hour() const {
    return sim_hours > 0 ? static_cast<double>(counters.service.accepted) / sim_hours : 0;
}

double ServeResult::query_latency_ms(double percentile) const {
    return histogram_percentile(metrics, "serve.query.latency_ms", percentile);
}

double ServeResult::submit_latency_ms(double percentile) const {
    return histogram_percentile(metrics, "serve.submit.latency_ms", percentile);
}

double ServeResult::staleness_mean_s() const {
    return histogram_mean(metrics, "serve.detector.staleness_s");
}

std::string ServeResult::render_report(bool include_wall) const {
    const ServiceCounters& s = counters.service;
    std::string out;
    append_line(out, "requests  : %llu from %llu submits, %llu status, %llu checkqueue\n",
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(counters.fleet.submits),
                static_cast<unsigned long long>(counters.fleet.status_queries),
                static_cast<unsigned long long>(counters.fleet.checkqueues));
    append_line(out, "answered  : %llu accepted, %llu job infos, %llu queue infos\n",
                static_cast<unsigned long long>(s.accepted),
                static_cast<unsigned long long>(s.job_infos),
                static_cast<unsigned long long>(s.queue_infos));
    append_line(out,
                "rejected  : %llu (queue-full %llu, rate-limited %llu, shed %llu, "
                "bad-script %llu, unknown-job %llu)\n",
                static_cast<unsigned long long>(s.rejected()),
                static_cast<unsigned long long>(s.rejected_queue_full),
                static_cast<unsigned long long>(s.rejected_rate_limited),
                static_cast<unsigned long long>(s.rejected_shed),
                static_cast<unsigned long long>(s.rejected_bad_script),
                static_cast<unsigned long long>(s.rejected_unknown_job));
    append_line(out,
                "service   : %llu cycles, %llu polls, max batch %llu, inbox high water %llu\n",
                static_cast<unsigned long long>(s.cycles),
                static_cast<unsigned long long>(s.polls),
                static_cast<unsigned long long>(s.max_cycle_batch),
                static_cast<unsigned long long>(s.channel_high_water));
    append_line(out,
                "backend   : %llu submitted, %llu started, %llu completed, "
                "%llu still queued\n",
                static_cast<unsigned long long>(counters.backend.submitted),
                static_cast<unsigned long long>(counters.backend.started),
                static_cast<unsigned long long>(counters.backend.completed),
                static_cast<unsigned long long>(counters.backend_queued_final));
    append_line(out, "latency   : submit p50 %.1f / p99 %.1f ms, query p50 %.1f / p99 %.1f ms\n",
                submit_latency_ms(0.50), submit_latency_ms(0.99), query_latency_ms(0.50),
                query_latency_ms(0.99));
    append_line(out, "detector  : staleness mean %.1f s, at end %lld s\n", staleness_mean_s(),
                static_cast<long long>(counters.staleness_at_end_s));
    if (counters.cloud_enabled)
        append_line(out,
                    "cloud     : %llu bursts, %llu provisioned, %llu released, "
                    "%.2f node-hours ($%.2f)\n",
                    static_cast<unsigned long long>(counters.cloud.burst_requests),
                    static_cast<unsigned long long>(counters.cloud.provisions_completed),
                    static_cast<unsigned long long>(counters.cloud.releases),
                    static_cast<double>(counters.cloud_billed_ms) / 3'600'000.0,
                    counters.cloud_cost);
    append_line(out, "sim rate  : %.1f accepted submissions/sim-hour over %.2f h\n",
                submissions_per_sim_hour(), sim_hours);
    if (include_wall)
        append_line(out, "wall      : %.1f ms (%.0f requests/s), build %.1f ms\n", wall_ms,
                    wall_ms > 0 ? static_cast<double>(s.requests) / (wall_ms / 1000.0) : 0,
                    build_ms);
    return out;
}

ServeResult run_serve(const ServeSpec& spec, util::Arena* arena) {
    const auto build_start = std::chrono::steady_clock::now();

    sim::Engine engine(-1, arena);
    engine.logger().set_min_level(util::LogLevel::kError);
    obs::ObsOptions obs_opts;
    obs_opts.metrics = true;
    engine.obs().configure(obs_opts);  // before any instrumented component
    engine.reserve(static_cast<std::size_t>(spec.nodes) * 2);

    cluster::ClusterConfig cluster_cfg;
    cluster_cfg.node_count = spec.nodes;
    cluster_cfg.timing.jitter = 0;
    cluster::Cluster cluster(engine, cluster_cfg);

    std::unique_ptr<pbs::PbsServer> pbs_server;
    std::unique_ptr<winhpc::HpcScheduler> hpc_scheduler;
    std::unique_ptr<Backend> backend;
    const cluster::OsType boot_os =
        spec.backend == BackendKind::kPbs ? cluster::OsType::kLinux : cluster::OsType::kWindows;
    if (spec.backend == BackendKind::kPbs) {
        pbs::PbsServerConfig server_cfg;
        server_cfg.completed_retention = spec.retention;
        pbs_server = std::make_unique<pbs::PbsServer>(engine, server_cfg);
        backend = std::make_unique<PbsBackend>(*pbs_server);
    } else {
        winhpc::HpcSchedulerConfig scheduler_cfg;
        scheduler_cfg.completed_retention = spec.retention;
        hpc_scheduler = std::make_unique<winhpc::HpcScheduler>(engine, scheduler_cfg);
        backend = std::make_unique<WinHpcBackend>(*hpc_scheduler);
    }
    for (auto* node : cluster.nodes()) {
        node->set_boot_resolver([boot_os](const cluster::Node&) {
            cluster::BootDecision decision;
            decision.os = boot_os;
            return decision;
        });
        if (pbs_server != nullptr) {
            pbs_server->attach_node(*node);
        } else {
            hpc_scheduler->attach_node(*node);
        }
        node->power_on();
    }
    engine.run_all();  // boot-settle: every node up before the door opens

    // Elastic partition: attach after the fixed pool so on-prem capacity
    // fills first, and aim every cloud boot at the backend's OS.
    std::unique_ptr<cloud::CloudBackend> cloud_backend;
    std::unique_ptr<sim::PeriodicTask> burst_task;
    if (spec.cloud.max_burst > 0) {
        cloud::CloudConfig cloud_cfg;
        cloud_cfg.max_burst = spec.cloud.max_burst;
        cloud_cfg.cores_per_node = cluster_cfg.cores_per_node;
        cloud_cfg.provision_delay = sim::seconds(spec.cloud.provision_s);
        cloud_cfg.provision_jitter = 0;  // match the jitter-free serve cluster
        cloud_cfg.idle_timeout = sim::seconds(spec.cloud.idle_timeout_min * 60.0);
        cloud_cfg.sweep_interval = sim::seconds(spec.cloud.sweep_s);
        cloud_cfg.price_per_node_hour = spec.cloud.price_per_node_hour;
        cloud_cfg.seed = spec.seed;
        cloud_backend = std::make_unique<cloud::CloudBackend>(engine, cloud_cfg, spec.nodes);
        for (auto* node : cloud_backend->nodes())
            node->set_boot_resolver([boot_os](const cluster::Node&) {
                cluster::BootDecision decision;
                decision.os = boot_os;
                return decision;
            });
        cloud_backend->attach(pbs_server.get(), hpc_scheduler.get());
        cloud_backend->start();
    }

    // The world is built: what follows is the service run that wall_ms times.
    const auto wall_start = std::chrono::steady_clock::now();
    SubmissionService service(engine, *backend, spec.service_config());
    FleetConfig fleet_cfg = spec.fleet_config();
    fleet_cfg.horizon = (engine.now() - sim::TimePoint{}) + sim::hours(spec.hours);
    ClientFleet fleet(engine, service, workload::AppCatalog::huddersfield(), fleet_cfg);
    service.start();
    fleet.start();
    if (cloud_backend != nullptr) {
        // Gentle autoscaler: one provision per sweep while the backend queue
        // stays above the threshold; the idle sweep scales back down.
        Backend* raw_backend = backend.get();
        cloud::CloudBackend* raw_cloud = cloud_backend.get();
        burst_task = std::make_unique<sim::PeriodicTask>(
            engine, sim::seconds(spec.cloud.sweep_s),
            [raw_backend, raw_cloud, boot_os, threshold = spec.cloud.queue_threshold] {
                if (raw_backend->queued() > threshold) (void)raw_cloud->request_burst(boot_os, 1);
            });
        burst_task->start(sim::seconds(spec.cloud.sweep_s));
    }

    engine.run_until(sim::TimePoint{} + fleet_cfg.horizon);
    service.stop();
    // Stop the periodic cloud machinery before the drain or run_all() would
    // chase their reschedules forever.
    if (burst_task != nullptr) burst_task->stop();
    if (cloud_backend != nullptr) cloud_backend->stop();
    service.flush();   // pending submits answered so their jobs can still run
    engine.run_all();  // drain: admitted work finishes, late follow-ups enqueue
    service.flush();   // answer the stragglers — every request gets a response
    service.poll_detector();
    const std::int64_t staleness_at_end = service.snapshot_staleness_s();

    ServeResult result;
    result.counters.service = service.counters();
    result.counters.fleet = fleet.counters();
    result.counters.sessions = fleet.aggregate_sessions();
    result.counters.backend = backend->totals();
    result.counters.backend_queued_final = backend->queued();
    result.counters.staleness_at_end_s = staleness_at_end;
    result.counters.final_unix = engine.unix_now();
    if (cloud_backend != nullptr) {
        result.counters.cloud_enabled = true;
        result.counters.cloud = cloud_backend->stats();
        result.counters.cloud_billed_ms = cloud_backend->accrued_ms(engine.now());
        result.counters.cloud_cost = cloud_backend->accrued_cost(engine.now());
    }
    result.metrics = engine.obs().metrics().snapshot();
    result.last_snapshot = service.last_snapshot();
    result.sim_hours = spec.hours;
    result.build_ms =
        std::chrono::duration<double, std::milli>(wall_start - build_start).count();
    result.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
    return result;
}

}  // namespace hc::serve
