// serve_peak: the hc::serve submission service in front of a 100k-node PBS
// cluster, with 10k clients (the examples/serve_spec.json fleet) running
// from simulated midnight through the noon diurnal peak.
//
// Why: it stresses admission, batching, status lookups, the text document
// and the detector while the cluster stays lightly loaded, so placement is
// not among the hot spots. A placement change must show no change here.
//
// The driver reassembles serve::run_serve from public pieces so it can
// split set-up from run and wrap the Backend (and the Detector the backend
// returns) in spans. serve_parity_check() pins the reassembly to
// run_serve's deterministic report.
#include <memory>
#include <vector>

#include "bench.hpp"
#include "cluster/cluster.hpp"
#include "serve/runner.hpp"
#include "workload/catalog.hpp"

namespace perfbench {

namespace {

/// examples/serve_spec.json, run for 12 simulated hours.
constexpr const char* kSpec = R"({
  "schema": "hc-serve-spec/1",
  "clients": 10000,
  "nodes": 100000,
  "hours": 12.0,
  "seed": 7,
  "backend": "pbs",
  "cycle_seconds": 1.0,
  "poll_minutes": 5.0,
  "retention": 1024,
  "admission": {
    "queue_capacity": 8192,
    "max_batch": 4096,
    "per_client_rate_per_min": 30,
    "burst_tokens": 10,
    "max_backend_queue": 20000
  },
  "arrival": {
    "rate_per_hour": 2.0,
    "diurnal": [0.4, 0.3, 0.2, 0.2, 0.2, 0.3, 0.5, 0.8, 1.2, 1.6, 1.8, 1.9,
                1.8, 1.7, 1.8, 1.7, 1.5, 1.2, 1.0, 0.9, 0.8, 0.7, 0.6, 0.5]
  },
  "query_ratio": 0.5,
  "checkqueue_ratio": 0.1,
  "max_job_nodes": 4,
  "runtime_scale": 0.25
})";

/// The backend's detector with each poll split into the text refresh (the
/// server's document accessors) and the parse.
class MeasuredDetector final : public core::Detector {
public:
    MeasuredDetector(std::unique_ptr<core::Detector> inner, const pbs::PbsServer& server,
                     Tracer* tracer)
        : inner_(std::move(inner)), server_(server), tracer_(tracer) {}

    core::QueueSnapshot check() override {
        Tracer::Scope span(tracer_, "serve.detector", polls_);
        {
            Tracer::Scope text(tracer_, "pbs.text", polls_);
            (void)server_.pbsnodes_document();
            (void)server_.qstat_f_document();
        }
        Tracer::Scope parse(tracer_, "core.detector", polls_);
        ++polls_;
        return inner_->check();
    }
    std::string name() const override { return inner_->name(); }
    const core::Detector& inner() const { return *inner_; }

private:
    std::unique_ptr<core::Detector> inner_;
    const pbs::PbsServer& server_;
    Tracer* tracer_;
    std::uint64_t polls_ = 0;
};

/// serve::Backend forwarding to the PBS backend, one span per call. Spans of
/// one service cycle share its group id (the simulated second).
class MeasuredBackend final : public serve::Backend {
public:
    MeasuredBackend(pbs::PbsServer& server, sim::Engine& engine, Tracer* tracer)
        : server_(server), inner_(server), engine_(engine), tracer_(tracer) {}

    const char* name() const override { return inner_.name(); }
    std::size_t queued() const override {
        Tracer::Scope span(tracer_, "serve.backend.query", batch());
        return inner_.queued();
    }
    std::size_t running() const override {
        Tracer::Scope span(tracer_, "serve.backend.query", batch());
        return inner_.running();
    }
    int free_cpus() const override {
        Tracer::Scope span(tracer_, "serve.backend.query", batch());
        return inner_.free_cpus();
    }
    util::Result<std::string> submit(const std::string& script_text, const std::string& owner,
                                     sim::Duration run_time) override {
        Tracer::Scope span(tracer_, "serve.backend.submit", batch());
        return inner_.submit(script_text, owner, run_time);
    }
    std::string job_state(const std::string& job_id) const override {
        Tracer::Scope span(tracer_, "serve.backend.job_state", batch());
        return inner_.job_state(job_id);
    }
    std::unique_ptr<core::Detector> make_detector() const override {
        auto detector =
            std::make_unique<MeasuredDetector>(inner_.make_detector(), server_, tracer_);
        detector_ = detector.get();
        return detector;
    }
    serve::BackendTotals totals() const override { return inner_.totals(); }

    /// The detector handed to the service (owned by it), or null.
    const MeasuredDetector* detector() const { return detector_; }

private:
    std::uint64_t batch() const { return static_cast<std::uint64_t>(engine_.now().ms / 1000); }

    pbs::PbsServer& server_;
    serve::PbsBackend inner_;
    sim::Engine& engine_;
    Tracer* tracer_;
    mutable const MeasuredDetector* detector_ = nullptr;
};

/// The serve stack, built in run_serve's order. Members are declared in
/// construction order so they are destroyed in reverse.
struct ServeStack {
    sim::Engine engine;
    std::unique_ptr<cluster::Cluster> cluster;
    std::unique_ptr<pbs::PbsServer> server;
    std::unique_ptr<MeasuredBackend> backend;
    std::unique_ptr<serve::SubmissionService> service;
    std::unique_ptr<serve::ClientFleet> fleet;
    serve::FleetConfig fleet_cfg;
};

struct ServeRun {
    RepOutcome out;
    std::string report;  ///< render_report(false)
};

ServeRun run_stack(const serve::ServeSpec& spec, Tracer* tr) {
    ServeRun run;
    RepOutcome& out = run.out;
    const auto t_setup = Clock::now();
    auto s = std::make_unique<ServeStack>();
    std::vector<cluster::Node*> nodes;
    {
        Tracer::Scope span(tr, "cluster.build");
        s->engine.logger().set_min_level(util::LogLevel::kError);
        obs::ObsOptions obs_opts;
        obs_opts.metrics = true;
        s->engine.obs().configure(obs_opts);  // before any instrumented component
        s->engine.reserve(static_cast<std::size_t>(spec.nodes) * 2);
        cluster::ClusterConfig cluster_cfg;
        cluster_cfg.node_count = spec.nodes;
        cluster_cfg.timing.jitter = 0;
        s->cluster = std::make_unique<cluster::Cluster>(s->engine, cluster_cfg);
        pbs::PbsServerConfig server_cfg;
        server_cfg.completed_retention = spec.retention;
        s->server = std::make_unique<pbs::PbsServer>(s->engine, server_cfg);
        s->backend = std::make_unique<MeasuredBackend>(*s->server, s->engine, tr);
        nodes = s->cluster->nodes();
        for (cluster::Node* node : nodes) {
            node->set_boot_resolver([](const cluster::Node&) {
                cluster::BootDecision decision;
                decision.os = cluster::OsType::kLinux;
                return decision;
            });
            s->server->attach_node(*node);
        }
    }
    {
        Tracer::Scope span(tr, "cluster.settle");
        for (cluster::Node* node : nodes) node->power_on();
        s->engine.run_all();  // boot-settle: every node up before the door opens
    }
    s->service =
        std::make_unique<serve::SubmissionService>(s->engine, *s->backend, spec.service_config());
    s->fleet_cfg = spec.fleet_config();
    s->fleet_cfg.horizon = (s->engine.now() - sim::TimePoint{}) + sim::hours(spec.hours);
    s->fleet = std::make_unique<serve::ClientFleet>(
        s->engine, *s->service, workload::AppCatalog::huddersfield(), s->fleet_cfg);
    s->service->start();
    s->fleet->start();
    out.setup_s = seconds_since(t_setup);

    const auto t_run = Clock::now();
    const std::uint64_t events0 = s->engine.stats().dispatched;
    std::int64_t staleness_at_end = 0;
    {
        Tracer::Scope run_span(tr, "serve.run");
        {
            Tracer::Scope span(tr, "sim.run");
            s->engine.run_until(sim::TimePoint{} + s->fleet_cfg.horizon);
        }
        s->service->stop();
        s->service->flush();  // pending submits answered so their jobs can still run
        {
            Tracer::Scope span(tr, "sim.run");
            s->engine.run_all();  // drain
        }
        s->service->flush();  // every request gets a response
        s->service->poll_detector();
        staleness_at_end = s->service->snapshot_staleness_s();
    }
    out.run_s = seconds_since(t_run);

    serve::ServeResult result;
    result.counters.service = s->service->counters();
    result.counters.fleet = s->fleet->counters();
    result.counters.sessions = s->fleet->aggregate_sessions();
    result.counters.backend = s->backend->totals();
    result.counters.backend_queued_final = s->server->queued_count();
    result.counters.staleness_at_end_s = staleness_at_end;
    result.counters.final_unix = s->engine.unix_now();
    result.metrics = s->engine.obs().metrics().snapshot();
    result.last_snapshot = s->service->last_snapshot();
    result.sim_hours = spec.hours;
    run.report = result.render_report(false);

    const serve::ServiceCounters& c = result.counters.service;
    const std::uint64_t requests = c.requests;
    const std::uint64_t answered = c.answered();
    const std::uint64_t responses = result.counters.sessions.responses();
    const std::uint64_t sent = result.counters.fleet.requests();
    const std::uint64_t unanswered = sent > answered ? sent - answered : 0;
    const auto& st = s->server->stats();
    const auto& text = s->server->text_stats();

    out.jobs = static_cast<double>(result.counters.backend.completed);
    // The service window, not the drain: how far the drain runs depends on
    // the seed's longest job.
    out.sim_seconds = spec.hours * 3600.0;
    out.attempted = sent;
    out.failed = unanswered;
    out.digest_text = run.report + format("final_unix=%lld cycles=%llu version=%llu\n",
                                          static_cast<long long>(result.counters.final_unix),
                                          static_cast<unsigned long long>(st.scheduler_cycles),
                                          static_cast<unsigned long long>(s->server->version()));
    if (requests != c.accepted + c.job_infos + c.queue_infos + c.rejected())
        out.check_failures.push_back(
            format("requests %llu != accepted + infos + rejected %llu",
                   static_cast<unsigned long long>(requests),
                   static_cast<unsigned long long>(answered)));
    if (sent != requests || responses != sent)
        out.check_failures.push_back(format(
            "%llu requests sent, %llu reached the door, %llu answered",
            static_cast<unsigned long long>(sent), static_cast<unsigned long long>(requests),
            static_cast<unsigned long long>(responses)));

    MetricMap& m = out.layer;
    m["sim.events"] = {static_cast<double>(s->engine.stats().dispatched - events0), "count"};
    m["serve.requests"] = {static_cast<double>(requests), "count"};
    m["serve.rejected"] = {static_cast<double>(c.rejected()), "count"};
    m["serve.cycles"] = {static_cast<double>(c.cycles), "count"};
    m["pbs.submit_calls"] = {static_cast<double>(st.submitted), "count"};
    m["pbs.scheduler_cycles"] = {static_cast<double>(st.scheduler_cycles), "count"};
    m["pbs.starts_per_cycle"] = {
        st.scheduler_cycles > 0
            ? static_cast<double>(st.started) / static_cast<double>(st.scheduler_cycles)
            : 0,
        "ratio"};
    m["pbs.purged"] = {static_cast<double>(st.purged), "count"};
    m["pbs.node_stanza_renders"] = {static_cast<double>(text.node_stanza_renders), "count"};
    m["pbs.job_stanza_renders"] = {static_cast<double>(text.job_stanza_renders), "count"};
    if (const MeasuredDetector* d = s->backend->detector()) {
        if (const auto* pbs_detector = dynamic_cast<const core::PbsDetector*>(&d->inner())) {
            const auto& ps = pbs_detector->poll_stats();
            m["core.detector_polls"] = {static_cast<double>(ps.polls), "count"};
            m["core.detector_stanza_parses"] = {static_cast<double>(ps.stanza_parses), "count"};
            m["core.detector_resyncs"] = {static_cast<double>(ps.resyncs), "count"};
        }
    }
    // The serve path's simulated wait is submit latency: request arrival to
    // the cycle that hands it to qsub.
    for (const auto& h : result.metrics.histograms)
        if (h.name == "serve.submit.latency_ms") {
            m["outcome.sim_wait_mean_s"] = {h.mean / 1000.0, "s"};
            m["outcome.sim_wait_p95_s"] = {h.p95 / 1000.0, "s"};
        }
    m["outcome.fail_pct"] = {
        sent > 0 ? 100.0 * static_cast<double>(c.rejected() + unanswered) / static_cast<double>(sent)
                 : 0,
        "%"};
    s.reset();  // teardown is neither set-up nor run time
    return run;
}

serve::ServeSpec load_spec(std::uint64_t seed) {
    auto spec = serve::parse_serve_spec(kSpec);
    if (!spec.ok()) throw std::runtime_error("serve_peak spec: " + spec.error_message());
    spec.value().seed = seed;
    return spec.value();
}

class ServePeak final : public Workload {
public:
    void prepare(std::uint64_t seed, int /*threads*/) override { spec_ = load_spec(seed); }
    RepOutcome rep(Tracer* tracer) override { return run_stack(spec_, tracer).out; }

private:
    serve::ServeSpec spec_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_peak() { return std::make_unique<ServePeak>(); }

std::vector<std::string> serve_parity_check() {
    std::vector<std::string> failures;
    serve::ServeSpec spec = load_spec(11);
    spec.clients = 300;
    spec.nodes = 2000;
    spec.hours = 3;
    const std::string expected = serve::run_serve(spec).render_report(false);
    Tracer tracer;
    for (Tracer* tr : {static_cast<Tracer*>(nullptr), &tracer}) {
        const ServeRun run = run_stack(spec, tr);
        if (run.report != expected)
            failures.push_back(format("serve driver report (%s) differs from run_serve:\n", tr ? "traced" : "untraced") +
                               run.report + "--- run_serve:\n" + expected);
        for (const std::string& f : run.out.check_failures) failures.push_back("serve: " + f);
    }
    return failures;
}

}  // namespace perfbench
