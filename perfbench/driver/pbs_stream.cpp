// pbs_stream: a 100k-node Linux-only PBS testbed fed an open-loop stream of
// single-node jobs (one batch of nodes/4 every simulated minute, ppn 1-4,
// 30-600 s run times) while an incremental PbsDetector polls every 10
// simulated minutes, until the queue drains.
//
// Why: the heavy-placement workload. The stream is long enough for the
// cluster to reach steady partial occupancy, where placement and the
// string-keyed job maps dominate. Arrivals follow simulated time, so the
// host runs as fast as it can.
#include <algorithm>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "cluster/cluster.hpp"
#include "core/detector.hpp"
#include "pbs/server.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr int kNodes = 100'000;
constexpr std::uint64_t kJobs = 150'000;
constexpr std::uint64_t kBatch = kNodes / 4;
constexpr std::size_t kRetention = 1024;

struct Testbed {
    sim::Engine engine;
    cluster::Cluster cluster;
    pbs::PbsServer server;

    Testbed()
        : cluster(engine,
                  [] {
                      cluster::ClusterConfig cfg;
                      cfg.node_count = kNodes;
                      cfg.timing.jitter = 0;
                      return cfg;
                  }()),
          server(engine, [] {
              pbs::PbsServerConfig cfg;
              cfg.completed_retention = kRetention;
              return cfg;
          }()) {
        engine.logger().set_min_level(util::LogLevel::kError);
    }
};

class PbsStream final : public Workload {
public:
    void prepare(std::uint64_t seed, int /*threads*/) override { seed_ = seed; }

    RepOutcome rep(Tracer* tr) override {
        RepOutcome out;
        const auto t_setup = Clock::now();
        std::unique_ptr<Testbed> bed;
        std::vector<cluster::Node*> nodes;
        {
            Tracer::Scope span(tr, "cluster.build");
            bed = std::make_unique<Testbed>();
            nodes = bed->cluster.nodes();
            for (cluster::Node* node : nodes) {
                node->set_boot_resolver([](const cluster::Node&) {
                    cluster::BootDecision d;
                    d.os = cluster::OsType::kLinux;
                    return d;
                });
                bed->server.attach_node(*node);
            }
        }
        {
            Tracer::Scope span(tr, "cluster.settle");
            for (cluster::Node* node : nodes) node->power_on();
            bed->engine.run_all();
        }
        auto detector = std::make_unique<core::PbsDetector>(bed->server, /*incremental=*/true);
        std::vector<double> waits;
        waits.reserve(kJobs);
        double delivered_core_s = 0;
        bed->server.on_job_terminal([&](const pbs::Job& job) {
            waits.push_back(static_cast<double>(job.stime_unix - job.qtime_unix));
            delivered_core_s += static_cast<double>(job.resources.nodes * job.resources.ppn) *
                                static_cast<double>(job.etime_unix - job.stime_unix);
        });
        out.setup_s = seconds_since(t_setup);

        const auto t_run = Clock::now();
        sim::Engine& engine = bed->engine;
        pbs::PbsServer& server = bed->server;
        const std::uint64_t events0 = engine.stats().dispatched;
        const sim::TimePoint start = engine.now();
        util::Rng rng(seed_);
        std::uint64_t submitted = 0, submit_errors = 0, batch_no = 0, poll_no = 0;
        std::uint64_t peak_live = 0;
        core::QueueSnapshot snap;
        auto live_jobs = [&]() -> std::uint64_t {
            const auto& s = server.stats();
            return s.submitted - s.completed_normal - s.deleted - s.aborted_node_failure -
                   s.killed_walltime;
        };
        auto advance = [&](sim::TimePoint t) {
            Tracer::Scope span(tr, "sim.run");
            engine.run_until(t);
        };
        // The document accessors refresh every dirty stanza, so the detector
        // that follows is timed on parsing alone.
        auto poll = [&] {
            {
                Tracer::Scope span(tr, "pbs.text", poll_no);
                (void)server.pbsnodes_document();
                (void)server.qstat_f_document();
            }
            Tracer::Scope span(tr, "core.detector", poll_no);
            snap = detector->check();
            ++poll_no;
        };
        sim::TimePoint next_arrival = start + sim::seconds(1);
        sim::TimePoint next_poll = start + sim::minutes(10);
        while (submitted < kJobs) {
            if (next_poll <= next_arrival) {
                advance(next_poll);
                poll();
                next_poll = next_poll + sim::minutes(10);
                continue;
            }
            advance(next_arrival);
            for (std::uint64_t i = 0; i < kBatch && submitted < kJobs; ++i, ++submitted) {
                pbs::JobScript script;
                script.resources.nodes = 1;
                script.resources.ppn = static_cast<int>(rng.uniform_int(1, 4));
                script.name = "stream";
                pbs::JobBehavior behavior;
                behavior.run_time = sim::seconds(rng.uniform_int(30, 600));
                Tracer::Scope span(tr, "pbs.submit", batch_no);
                if (!server.submit(script, "bench", std::move(behavior)).ok()) ++submit_errors;
            }
            peak_live = std::max(peak_live, live_jobs());
            next_arrival = next_arrival + sim::minutes(1);
            ++batch_no;
        }
        while (live_jobs() > 0) {
            advance(next_poll);
            poll();
            next_poll = next_poll + sim::minutes(10);
        }
        poll();  // the detector sees the drained state
        out.run_s = seconds_since(t_run);

        const auto& st = server.stats();
        const auto& text = server.text_stats();
        const auto& ps = detector->poll_stats();
        const double span_s = (engine.now() - start).seconds();
        std::sort(waits.begin(), waits.end());
        double wait_sum = 0;
        for (const double w : waits) wait_sum += w;
        const double wait_mean = waits.empty() ? 0 : wait_sum / static_cast<double>(waits.size());
        const double wait_p95 = sorted_percentile(waits, 0.95);
        const double util_pct =
            span_s > 0 ? 100.0 * delivered_core_s / (server.total_cpus() * span_s) : 0;

        out.jobs = static_cast<double>(st.completed_normal);
        out.sim_seconds = span_s;
        out.attempted = submitted;
        out.failed = submit_errors;
        out.digest_text = format(
            "pbs_stream jobs=%llu submitted=%llu started=%llu completed=%llu purged=%llu "
            "cycles=%llu node_renders=%llu job_renders=%llu polls=%llu parses=%llu "
            "resyncs=%llu version=%llu final_unix=%lld peak_live=%llu wait_sum=%.0f "
            "wait_p95=%.0f core_s=%.0f snap=%d/%d/%d\n",
            static_cast<unsigned long long>(kJobs), static_cast<unsigned long long>(st.submitted),
            static_cast<unsigned long long>(st.started),
            static_cast<unsigned long long>(st.completed_normal),
            static_cast<unsigned long long>(st.purged),
            static_cast<unsigned long long>(st.scheduler_cycles),
            static_cast<unsigned long long>(text.node_stanza_renders),
            static_cast<unsigned long long>(text.job_stanza_renders),
            static_cast<unsigned long long>(ps.polls),
            static_cast<unsigned long long>(ps.stanza_parses),
            static_cast<unsigned long long>(ps.resyncs),
            static_cast<unsigned long long>(server.version()),
            static_cast<long long>(engine.unix_now()), static_cast<unsigned long long>(peak_live),
            wait_sum, wait_p95, delivered_core_s, snap.running, snap.queued, snap.idle_nodes);

        if (submit_errors != 0)
            out.check_failures.push_back(format("%llu submit errors",
                                                static_cast<unsigned long long>(submit_errors)));
        if (st.submitted != kJobs || st.started != kJobs || st.completed_normal != kJobs)
            out.check_failures.push_back(
                format("submitted/started/completed = %llu/%llu/%llu, expected %llu each",
                       static_cast<unsigned long long>(st.submitted),
                       static_cast<unsigned long long>(st.started),
                       static_cast<unsigned long long>(st.completed_normal),
                       static_cast<unsigned long long>(kJobs)));
        if (snap.queued != 0 || snap.running != 0)
            out.check_failures.push_back(format("detector sees %d running / %d queued at drain",
                                                snap.running, snap.queued));

        MetricMap& m = out.layer;
        m["sim.events"] = {static_cast<double>(engine.stats().dispatched - events0), "count"};
        m["pbs.submit_calls"] = {static_cast<double>(submitted), "count"};
        m["pbs.scheduler_cycles"] = {static_cast<double>(st.scheduler_cycles), "count"};
        m["pbs.starts_per_cycle"] = {
            st.scheduler_cycles > 0
                ? static_cast<double>(st.started) / static_cast<double>(st.scheduler_cycles)
                : 0,
            "ratio"};
        m["pbs.purged"] = {static_cast<double>(st.purged), "count"};
        m["pbs.peak_live_jobs"] = {static_cast<double>(peak_live), "count"};
        m["pbs.node_stanza_renders"] = {static_cast<double>(text.node_stanza_renders), "count"};
        m["pbs.job_stanza_renders"] = {static_cast<double>(text.job_stanza_renders), "count"};
        m["core.detector_polls"] = {static_cast<double>(ps.polls), "count"};
        m["core.detector_stanza_parses"] = {static_cast<double>(ps.stanza_parses), "count"};
        m["core.detector_resyncs"] = {static_cast<double>(ps.resyncs), "count"};
        m["outcome.sim_wait_mean_s"] = {wait_mean, "s"};
        m["outcome.sim_wait_p95_s"] = {wait_p95, "s"};
        m["outcome.sim_util_pct"] = {util_pct, "%"};
        m["outcome.fail_pct"] = {
            submitted > 0 ? 100.0 * static_cast<double>(submit_errors) / static_cast<double>(submitted)
                          : 0,
            "%"};
        // Teardown is neither set-up nor run time.
        detector.reset();
        bed.reset();
        return out;
    }

private:
    std::uint64_t seed_ = 1;
};

}  // namespace

std::unique_ptr<Workload> make_pbs_stream() { return std::make_unique<PbsStream>(); }

}  // namespace perfbench
