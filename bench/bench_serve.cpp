// SERVE — the submission-service front door under client-fleet load.
//
// One process owning a long-lived engine + cluster + scheduler must answer
// thousands of concurrent client sessions. This bench crosses fleet size
// (100 / 1k / 10k clients) with cluster size (1k / 100k nodes) and records
// the deterministic service ledger: requests, accepted, rejected, p99
// latency, detector staleness. The p99 latencies are simulated time and sit
// at the service's 1 s batching period. Wall-clock throughput of the same
// front door is perfbench's `serve_peak` workload. `--quick` shortens the
// simulated horizon only; the record identities are mode-invariant for the
// bench_check gate.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "serve/runner.hpp"
#include "serve/spec.hpp"

using namespace hc;

namespace {

serve::ServeSpec make_spec(int clients, int nodes, bool quick) {
    serve::ServeSpec spec;
    spec.clients = clients;
    spec.nodes = nodes;
    spec.hours = quick ? 0.25 : 2.0;
    spec.seed = 7;
    spec.arrival.rate_per_hour = 2.0;
    spec.runtime_scale = 0.25;
    return spec;
}

void add_serve_records(bench::JsonReport& report, const serve::ServeResult& result,
                       int clients, int nodes) {
    const std::vector<std::pair<std::string, std::string>> p = {
        {"clients", std::to_string(clients)}, {"nodes", std::to_string(nodes)}};
    const auto& c = result.counters;
    report.add("serve_submissions_per_sim_hour", result.submissions_per_sim_hour(),
               "jobs/h", p);
    report.add("serve_requests", static_cast<double>(c.service.requests), "count", p);
    report.add("serve_accepted", static_cast<double>(c.service.accepted), "count", p);
    report.add("serve_rejected", static_cast<double>(c.service.rejected()), "count", p);
    report.add("serve_submit_p99_ms", result.submit_latency_ms(0.99), "ms", p);
    report.add("serve_query_p99_ms", result.query_latency_ms(0.99), "ms", p);
    report.add("serve_staleness_mean_s", result.staleness_mean_s(), "s", p);
    report.add("serve_inbox_high_water", static_cast<double>(c.service.channel_high_water),
               "count", p);
}

}  // namespace

int main(int argc, char** argv) {
    const bool quick = bench::quick_mode(argc, argv);
    const std::string json_path = bench::json_path_from_args(argc, argv);
    bench::JsonReport report("SERVE");

    bench::print_header("SERVE (submission service)",
                        "client fleets of 100 / 1k / 10k on 1k / 100k nodes",
                        "one long-lived engine per run; every request answered");

    for (int nodes : {1'000, 100'000}) {
        for (int clients : {100, 1'000, 10'000}) {
            const serve::ServeSpec spec = make_spec(clients, nodes, quick);
            const serve::ServeResult result = serve::run_serve(spec);
            const auto& c = result.counters;
            std::printf("\n-- %d client(s) x %d node(s), %.2f h --\n", clients, nodes,
                        spec.hours);
            std::printf("  requests:   %8llu (%llu accepted, %llu rejected)\n",
                        static_cast<unsigned long long>(c.service.requests),
                        static_cast<unsigned long long>(c.service.accepted),
                        static_cast<unsigned long long>(c.service.rejected()));
            std::printf("  latency:    submit p99 %.1f ms, query p99 %.1f ms\n",
                        result.submit_latency_ms(0.99), result.query_latency_ms(0.99));
            std::printf("  staleness:  %.1f s mean\n", result.staleness_mean_s());
            add_serve_records(report, result, clients, nodes);
        }
    }

    if (!json_path.empty() && !report.write(json_path)) return 1;
    return 0;
}
