// P2 — cluster-scale work counts: the 100k-node trajectory.
//
// The paper's Eridani cluster is 16 nodes; the production-scale goal is four
// orders of magnitude beyond it. This bench streams a batched arrival
// workload through the PBS server at 1k, 10k and 100k nodes and records the
// deterministic work it did: scheduler cycles, stanza renders and parses,
// detector resyncs, purged records and the peak of live jobs. The same
// config gives the same counts on every run, so a perf regression can be
// split into "did more work" (these records move) and "did the same work
// slower" (perfbench's `pbs_stream` workload, which times this path).
// `--json <path>` emits the hc-bench-json/1 record set; `--quick` shrinks
// the streams while keeping the record identities of a full run.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "p2_scale.hpp"

using namespace hc;

namespace {

void add_stream_records(bench::JsonReport& report, int nodes, const bench::P2Counters& c) {
    const std::vector<std::pair<std::string, std::string>> p = {
        {"nodes", std::to_string(nodes)}};
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
    const bool quick = bench::quick_mode(argc, argv);
    const std::string json_path = bench::json_path_from_args(argc, argv);
    bench::JsonReport report("P2");

    bench::print_header("P2 (scale trajectory)", "cluster model at 1k / 10k / 100k nodes",
                        "work per streamed job must not grow with cluster size");

    for (int nodes : {1'000, 10'000, 100'000}) {
        bench::P2StreamConfig cfg;
        cfg.node_count = nodes;
        cfg.job_count = quick ? std::max<std::uint64_t>(2'000, static_cast<std::uint64_t>(nodes) / 5)
                              : 1'000'000;
        cfg.seed = 7;
        const bench::P2Counters c = bench::run_p2_stream(cfg);
        std::printf("\n-- %d nodes, %llu jobs --\n", nodes,
                    static_cast<unsigned long long>(c.submitted));
        std::printf("  scheduler cycles:  %10llu\n",
                    static_cast<unsigned long long>(c.scheduler_cycles));
        std::printf("  stanza renders:    %10llu node, %llu job\n",
                    static_cast<unsigned long long>(c.node_stanza_renders),
                    static_cast<unsigned long long>(c.job_stanza_renders));
        std::printf("  detector:          %10llu stanza parses, %llu resyncs\n",
                    static_cast<unsigned long long>(c.detector_stanza_parses),
                    static_cast<unsigned long long>(c.detector_resyncs));
        std::printf("  job records:       %10llu purged, peak %d active\n",
                    static_cast<unsigned long long>(c.purged), c.peak_active_jobs);
        add_stream_records(report, nodes, c);
    }

    if (!json_path.empty() && !report.write(json_path)) return 1;
    return 0;
}
