// F5/F6 — Figures 5 & 6: the detector wire format and its three outputs.
//
// Drives a live PBS server into each of the three Fig 6 states ("other",
// "running, no queuing", "stuck"), prints the detector output for each, and
// micro-benchmarks a full detector poll (qstat scrape + parse).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "core/detector.hpp"

using namespace hc;

namespace {

struct LiveRig {
    sim::Engine engine;
    std::unique_ptr<cluster::Cluster> cluster;
    std::unique_ptr<pbs::PbsServer> pbs;

    explicit LiveRig(bool nodes_up_linux) {
        cluster::ClusterConfig ccfg;
        ccfg.node_count = 16;
        ccfg.timing.jitter = 0;
        cluster = std::make_unique<cluster::Cluster>(engine, ccfg);
        pbs = std::make_unique<pbs::PbsServer>(engine);
        for (auto* node : cluster->nodes()) {
            node->set_boot_resolver([nodes_up_linux](const cluster::Node&) {
                cluster::BootDecision d;
                d.os = nodes_up_linux ? cluster::OsType::kLinux : cluster::OsType::kWindows;
                return d;
            });
            pbs->attach_node(*node);
            node->power_on();
        }
        engine.run_all();
    }
};

void BM_DetectorPoll(benchmark::State& state) {
    LiveRig rig(true);
    // A realistic mid-day state: a few running, a few queued.
    for (int i = 0; i < 6; ++i) {
        pbs::JobScript script;
        script.resources.nodes = 4;
        script.resources.ppn = 4;
        pbs::JobBehavior behavior;
        behavior.run_time = sim::hours(10);
        (void)rig.pbs->submit(script, "u", std::move(behavior));
    }
    core::PbsDetector detector(*rig.pbs);
    for (auto _ : state) {
        auto snap = detector.check();
        benchmark::DoNotOptimize(snap);
    }
}
BENCHMARK(BM_DetectorPoll);

void BM_RecordEncode(benchmark::State& state) {
    core::QueueStateRecord rec;
    rec.stuck = true;
    rec.needed_cpus = 4;
    rec.stuck_job_id = "1191.eridani.qgg.hud.ac.uk";
    for (auto _ : state) {
        std::string wire = rec.encode();
        benchmark::DoNotOptimize(wire);
    }
}
BENCHMARK(BM_RecordEncode);

void BM_RecordDecode(benchmark::State& state) {
    const std::string wire = "100041191.eridani.qgg.hud.ac.uk";
    for (auto _ : state) {
        auto rec = core::QueueStateRecord::decode(wire);
        benchmark::DoNotOptimize(rec);
    }
}
BENCHMARK(BM_RecordDecode);

}  // namespace

int main(int argc, char** argv) {
    bench::print_header("F5/F6 (Figures 5-6)", "detector record format and queue states",
                        "pos 0: stuck flag; 1-4: needed CPUs; 5-67: stuck job id; 68+: undefined");

    {  // State 1: nothing running, nothing queued -> "Other state".
        LiveRig rig(true);
        core::PbsDetector detector(*rig.pbs);
        (void)detector.check();
        std::printf("--- state: idle ---\n%s\n", detector.fig6_text().c_str());
    }
    {  // State 2: job running, no queue.
        LiveRig rig(true);
        pbs::JobScript script;
        script.resources.ppn = 4;
        script.name = "sleep";
        pbs::JobBehavior behavior;
        behavior.run_time = sim::hours(1);
        (void)rig.pbs->submit(script, "sliang", std::move(behavior));
        rig.engine.run_for(sim::hours(0.005));
        core::PbsDetector detector(*rig.pbs);
        (void)detector.check();
        std::printf("--- state: running, no queuing ---\n%s\n", detector.fig6_text().c_str());
    }
    {  // State 3: stuck (all nodes in Windows, one job queued).
        LiveRig rig(false);
        pbs::JobScript script;
        script.resources.ppn = 4;
        (void)rig.pbs->submit(script, "sliang");
        core::PbsDetector detector(*rig.pbs);
        (void)detector.check();
        std::printf("--- state: queue stuck ---\n%s\n", detector.fig6_text().c_str());
    }

    std::printf("--- detector micro-benchmarks ---\n");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
