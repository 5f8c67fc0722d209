// P1 — the cost of the obs hub, per call.
//
// Every instrumented component (engine, cluster, PBS, WinHPC, detector,
// serve) reaches telemetry through `engine.obs()`, and every call site pays
// for it even when no channel is on. This bench times the four call shapes
// those sites use: `Counter::inc`, `HistogramHandle::observe`, a tracer
// span, and a journal line behind its `enabled()` guard. Each is timed with
// the hub configured (metrics, trace and journal all on) and with it left
// off, in nanoseconds per call. perfbench times the paths these calls sit
// on; it does not time the calls, so this is the one figure P1 keeps.
// `--json <path>` emits the hc-bench-json/1 records; `--quick` runs fewer
// calls with the same record identities.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"

using namespace hc;

namespace {

using Clock = std::chrono::steady_clock;

/// Nanoseconds per call of `call(i)` over `calls` iterations.
template <class F>
double ns_per_call(std::uint64_t calls, F&& call) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < calls; ++i) call(i);
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
           static_cast<double>(calls);
}

/// The call shapes, in the order measure() returns their costs.
constexpr const char* kCalls[] = {"counter_inc", "histogram_observe", "trace_span",
                                  "journal_line"};

/// Time each call shape against one engine's hub. Handles are registered
/// after configure(), as instrumented components do, so they latch the
/// hub's state. Each iteration hands the handle to DoNotOptimize, as a
/// handle held in a component's memory would be reloaded, so the disabled
/// check stays in the loop.
std::array<double, 4> measure(bool hub_on, std::uint64_t calls) {
    sim::Engine engine;
    if (hub_on) {
        obs::ObsOptions opts;
        opts.metrics = true;
        opts.trace = true;
        opts.journal = true;
        engine.obs().configure(opts);
    }
    obs::Registry& metrics = engine.obs().metrics();
    obs::Tracer& tracer = engine.obs().tracer();
    obs::Journal& journal = engine.obs().journal();
    obs::Counter counter = metrics.counter("bench.calls");
    obs::HistogramHandle hist = metrics.histogram("bench.value", 0, 1024, 32);
    obs::TrackId track = tracer.track("bench");

    std::array<double, 4> cost{};
    cost[0] = ns_per_call(calls, [&](std::uint64_t) {
        benchmark::DoNotOptimize(counter);
        counter.inc();
    });
    cost[1] = ns_per_call(calls, [&](std::uint64_t i) {
        benchmark::DoNotOptimize(hist);
        hist.observe(static_cast<double>(i & 1023));
    });
    cost[2] = ns_per_call(calls, [&](std::uint64_t) {
        benchmark::DoNotOptimize(track);
        auto span = tracer.span(track, "bench.span");
        benchmark::DoNotOptimize(span);
    });
    // The journal keeps every line, so it gets a tenth of the calls.
    cost[3] = ns_per_call(calls / 10, [&](std::uint64_t i) {
        benchmark::ClobberMemory();
        if (journal.enabled())
            journal.event("bench.line").num("i", static_cast<std::int64_t>(i));
    });
    if (hub_on && (counter.value() == 0 || journal.lines() == 0))
        std::fprintf(stderr, "P1: the enabled hub recorded nothing\n");
    return cost;
}

}  // namespace

int main(int argc, char** argv) {
    const bool quick = bench::quick_mode(argc, argv);
    const std::string json_path = bench::json_path_from_args(argc, argv);
    bench::JsonReport report("P1");

    bench::print_header("P1 (obs cost)", "telemetry hub cost per call",
                        "a disabled channel should cost one predictable branch");

    const std::uint64_t calls = quick ? 200'000 : 2'000'000;
    std::printf("\n%-20s %12s %12s\n", "call", "hub off ns", "hub on ns");
    (void)measure(false, calls / 10);  // warm-up: the first loops ran slower
    const std::array<double, 4> off = measure(false, calls);
    const std::array<double, 4> on = measure(true, calls);
    for (std::size_t i = 0; i < off.size(); ++i) {
        std::printf("%-20s %12.2f %12.2f\n", kCalls[i], off[i], on[i]);
        report.add("obs_call_ns", off[i], "ns", {{"call", kCalls[i]}, {"hub", "off"}});
        report.add("obs_call_ns", on[i], "ns", {{"call", kCalls[i]}, {"hub", "on"}});
    }

    if (!json_path.empty() && !report.write(json_path)) return 1;
    return 0;
}
