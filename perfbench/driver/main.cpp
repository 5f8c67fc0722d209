// perfbench driver: runs one workload in this process and prints one JSON
// result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--reps R] [--trace-out PATH]
//   perfbench --selftest
//
// Untraced runs repeat the workload (set-up, then run) until S seconds have
// passed and report medians over the repetitions. A traced run repeats it
// untraced a few times, then once with spans around every timed call, and
// reports the per-layer metrics of that traced repetition. perfbench/run.py
// builds this binary and wraps its output; see perfbench/README.md.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Peak resident set (VmHWM) of this process in MiB; 0 where /proc is absent.
double peak_rss_mib() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0;
    char line[256];
    double mib = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        unsigned long long kib = 0;
        if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) {
            mib = static_cast<double>(kib) / 1024.0;
            break;
        }
    }
    std::fclose(f);
    return mib;
}

/// Cost of one span from a loop that records nothing else.
double span_cost_ns() {
    constexpr int kSpans = 200'000;
    Tracer tracer;
    const auto t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i) Tracer::Scope span(&tracer, "bench.span");
    return seconds_since(t0) * 1e9 / kSpans;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string render_metrics(const MetricMap& metrics) {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, m] : metrics) {
        out += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                      name.c_str(), m.value, m.unit.c_str());
        first = false;
    }
    return out + "}";
}

/// Timing metrics of a traced repetition, from its spans. `threads` is the
/// worker count of the run phase's pool.
void add_span_metrics(const std::vector<Span>& spans, int threads, MetricMap& m) {
    const auto stats = aggregate(spans);
    auto total = [&](const char* name) {
        const auto it = stats.find(name);
        return it == stats.end() ? 0.0 : it->second.total_s;
    };
    auto self = [&](const char* name) {
        const auto it = stats.find(name);
        return it == stats.end() ? 0.0 : it->second.self_s;
    };
    auto pct = [&](const char* name, double p) {
        const auto it = stats.find(name);
        return it == stats.end() ? 0.0 : it->second.percentile(p);
    };
    // The event loop's own time: calls made from inside it into a measured
    // layer (serve_peak's backend and detector) are that layer's.
    const double sim_s = self("sim.run");
    m["sim.run_busy_s"] = {sim_s, "s"};
    const double events = m.count("sim.events") ? m["sim.events"].value : 0;
    m["sim.events_per_s"] = {sim_s > 0 ? events / sim_s : 0, "1/s"};
    m["cluster.build_s"] = {total("cluster.build"), "s"};
    m["cluster.settle_s"] = {total("cluster.settle"), "s"};
    m["pbs.submit_busy_s"] = {total("pbs.submit"), "s"};
    m["pbs.submit_p50_us"] = {pct("pbs.submit", 0.50) * 1e6, "us"};
    m["pbs.submit_p99_us"] = {pct("pbs.submit", 0.99) * 1e6, "us"};
    m["pbs.text_busy_s"] = {total("pbs.text"), "s"};
    m["core.detector_busy_s"] = {total("core.detector"), "s"};
    m["core.detector_poll_p99_us"] = {pct("core.detector", 0.99) * 1e6, "us"};
    const double backend = total("serve.backend.submit") + total("serve.backend.job_state") +
                           total("serve.backend.query");
    m["serve.backend_busy_s"] = {backend, "s"};
    m["serve.backend_submit_p99_us"] = {pct("serve.backend.submit", 0.99) * 1e6, "us"};
    m["serve.backend_job_state_p99_us"] = {pct("serve.backend.job_state", 0.99) * 1e6, "us"};
    m["serve.detector_busy_s"] = {total("serve.detector"), "s"};
    m["serve.self_s"] = {total("serve.run") > 0
                             ? total("serve.run") - backend - total("serve.detector")
                             : 0,
                         "s"};
    m["grid.epoch_p50_ms"] = {pct("grid.epoch", 0.50) * 1e3, "ms"};
    m["grid.epoch_p99_ms"] = {pct("grid.epoch", 0.99) * 1e3, "ms"};
    const double prefix = total("sweep.prefix"), suffix = total("sweep.suffix");
    m["sweep.prefix_busy_s"] = {prefix, "s"};
    m["sweep.suffix_busy_s"] = {suffix, "s"};
    m["sweep.suffix_p50_ms"] = {pct("sweep.suffix", 0.50) * 1e3, "ms"};
    m["sweep.suffix_max_ms"] = {pct("sweep.suffix", 1.0) * 1e3, "ms"};
    const double pool_s = total("sweep.run_forked");
    m["sweep.worker_idle_pct"] = {
        pool_s > 0 ? 100.0 * (1.0 - (prefix + suffix) / (threads * pool_s)) : 0, "%"};
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload pbs_stream|serve_peak|campus_grid|fault_campaign "
                 "--seed N --seconds S --trace 0|1 [--reps R] [--trace-out PATH]\n"
                 "       perfbench --selftest\n");
    return 2;
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string trace_out;
    int reps = 0;  ///< minimum untraced repetitions (0 = the mode's default)
    bool selftest = false;
};

bool parse_args(int argc, char** argv, Args& a) {
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--selftest") {
            a.selftest = true;
            continue;
        }
        if (i + 1 >= argc) return false;
        const char* v = argv[++i];
        char* end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
            if (*end != '\0') return false;
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (*end != '\0' || a.seconds <= 0) return false;
        } else if (k == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
            a.trace = v[0] == '1';
        } else if (k == "--reps") {
            a.reps = static_cast<int>(std::strtol(v, &end, 10));
            if (*end != '\0' || a.reps < 1) return false;
        } else if (k == "--trace-out") {
            a.trace_out = v;
        } else {
            return false;
        }
    }
    return a.selftest || !a.workload.empty();
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
    if (name == "pbs_stream") return make_pbs_stream();
    if (name == "serve_peak") return make_serve_peak();
    if (name == "campus_grid") return make_campus_grid();
    if (name == "fault_campaign") return make_fault_campaign();
    return nullptr;
}

int selftest() {
    const std::vector<std::string> failures = serve_parity_check();
    for (const std::string& f : failures) std::fprintf(stderr, "selftest: %s\n", f.c_str());
    std::printf("selftest: serve parity %s\n", failures.empty() ? "ok" : "FAILED");
    return failures.empty() ? 0 : 1;
}

int run(const Args& args) {
    std::unique_ptr<Workload> workload = make_workload(args.workload);
    if (workload == nullptr) return usage();
    // Parallel workloads use at most two workers: more threads on a shared
    // host made run-to-run spread larger than any bound worth setting.
    const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    const int threads = std::min(2, hw);
    workload->prepare(args.seed, threads);

    std::vector<RepOutcome> reps;
    std::vector<std::string> failures;
    const auto t0 = Clock::now();
    // Untraced repetitions: the whole budget in an untraced run; in a traced
    // run, enough for a median to compare the traced repetition against.
    const std::size_t min_reps =
        args.reps > 0 ? static_cast<std::size_t>(args.reps) : args.trace ? 2 : 3;
    while (reps.size() < min_reps || (!args.trace && seconds_since(t0) < args.seconds)) {
        const auto t_rep = Clock::now();
        reps.push_back(workload->rep(nullptr));
        std::fprintf(stderr, "perfbench: %s rep %zu: setup %.3f s, run %.3f s, wall %.3f s\n",
                     args.workload.c_str(), reps.size() - 1, reps.back().setup_s,
                     reps.back().run_s, seconds_since(t_rep));
    }
    for (std::size_t i = 0; i < reps.size(); ++i) {
        for (const std::string& f : reps[i].check_failures)
            failures.push_back(format("rep %zu: ", i) + f);
        if (reps[i].digest_text != reps[0].digest_text)
            failures.push_back(format("rep %zu: outcome differs from rep 0", i));
    }
    const RepOutcome& first = reps[0];

    MetricMap metrics;
    std::uint64_t attempted = first.attempted, failed = first.failed;
    std::string digest_text = first.digest_text;
    if (!args.trace) {
        std::vector<double> setup, jobs_rate, epoch_rate;
        for (const RepOutcome& r : reps) {
            setup.push_back(r.setup_s);
            jobs_rate.push_back(r.jobs / r.run_s);
            epoch_rate.push_back(r.sim_seconds / 600.0 / r.run_s);
        }
        metrics["setup_s"] = {median(setup), "s"};
        metrics["jobs_per_s"] = {median(jobs_rate), "jobs/s"};
        metrics["epochs_per_s"] = {median(epoch_rate), "epochs/s"};
        metrics["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
    } else {
        std::vector<double> walls;
        for (const RepOutcome& r : reps) walls.push_back(r.setup_s + r.run_s);
        const double untraced_wall = median(walls);
        Tracer tracer;
        RepOutcome traced = workload->rep(&tracer);
        for (const std::string& f : traced.check_failures) failures.push_back("traced: " + f);
        if (traced.digest_text != digest_text)
            failures.push_back("traced run's outcome differs from the untraced runs'");
        metrics = traced.layer;
        const std::vector<Span> spans = tracer.spans();
        add_span_metrics(spans, threads, metrics);
        workload->traced_extras(metrics);
        metrics["bench.trace_overhead_pct"] = {
            100.0 * ((traced.setup_s + traced.run_s) / untraced_wall - 1.0), "%"};
        metrics["bench.span_ns"] = {span_cost_ns(), "ns"};
        if (!args.trace_out.empty() && !tracer.write_tsv(args.trace_out))
            failures.push_back("cannot write " + args.trace_out);
        std::fprintf(stderr, "perfbench: %zu spans%s%s\n", spans.size(),
                     args.trace_out.empty() ? "" : " written to ", args.trace_out.c_str());
    }

    std::string checks = "[";
    for (std::size_t i = 0; i < failures.size(); ++i)
        checks += (i ? ", \"" : "\"") + json_escape(args.workload + ": " + failures[i]) + "\"";
    checks += "]";
    std::printf(
        "{\"workload\": \"%s\", \"seed\": %llu, \"threads\": %d, \"reps\": %zu, "
        "\"digest\": \"%016llx\", \"checks_failed\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"compiler\": \"%s\", \"build_type\": \"%s\", \"metrics\": %s}\n",
        args.workload.c_str(), static_cast<unsigned long long>(args.seed), threads, reps.size(),
        static_cast<unsigned long long>(fnv1a(digest_text)), checks.c_str(),
        static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
        json_escape(PERFBENCH_COMPILER).c_str(), PERFBENCH_BUILD_TYPE,
        render_metrics(metrics).c_str());
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__)
    std::fprintf(stderr,
                 "perfbench: this binary was built without optimisation; refusing to report "
                 "timings (configure with -DCMAKE_BUILD_TYPE=Release)\n");
    return 3;
#endif
    perfbench::Args args;
    if (!perfbench::parse_args(argc, argv, args)) return perfbench::usage();
    try {
        return args.selftest ? perfbench::selftest() : perfbench::run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
        return 1;
    }
}
