// Shared helpers for the experiment benches.
//
// Every bench prints a header naming the paper item it reproduces, the
// paper's claim (where one exists), and our measured rows, so the combined
// `for b in build/bench/*; do $b; done` output reads as the full evaluation.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "sweep/runner.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/time_format.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace hc::bench {

// ---- machine-readable perf records (`--json <path>`) -----------------------
//
// Benches that track the perf trajectory emit one JSON object per run:
//
//   {"schema": "hc-bench-json/1", "bench": "P1", "records": [
//     {"metric": "engine_events_per_sec", "value": 1.2e7, "unit": "events/s",
//      "params": {"variant": "steady"}}, ...]}
//
// Records are append-only within a run and parameterised by string key/value
// pairs (node counts, variants), so a later run of the same bench can be
// diffed record-by-record: two records compare when `metric` and `params`
// match exactly. See README "Benchmarks & perf trajectory".

inline std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

class JsonReport {
public:
    explicit JsonReport(std::string bench_id) : bench_id_(std::move(bench_id)) {}

    /// Append one measurement. `params` qualify the metric (scale, variant).
    void add(std::string metric, double value, std::string unit,
             std::vector<std::pair<std::string, std::string>> params = {}) {
        records_.push_back(Record{std::move(metric), value, std::move(unit), std::move(params)});
    }

    /// Append a relative-overhead record: how much slower `measured` is than
    /// `base`, as a percentage (negative = faster). Used for guardrails like
    /// "instrumentation disabled must cost ~0%" — the driver diffs the
    /// record across runs like any other metric.
    void add_overhead_pct(std::string metric, double base, double measured,
                          std::vector<std::pair<std::string, std::string>> params = {}) {
        const double pct = base > 0 ? (measured - base) / base * 100.0 : 0.0;
        add(std::move(metric), pct, "%", std::move(params));
    }

    /// Record how the bench's replica sweep executed. Emitted as top-level
    /// document fields (`replicas`, `threads`, `wall_ms`, `replicas_per_sec`)
    /// rather than per-record ones: wall-clock varies run to run, and keeping
    /// it out of `records` preserves the guarantee that the records array is
    /// byte-identical at any `--threads` count (see render_records()).
    void set_sweep(const sweep::SweepStats& stats) {
        sweep_ = stats;
        has_sweep_ = true;
    }

    /// Record the forked (warm-started) path's envelope: snapshot size, fork
    /// count, and the prefix/suffix sim-time split. Emitted as top-level
    /// document fields next to the sweep ones — kept out of `records` so the
    /// records array stays byte-identical whether a campaign ran forked or
    /// cold (the equality the golden tests pin).
    void set_fork(const sweep::ForkStats& stats) {
        fork_ = stats;
        has_fork_ = true;
    }

    /// The records array alone — everything in it is deterministic
    /// (simulated-time metrics, fixed params), so two runs of the same bench
    /// at different thread counts must produce byte-identical output here.
    /// The sweep invariance test compares exactly this string.
    [[nodiscard]] std::string render_records() const {
        std::string out = "[";
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const Record& r = records_[i];
            if (i > 0) out += ",";
            char num[40];
            std::snprintf(num, sizeof num, "%.9g", r.value);
            out += "\n  {\"metric\": \"" + json_escape(r.metric) + "\", \"value\": " + num +
                   ", \"unit\": \"" + json_escape(r.unit) + "\", \"params\": {";
            for (std::size_t j = 0; j < r.params.size(); ++j) {
                if (j > 0) out += ", ";
                out += "\"" + json_escape(r.params[j].first) + "\": \"" +
                       json_escape(r.params[j].second) + "\"";
            }
            out += "}}";
        }
        out += "\n]";
        return out;
    }

    [[nodiscard]] std::string render() const {
        std::string out = "{\"schema\": \"hc-bench-json/1\", \"bench\": \"" +
                          json_escape(bench_id_) + "\"";
        if (has_sweep_) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          ", \"replicas\": %zu, \"threads\": %d, \"wall_ms\": %.3f"
                          ", \"replicas_per_sec\": %.3f",
                          sweep_.replicas, sweep_.threads, sweep_.wall_ms,
                          sweep_.replicas_per_sec);
            out += buf;
        }
        if (has_fork_) {
            char buf[200];
            std::snprintf(buf, sizeof buf,
                          ", \"fork_prefixes\": %d, \"forks\": %llu"
                          ", \"snapshot_bytes\": %zu, \"prefix_sim_s\": %.3f"
                          ", \"suffix_sim_s\": %.3f",
                          fork_.prefixes, static_cast<unsigned long long>(fork_.forks),
                          fork_.snapshot_bytes, fork_.prefix_sim_s, fork_.suffix_sim_s);
            out += buf;
        }
        out += ", \"records\": " + render_records() + "}\n";
        return out;
    }

    /// Write the report to `path`. Returns false (and prints) on I/O failure.
    bool write(const std::string& path) const {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
            return false;
        }
        const std::string text = render();
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
        std::printf("\nwrote %zu perf record(s) to %s\n", records_.size(), path.c_str());
        return true;
    }

private:
    struct Record {
        std::string metric;
        double value;
        std::string unit;
        std::vector<std::pair<std::string, std::string>> params;
    };
    std::string bench_id_;
    std::vector<Record> records_;
    sweep::SweepStats sweep_{};
    bool has_sweep_ = false;
    sweep::ForkStats fork_{};
    bool has_fork_ = false;
};

/// Parse `--json <path>` from the command line; empty string = flag absent.
inline std::string json_path_from_args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) != "--json") continue;
        if (i + 1 >= argc) {
            std::fprintf(stderr, "bench: --json requires a path\n");
            std::exit(2);
        }
        return argv[i + 1];
    }
    return {};
}

/// True when `--quick` is present (CI smoke mode: smaller problem sizes).
inline bool quick_mode(int argc, char** argv) {
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--quick") return true;
    return false;
}

/// Parse `--threads N` from the command line; 0 (the default when absent)
/// means "one per hardware thread" — pass the result straight to hc::sweep,
/// which resolves 0 via hardware_concurrency().
inline int threads_from_args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) != "--threads") continue;
        if (i + 1 >= argc) {
            std::fprintf(stderr, "bench: --threads requires a count\n");
            std::exit(2);
        }
        return std::atoi(argv[i + 1]);
    }
    return 0;
}

inline void print_header(const std::string& id, const std::string& title,
                         const std::string& paper_claim) {
    std::printf("\n================================================================\n");
    std::printf("%s — %s\n", id.c_str(), title.c_str());
    if (!paper_claim.empty()) std::printf("paper: %s\n", paper_claim.c_str());
    std::printf("================================================================\n");
}

/// A mixed campus trace with a given Windows demand share (by core-seconds,
/// approximately), used by the utilisation experiments. Runtimes are scaled
/// down so a day-long horizon simulates in milliseconds.
inline std::vector<workload::JobSpec> mixed_trace(double windows_share, std::uint64_t seed,
                                                  double rate_per_hour = 10.0,
                                                  sim::Duration horizon = sim::hours(20)) {
    workload::GeneratorConfig cfg;
    cfg.arrival.rate_per_hour = rate_per_hour;
    cfg.horizon = horizon;
    cfg.max_nodes = 4;
    cfg.runtime_scale = 0.25;
    // Steer the flexible jobs to hit the requested Windows share.
    cfg.flexible_policy = windows_share > 0.25 ? workload::FlexiblePolicy::kPreferWindows
                                               : workload::FlexiblePolicy::kSplit;
    workload::WorkloadGenerator gen(workload::AppCatalog::huddersfield(), cfg, seed);
    auto trace = gen.generate();
    if (windows_share <= 0.05) {
        // Pure-Linux variant: retarget every flexible job, drop W-only jobs.
        std::vector<workload::JobSpec> filtered;
        for (auto job : trace) {
            if (job.os == cluster::OsType::kWindows && !job.flexible) continue;
            job.os = cluster::OsType::kLinux;
            filtered.push_back(job);
        }
        return filtered;
    }
    return trace;
}

/// One row of a scenario-comparison table.
inline std::vector<std::string> scenario_row(const core::ScenarioResult& r) {
    const auto& s = r.summary;
    return {r.label,
            std::to_string(s.completed) + "/" + std::to_string(s.submitted),
            util::format_fixed(s.utilisation * 100.0, 1) + "%",
            util::format_duration(static_cast<std::int64_t>(s.mean_wait_s)),
            util::format_duration(static_cast<std::int64_t>(s.mean_wait_windows_s)),
            util::format_duration(static_cast<std::int64_t>(s.p95_wait_s)),
            std::to_string(s.os_switches),
            util::format_fixed(s.switch_overhead * 100.0, 2) + "%"};
}

/// Append the standard deterministic metrics of one scenario result,
/// qualified by `params`. All values are simulated-time quantities, so the
/// emitted records are identical at any `--threads` count — only the
/// top-level sweep fields (set_sweep) carry wall-clock.
inline void add_scenario_records(JsonReport& report, const core::ScenarioResult& r,
                                 const std::vector<std::pair<std::string, std::string>>& params) {
    const auto& s = r.summary;
    report.add("utilisation", s.utilisation, "fraction", params);
    report.add("mean_wait_s", s.mean_wait_s, "s", params);
    report.add("mean_wait_windows_s", s.mean_wait_windows_s, "s", params);
    report.add("completed_jobs", static_cast<double>(s.completed), "jobs", params);
    report.add("os_switches", static_cast<double>(s.os_switches), "switches", params);
}

/// Footer line every sweep-migrated bench prints: how the replica pool ran.
inline void print_sweep_stats(const sweep::SweepStats& st) {
    std::printf("\nsweep: %zu replica(s) on %d thread(s), %.1f ms wall (%.1f replicas/s)\n",
                st.replicas, st.threads, st.wall_ms, st.replicas_per_sec);
}

/// Footer line for forked campaigns: how the warm-start amortised.
inline void print_fork_stats(const sweep::ForkStats& fs) {
    std::printf("fork : %d prefix(es), %llu fork(s), snapshot %zu B, "
                "prefix %.0f sim-s / suffix %.0f sim-s\n",
                fs.prefixes, static_cast<unsigned long long>(fs.forks), fs.snapshot_bytes,
                fs.prefix_sim_s, fs.suffix_sim_s);
}

inline util::Table scenario_table() {
    util::Table table({"scenario", "done", "util", "mean wait", "wait(W)", "p95 wait",
                       "switches", "reboot loss"});
    table.set_alignment({util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight});
    return table;
}

}  // namespace hc::bench
