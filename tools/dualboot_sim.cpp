// dualboot-sim — scenario runner CLI.
//
// Generate workload traces and replay them under any of the comparison
// systems, from the shell:
//
//   dualboot-sim generate --rate 8 --hours 24 --seed 7 > trace.txt
//   dualboot-sim run --trace trace.txt --scenario hybrid --policy fair-share
//   dualboot-sim run --trace trace.txt --scenario static --linux-nodes 12
//   dualboot-sim run --trace trace.txt --policy burst-aware --cloud cloud.json
//   dualboot-sim case-study                 # the §IV.B MDCS trace, inline
//   dualboot-sim sweep --spec spec.json --threads 4   # N-seed parallel sweep
//
// Scenarios: hybrid | static | mono | oracle.
// Policies : fcfs | threshold | fair-share | predictive | never | calendar |
//            burst-aware.
//
// Each hc-*/1 document parses inside its library, beside the description of
// its format: core/scenario.hpp (--cloud), sweep/spec.hpp, grid/spec.hpp,
// serve/spec.hpp and fault/plan.hpp (--faults). This file keeps the flags,
// the file I/O and the printing.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "fault/plan.hpp"
#include "grid/spec.hpp"
#include "serve/runner.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/time_format.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

using namespace hc;

namespace {

/// Tiny --flag value parser: flags map to the string after them.
std::map<std::string, std::string> parse_flags(int argc, char** argv, int start) {
    std::map<std::string, std::string> flags;
    for (int i = start; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0) {
            std::fprintf(stderr, "dualboot-sim: unexpected argument %s\n", argv[i]);
            std::exit(1);
        }
        key = key.substr(2);
        if (i + 1 >= argc) {
            std::fprintf(stderr, "dualboot-sim: --%s needs a value\n", key.c_str());
            std::exit(1);
        }
        flags[key] = argv[++i];
    }
    return flags;
}

std::string flag_or(const std::map<std::string, std::string>& flags, const std::string& key,
                    const std::string& fallback) {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
}

/// Report a bad flag value and exit 1.
[[noreturn]] void bad_flag(const std::string& message) {
    std::fprintf(stderr, "dualboot-sim: %s\n", message.c_str());
    std::exit(1);
}

/// A parsed flag value, or exit with the parser's message.
template <typename T>
T flag_value_or_die(util::Result<T> parsed) {
    if (!parsed.ok()) bad_flag(parsed.error_message());
    return std::move(parsed).take();
}

/// Read a numeric flag through the spec loaders' range check
/// (util::read_number), so `--nodes 0` is the same typed error as
/// `"nodes": 0`. An absent flag leaves `out` as it is; text that is not a
/// number, or a number outside [lo, hi], exits 1.
template <typename T>
void read_flag(const std::map<std::string, std::string>& flags, const std::string& key, T& out,
               T lo = std::numeric_limits<T>::lowest(), T hi = std::numeric_limits<T>::max()) {
    const auto it = flags.find(key);
    if (it == flags.end()) return;
    const char* text = it->second.c_str();
    char* end = nullptr;
    double number = std::strtod(text, &end);
    if (end == text || *end != '\0') number = std::nan("");  // outside every range
    if (auto st = util::read_number("--" + key, number, out, lo, hi); !st.ok())
        bad_flag(st.error_message());
}

int cmd_generate(const std::map<std::string, std::string>& flags) {
    workload::GeneratorConfig cfg;
    cfg.arrival.rate_per_hour = 8.0;
    double hours = 24.0;
    cfg.max_nodes = 4;
    std::uint64_t seed = 42;
    read_flag(flags, "rate", cfg.arrival.rate_per_hour, 0.0, double{util::kSpecCountMax});
    read_flag(flags, "hours", hours, 0.0, util::kSpecHoursMax);
    read_flag(flags, "max-nodes", cfg.max_nodes, 1, util::kSpecCountMax);
    read_flag(flags, "runtime-scale", cfg.runtime_scale, 0.0, 1e6);
    read_flag(flags, "seed", seed);
    cfg.horizon = sim::hours(hours);
    if (cfg.arrival.rate_per_hour <= 0) bad_flag("--rate must be > 0");
    if (cfg.horizon.ms <= 0) bad_flag("--hours must be > 0");
    if (cfg.runtime_scale <= 0) bad_flag("--runtime-scale must be > 0");
    workload::WorkloadGenerator gen(workload::AppCatalog::huddersfield(), cfg, seed);
    std::fputs(workload::serialize_trace(gen.generate()).c_str(), stdout);
    return 0;
}

/// Read a whole file into `out`; report and return false when it cannot be
/// opened.
bool read_file(const std::string& path, std::string& out) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "dualboot-sim: cannot open %s\n", path.c_str());
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

/// Report a spec the library parser rejected; returns the exit status.
int bad_spec(const char* kind, const std::string& path, const util::Error& error) {
    std::fprintf(stderr, "dualboot-sim: bad %s spec %s: %s\n", kind, path.c_str(),
                 error.to_string().c_str());
    return 1;
}

/// Load an hc-fault-plan/1 file.
bool load_fault_plan(const std::string& path, fault::FaultPlan& out) {
    std::string text;
    if (!read_file(path, text)) return false;
    auto plan = fault::parse_fault_plan(text);
    if (!plan.ok()) {
        std::fprintf(stderr, "dualboot-sim: bad fault plan %s: %s\n", path.c_str(),
                     plan.error_message().c_str());
        return false;
    }
    out = std::move(plan).take();
    return true;
}

void write_file_or_die(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "dualboot-sim: cannot write %s\n", path.c_str());
        std::exit(1);
    }
    out << content;
}

int cmd_run(const std::map<std::string, std::string>& flags,
            const std::vector<workload::JobSpec>& trace,
            bool trace_flag_is_input = false) {
    core::ScenarioConfig cfg;
    // Telemetry outputs. Under `run` the --trace flag names the input
    // workload, so the Chrome-trace output is --trace-out there; under
    // case-study plain --trace works too.
    const std::string trace_out = flag_or(flags, "trace-out",
                                          trace_flag_is_input
                                              ? std::string()
                                              : flag_or(flags, "trace", std::string()));
    const std::string metrics_out = flag_or(flags, "metrics", std::string());
    const std::string journal_out = flag_or(flags, "journal", std::string());
    cfg.obs.trace = !trace_out.empty();
    cfg.obs.metrics = !metrics_out.empty();
    cfg.obs.journal = !journal_out.empty();
    cfg.kind = flag_value_or_die(
        core::parse_scenario_kind(flag_or(flags, "scenario", std::string("hybrid"))));
    cfg.policy = flag_value_or_die(
        core::parse_policy_kind(flag_or(flags, "policy", std::string("fcfs"))));
    cfg.node_count = 16;
    read_flag(flags, "nodes", cfg.node_count, 1, util::kSpecCountMax);
    cfg.linux_nodes = cfg.node_count;
    read_flag(flags, "linux-nodes", cfg.linux_nodes, 0, cfg.node_count);
    cfg.version = flag_or(flags, "version", std::string("v2")) == "v1"
                      ? deploy::MiddlewareVersion::kV1
                      : deploy::MiddlewareVersion::kV2;
    double poll_minutes = 10.0;
    double hours = 40.0;
    read_flag(flags, "poll-minutes", poll_minutes, 0.0, util::kSpecHoursMax * 60.0);
    read_flag(flags, "hours", hours, 0.0, util::kSpecHoursMax);
    cfg.poll_interval = sim::minutes(poll_minutes);
    cfg.horizon = sim::hours(hours);
    if (cfg.poll_interval.ms <= 0) bad_flag("--poll-minutes must be > 0");
    if (cfg.horizon.ms <= 0) bad_flag("--hours must be > 0");
    cfg.seed = 42;
    read_flag(flags, "seed", cfg.seed);
    cfg.fair_share_cooldown = 0;
    read_flag(flags, "cooldown", cfg.fair_share_cooldown, 0);

    // Elastic partition: --cloud spec.json arms max_burst cloud slots beside
    // the fixed pools (pair with --policy burst-aware for the decision side).
    const std::string cloud_path = flag_or(flags, "cloud", std::string());
    if (!cloud_path.empty()) {
        std::string text;
        if (!read_file(cloud_path, text)) std::exit(1);
        auto cloud = core::parse_cloud_spec(text, cfg);
        if (!cloud.ok()) std::exit(bad_spec("cloud", cloud_path, cloud.error()));
        cfg = std::move(cloud).take();
    }

    // Fault injection: --faults plan.json loads an hc-fault-plan/1 document;
    // recovery defaults to on when faults are present (use --recovery off
    // to watch the failure modes unassisted).
    const std::string faults_path = flag_or(flags, "faults", std::string());
    if (!faults_path.empty() && !load_fault_plan(faults_path, cfg.faults)) std::exit(1);
    const std::string recovery =
        flag_or(flags, "recovery", faults_path.empty() ? std::string("off") : std::string("on"));
    cfg.recovery.enabled = recovery == "on";

    const auto result = core::run_scenario(cfg, trace);
    const auto& s = result.summary;
    std::printf("scenario  : %s\n", result.label.c_str());
    std::printf("jobs      : %zu submitted, %zu completed (%.0f%%)\n", s.submitted,
                s.completed, s.completion_rate * 100.0);
    std::printf("waits     : mean %s (L %s / W %s), p95 %s\n",
                util::format_duration(static_cast<std::int64_t>(s.mean_wait_s)).c_str(),
                util::format_duration(static_cast<std::int64_t>(s.mean_wait_linux_s)).c_str(),
                util::format_duration(
                    static_cast<std::int64_t>(s.mean_wait_windows_s)).c_str(),
                util::format_duration(static_cast<std::int64_t>(s.p95_wait_s)).c_str());
    std::printf("capacity  : %.1f%% utilisation, %.2f%% lost to reboots\n",
                s.utilisation * 100.0, s.switch_overhead * 100.0);
    std::printf("switching : %llu OS switches, %llu switch orders\n",
                static_cast<unsigned long long>(s.os_switches),
                static_cast<unsigned long long>(result.linux_daemon.switches_ordered));
    if (result.cloud_enabled)
        std::printf("cloud     : %llu bursts (%llu denied), %llu provisioned, %llu released, "
                    "mean reaction %.0f s, %.2f node-hours ($%.2f)\n",
                    static_cast<unsigned long long>(result.cloud_stats.burst_requests),
                    static_cast<unsigned long long>(result.cloud_stats.quota_denied),
                    static_cast<unsigned long long>(result.cloud_stats.provisions_completed),
                    static_cast<unsigned long long>(result.cloud_stats.releases),
                    result.cloud_stats.mean_reaction_s(), result.cloud_node_hours,
                    result.cloud_cost);
    if (!faults_path.empty()) {
        std::printf("faults    : %llu injected (%llu hangs, %llu crashes, %llu torn writes, "
                    "%llu outages), %llu skipped\n",
                    static_cast<unsigned long long>(result.fault_stats.injected),
                    static_cast<unsigned long long>(result.fault_stats.boot_hangs),
                    static_cast<unsigned long long>(result.fault_stats.node_crashes),
                    static_cast<unsigned long long>(result.fault_stats.control_corruptions +
                                                    result.fault_stats.flag_torn_writes),
                    static_cast<unsigned long long>(result.fault_stats.pxe_outages),
                    static_cast<unsigned long long>(result.fault_stats.skipped));
        std::printf("recovery  : %s, %llu power cycles, %llu flag repairs, %llu recoveries, "
                    "mttr %.0fs, %llu orders reissued, %llu abandoned\n",
                    cfg.recovery.enabled ? "on" : "off",
                    static_cast<unsigned long long>(result.recovery_stats.power_cycles +
                                                    result.controller.recovery_power_cycles),
                    static_cast<unsigned long long>(result.recovery_stats.flag_repairs),
                    static_cast<unsigned long long>(result.recovery_stats.recoveries),
                    result.recovery_stats.mean_time_to_recover_s(),
                    static_cast<unsigned long long>(result.controller.orders_reissued),
                    static_cast<unsigned long long>(result.controller.orders_abandoned));
    }
    if (!trace_out.empty()) {
        write_file_or_die(trace_out, result.chrome_trace_json);
        std::printf("trace     : %s (chrome://tracing)\n", trace_out.c_str());
    }
    if (!metrics_out.empty()) {
        write_file_or_die(metrics_out, result.metrics.to_json());
        std::printf("metrics   : %s\n", metrics_out.c_str());
    }
    if (!journal_out.empty()) {
        write_file_or_die(journal_out, result.journal_jsonl);
        std::printf("journal   : %s\n", journal_out.c_str());
    }
    return 0;
}

/// One row per replica: completion, utilisation, waits and OS switches.
std::string replica_table(const char* first_column,
                          const std::vector<core::ScenarioResult>& results) {
    util::Table table({first_column, "done", "util", "mean wait", "wait(W)", "switches"});
    table.set_alignment({util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight, util::Align::kRight});
    for (const auto& r : results) {
        const auto& s = r.summary;
        table.add_row({r.label, std::to_string(s.completed) + "/" + std::to_string(s.submitted),
                       util::format_fixed(s.utilisation * 100.0, 1) + "%",
                       util::format_duration(static_cast<std::int64_t>(s.mean_wait_s)),
                       util::format_duration(static_cast<std::int64_t>(s.mean_wait_windows_s)),
                       std::to_string(s.os_switches)});
    }
    return table.render();
}

// ---- sweep: N-seed parallel replica sweep from an hc-sweep-spec/1 file ----
//
// Output (table, aggregates) is identical at any --threads count; only the
// pool line changes.
int cmd_sweep(const std::string& spec_path, const std::string& text,
              const std::map<std::string, std::string>& flags) {
    auto parsed = sweep::parse_sweep_spec(text, std::filesystem::path(spec_path).parent_path());
    if (!parsed.ok()) return bad_spec("sweep", spec_path, parsed.error());
    sweep::SweepSpec& spec = parsed.value();
    core::ScenarioConfig& base = spec.base;
    if (!spec.faults_path.empty() && !load_fault_plan(spec.faults_path, base.faults)) return 1;

    workload::WorkloadGenerator gen(workload::AppCatalog::huddersfield(), spec.workload.config,
                                    spec.workload.seed);
    auto trace = std::make_shared<const std::vector<workload::JobSpec>>(gen.generate());
    const std::uint64_t first_seed = spec.first_seed;
    const std::uint64_t seed_count = spec.seed_count;
    int threads = 0;
    read_flag(flags, "threads", threads);

    // Warm-started campaign: `fork` replaces the seed fan-out (the shared
    // prefix runs at first_seed; per-variant diversity comes only from the
    // divergence applied at the fork point).
    if (spec.fork.has_value()) {
        const double horizon_h = static_cast<double>(base.horizon.ms) / 3'600'000.0;
        const double prefix_h = spec.fork->prefix_hours;
        sweep::ForkCampaign campaign;
        campaign.base = base;
        campaign.base.seed = first_seed;
        campaign.trace = trace;
        campaign.fork_at = sim::TimePoint{} + sim::hours(prefix_h);
        for (const sweep::ForkVariantSpec& v : spec.fork->variants) {
            if (v.policy.has_value()) {
                campaign.variants.push_back(
                    [policy = *v.policy, cooldown = v.cooldown](core::ScenarioWorld& world) {
                        world.hybrid().set_policy(policy, cooldown);
                    });
            } else {
                fault::FaultPlan plan;
                if (!load_fault_plan(v.faults_path, plan)) return 1;
                campaign.variants.push_back(
                    [plan = std::move(plan), seed = v.seed](core::ScenarioWorld& world) {
                        world.hybrid().arm_faults(plan, seed);
                    });
            }
            campaign.labels.push_back(v.label);
        }

        sweep::ForkStats fs;
        const auto out = sweep::run_forked_scenarios(campaign, threads, &fs);
        std::printf("sweep     : %s forked campaign, %zu variant(s), prefix %.1f h of "
                    "%.1f h, %zu jobs\n",
                    core::scenario_kind_name(base.kind), campaign.variants.size(), prefix_h,
                    horizon_h, trace->size());
        std::printf("%s", replica_table("variant", out.results).c_str());
        std::printf("pool      : %zu replica(s) on %d thread(s), %.1f ms wall "
                    "(%.1f replicas/s)\n",
                    out.stats.replicas, out.stats.threads, out.stats.wall_ms,
                    out.stats.replicas_per_sec);
        std::printf("fork      : %d prefix(es), %llu fork(s), snapshot %zu B, "
                    "prefix %.0f sim-s / suffix %.0f sim-s\n",
                    fs.prefixes, static_cast<unsigned long long>(fs.forks),
                    fs.snapshot_bytes, fs.prefix_sim_s, fs.suffix_sim_s);
        return 0;
    }
    std::vector<sweep::ScenarioReplica> replicas;
    replicas.reserve(seed_count);
    for (std::uint64_t i = 0; i < seed_count; ++i) {
        core::ScenarioConfig cfg = base;
        cfg.seed = first_seed + i;  // caller-forked per-replica seed
        replicas.push_back({cfg, trace, "seed " + std::to_string(cfg.seed)});
    }

    const auto out = sweep::run_scenarios(std::move(replicas), threads);

    std::printf("sweep     : %s x %llu seeds (%llu..%llu), %zu jobs/replica\n",
                core::scenario_kind_name(base.kind),
                static_cast<unsigned long long>(seed_count),
                static_cast<unsigned long long>(first_seed),
                static_cast<unsigned long long>(first_seed + seed_count - 1), trace->size());
    std::printf("%s", replica_table("replica", out.results).c_str());
    double util_sum = 0;
    std::size_t completed_sum = 0, submitted_sum = 0;
    for (const auto& r : out.results) {
        util_sum += r.summary.utilisation;
        completed_sum += r.summary.completed;
        submitted_sum += r.summary.submitted;
    }
    if (base.cloud.max_burst > 0) {
        std::uint64_t bursts = 0, provisioned = 0, released = 0;
        double node_hours = 0, cost = 0;
        for (const auto& r : out.results) {
            bursts += r.cloud_stats.burst_requests;
            provisioned += r.cloud_stats.provisions_completed;
            released += r.cloud_stats.releases;
            node_hours += r.cloud_node_hours;
            cost += r.cloud_cost;
        }
        std::printf("cloud     : %llu bursts, %llu provisioned, %llu released, "
                    "%.2f node-hours ($%.2f) across replicas\n",
                    static_cast<unsigned long long>(bursts),
                    static_cast<unsigned long long>(provisioned),
                    static_cast<unsigned long long>(released), node_hours, cost);
    }
    std::printf("aggregate : %zu/%zu jobs completed, mean utilisation %.1f%%, "
                "wait p50 %s / p95 %s across replicas\n",
                completed_sum, submitted_sum,
                util_sum / static_cast<double>(out.results.size()) * 100.0,
                util::format_duration(
                    static_cast<std::int64_t>(out.mean_wait_hist.percentile(0.5))).c_str(),
                util::format_duration(
                    static_cast<std::int64_t>(out.mean_wait_hist.percentile(0.95))).c_str());
    std::printf("pool      : %zu replica(s) on %d thread(s), %.1f ms wall "
                "(%.1f replicas/s)\n",
                out.stats.replicas, out.stats.threads, out.stats.wall_ms,
                out.stats.replicas_per_sec);
    return 0;
}

// ---- grid: sharded campus-grid federation from an hc-grid-spec/1 file ----
//
// The grid ledger is byte-identical at any --threads count; threads only
// move the wall-clock line.
int cmd_grid(const std::string& spec_path, const std::string& text,
              const std::map<std::string, std::string>& flags) {
    auto parsed = grid::parse_grid_spec(text);
    if (!parsed.ok()) return bad_spec("grid", spec_path, parsed.error());
    grid::GridSpec& spec = parsed.value();
    const double hours = spec.hours;
    grid::FederationConfig& config = spec.config;
    // The CLI flag wins over the spec's suggestion, matching `sweep`.
    read_flag(flags, "threads", config.threads);
    grid::FederatedGrid fed(config);
    for (grid::MemberSpec& member : spec.members) fed.add_member(std::move(member));

    workload::WorkloadGenerator gen(workload::AppCatalog::huddersfield(), spec.workload.config,
                                    spec.workload.seed);
    auto trace = gen.generate();

    fed.start();
    fed.run(trace, sim::TimePoint{} + sim::hours(hours));
    const grid::GridSummary report = fed.report(sim::hours(hours).seconds());

    std::printf("grid      : %zu member(s), routing %s, epoch %.0f min, %zu jobs\n",
                fed.member_count(), grid::routing_rule_name(config.rule),
                static_cast<double>(config.epoch.ms) / 60000.0, trace.size());
    util::Table table({"member", "kind", "nodes", "received", "done", "util", "mean wait"});
    table.set_alignment({util::Align::kLeft, util::Align::kLeft, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight, util::Align::kRight,
                         util::Align::kRight});
    for (const auto& ms : report.members) {
        table.add_row({ms.name, grid_member_kind_name(ms.kind),
                       std::to_string(ms.nodes) + "x" + std::to_string(ms.cores_per_node),
                       std::to_string(ms.jobs_received),
                       std::to_string(ms.summary.completed),
                       util::format_fixed(ms.summary.utilisation * 100.0, 1) + "%",
                       util::format_duration(
                           static_cast<std::int64_t>(ms.summary.mean_wait_s))});
    }
    std::printf("%s", table.render().c_str());
    const auto& total = report.total;
    std::printf("aggregate : %zu/%zu jobs completed, utilisation %.1f%%, mean wait %s, "
                "%llu switch(es)\n",
                total.completed, total.submitted, total.utilisation * 100.0,
                util::format_duration(static_cast<std::int64_t>(total.mean_wait_s)).c_str(),
                static_cast<unsigned long long>(total.os_switches));
    const auto& fs = fed.stats();
    std::printf("federation: %zu epoch(s), %zu routed / %zu rejected, %zu message(s) on "
                "%d thread(s), %.1f ms wall (%.1f epochs/s)\n",
                fs.epochs, fs.routed, fs.rejected, fs.messages, fs.threads, fs.wall_ms,
                fs.wall_ms > 0 ? static_cast<double>(fs.epochs) / (fs.wall_ms / 1e3) : 0.0);
    return 0;
}

// ---- serve: long-running submission service from an hc-serve-spec/1 file --
//
// Builds the spec's cluster + scheduler backend in one process, connects the
// simulated client fleet, and runs the service until the spec's horizon —
// reporting sustained submissions, query tail latency, and detector
// staleness from the hc::obs metrics the service maintains.
int cmd_serve(const std::string& spec_path, const std::string& text,
              const std::map<std::string, std::string>& flags) {
    auto spec = serve::parse_serve_spec(text);
    if (!spec.ok()) return bad_spec("serve", spec_path, spec.error());
    const serve::ServeSpec& s = spec.value();
    std::printf("serve     : %d client(s) on %d %s node(s), %.2f h, seed %llu\n", s.clients,
                s.nodes, s.backend == serve::BackendKind::kPbs ? "pbs" : "winhpc", s.hours,
                static_cast<unsigned long long>(s.seed));
    const auto result = serve::run_serve(s);
    std::fputs(result.render_report(/*include_wall=*/true).c_str(), stdout);
    const std::string metrics_out = flag_or(flags, "metrics", std::string());
    if (!metrics_out.empty()) {
        write_file_or_die(metrics_out, result.metrics.to_json());
        std::printf("metrics   : %s\n", metrics_out.c_str());
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s generate [--rate R --hours H --seed S --runtime-scale F]\n"
                     "       %s run --trace FILE [--scenario hybrid|static|mono|oracle]\n"
                     "              [--policy P --nodes N --linux-nodes K --hours H\n"
                     "               --poll-minutes M --version v1|v2 --seed S]\n"
                     "              [--faults plan.json --recovery on|off "
                     "--cloud cloud.json]\n"
                     "              [--trace-out T.json --metrics M.json --journal J.jsonl]\n"
                     "       %s case-study [run flags; --trace T.json writes the "
                     "chrome trace]\n"
                     "       %s sweep --spec spec.json [--threads N]   "
                     "(hc-sweep-spec/1 parallel sweep)\n"
                     "       %s grid --spec spec.json [--threads N]   "
                     "(hc-grid-spec/1 sharded federation)\n"
                     "       %s serve --spec spec.json [--metrics M.json]   "
                     "(hc-serve-spec/1 submission service)\n",
                     argv[0], argv[0], argv[0], argv[0], argv[0], argv[0]);
        return 1;
    }
    const std::string command = argv[1];
    auto flags = parse_flags(argc, argv, 2);

    if (command == "generate") return cmd_generate(flags);

    using SpecCommand = int (*)(const std::string&, const std::string&,
                                const std::map<std::string, std::string>&);
    for (const auto& [name, run_spec] : {std::pair<const char*, SpecCommand>{"sweep", cmd_sweep},
                                         {"grid", cmd_grid},
                                         {"serve", cmd_serve}}) {
        if (command != name) continue;
        const std::string spec = flag_or(flags, "spec", std::string());
        if (spec.empty()) {
            std::fprintf(stderr, "dualboot-sim %s: --spec FILE is required\n", name);
            return 1;
        }
        std::string text;
        if (!read_file(spec, text)) return 1;
        return run_spec(spec, text, flags);
    }

    if (command == "case-study") {
        std::uint64_t seed = 42;
        read_flag(flags, "seed", seed);
        return cmd_run(flags, workload::mdcs_ga_case_study(seed));
    }

    if (command == "run") {
        const std::string path = flag_or(flags, "trace", std::string());
        if (path.empty()) {
            std::fprintf(stderr, "dualboot-sim run: --trace FILE is required\n");
            return 1;
        }
        std::string text;
        if (!read_file(path, text)) return 1;
        auto trace = workload::parse_trace(text);
        if (!trace) {
            std::fprintf(stderr, "dualboot-sim: bad trace: %s\n",
                         trace.error_message().c_str());
            return 1;
        }
        return cmd_run(flags, trace.value(), /*trace_flag_is_input=*/true);
    }

    std::fprintf(stderr, "dualboot-sim: unknown command %s\n", command.c_str());
    return 1;
}
