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
// --cloud names an hc-cloud-spec/1 document arming the elastic partition:
//
//   {"schema": "hc-cloud-spec/1",
//    "max_burst": 8, "provision_s": 120, "provision_jitter": 0.25,
//    "provision_failure": 0, "idle_timeout_min": 30, "sweep_s": 60,
//    "price_per_node_hour": 0.32, "cooldown_polls": 2,
//    "drain_estimate_s": 600, "cloud_seed": 77}
//
// Sweep specs embed the same knobs inline as a "cloud" object (no schema
// field needed there — the sweep spec's own schema covers it).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "core/scenario.hpp"
#include "fault/plan.hpp"
#include "grid/federation.hpp"
#include "serve/runner.hpp"
#include "sweep/runner.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/time_format.hpp"
#include "workload/generator.hpp"
#include "workload/metrics.hpp"
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

double flag_or(const std::map<std::string, std::string>& flags, const std::string& key,
               double fallback) {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

std::string flag_or(const std::map<std::string, std::string>& flags, const std::string& key,
                    const std::string& fallback) {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
}

int cmd_generate(const std::map<std::string, std::string>& flags) {
    workload::GeneratorConfig cfg;
    cfg.arrival.rate_per_hour = flag_or(flags, "rate", 8.0);
    cfg.horizon = sim::hours(flag_or(flags, "hours", 24.0));
    cfg.max_nodes = static_cast<int>(flag_or(flags, "max-nodes", 4.0));
    cfg.runtime_scale = flag_or(flags, "runtime-scale", 1.0);
    workload::WorkloadGenerator gen(workload::AppCatalog::huddersfield(), cfg,
                                    static_cast<std::uint64_t>(flag_or(flags, "seed", 42.0)));
    std::fputs(workload::serialize_trace(gen.generate()).c_str(), stdout);
    return 0;
}

core::ScenarioKind parse_scenario(const std::string& name) {
    if (name == "hybrid") return core::ScenarioKind::kBiStableHybrid;
    if (name == "static") return core::ScenarioKind::kStaticSplit;
    if (name == "mono") return core::ScenarioKind::kMonoStable;
    if (name == "oracle") return core::ScenarioKind::kOracle;
    std::fprintf(stderr, "dualboot-sim: unknown scenario %s\n", name.c_str());
    std::exit(1);
}

core::PolicyKind parse_policy(const std::string& name) {
    if (name == "fcfs") return core::PolicyKind::kFcfs;
    if (name == "threshold") return core::PolicyKind::kThreshold;
    if (name == "fair-share") return core::PolicyKind::kFairShare;
    if (name == "predictive") return core::PolicyKind::kPredictive;
    if (name == "never") return core::PolicyKind::kNever;
    if (name == "calendar") return core::PolicyKind::kCalendar;
    if (name == "burst-aware") return core::PolicyKind::kBurstAware;
    std::fprintf(stderr, "dualboot-sim: unknown policy %s\n", name.c_str());
    std::exit(1);
}

/// Apply an hc-cloud-spec/1 document (or a sweep spec's inline "cloud"
/// object) to a scenario config: the elastic-partition knobs plus the
/// burst-aware policy tuning that rides along with them.
void apply_cloud_block(const util::JsonValue& c, core::ScenarioConfig& cfg) {
    cfg.cloud.max_burst =
        static_cast<int>(util::json_num_or(c, "max_burst", cfg.cloud.max_burst));
    cfg.cloud.provision_delay =
        sim::seconds(util::json_num_or(c, "provision_s", cfg.cloud.provision_delay.seconds()));
    cfg.cloud.provision_jitter =
        util::json_num_or(c, "provision_jitter", cfg.cloud.provision_jitter);
    cfg.cloud.provision_failure_probability =
        util::json_num_or(c, "provision_failure", cfg.cloud.provision_failure_probability);
    cfg.cloud.idle_timeout = sim::seconds(
        util::json_num_or(c, "idle_timeout_min", cfg.cloud.idle_timeout.seconds() / 60.0) *
        60.0);
    cfg.cloud.sweep_interval =
        sim::seconds(util::json_num_or(c, "sweep_s", cfg.cloud.sweep_interval.seconds()));
    cfg.cloud.price_per_node_hour =
        util::json_num_or(c, "price_per_node_hour", cfg.cloud.price_per_node_hour);
    cfg.cloud.seed = static_cast<std::uint64_t>(
        util::json_num_or(c, "cloud_seed", static_cast<double>(cfg.cloud.seed)));
    cfg.burst_cooldown_polls =
        static_cast<int>(util::json_num_or(c, "cooldown_polls", cfg.burst_cooldown_polls));
    cfg.burst_drain_estimate_s =
        util::json_num_or(c, "drain_estimate_s", cfg.burst_drain_estimate_s);
}

bool load_cloud_spec(const std::string& path, core::ScenarioConfig& cfg) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "dualboot-sim: cannot open %s\n", path.c_str());
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    auto parsed = util::JsonReader(buf.str()).parse();
    if (!parsed.ok() || parsed.value().type != util::JsonValue::Type::kObject ||
        util::json_str_or(parsed.value(), "schema", "") != "hc-cloud-spec/1") {
        std::fprintf(stderr, "dualboot-sim: bad cloud spec %s: %s\n", path.c_str(),
                     parsed.ok() ? "missing schema hc-cloud-spec/1"
                                 : parsed.error_message().c_str());
        return false;
    }
    apply_cloud_block(parsed.value(), cfg);
    if (cfg.cloud.max_burst <= 0) {
        std::fprintf(stderr, "dualboot-sim: cloud spec %s: max_burst must be >= 1\n",
                     path.c_str());
        return false;
    }
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
    cfg.kind = parse_scenario(flag_or(flags, "scenario", std::string("hybrid")));
    cfg.policy = parse_policy(flag_or(flags, "policy", std::string("fcfs")));
    cfg.node_count = static_cast<int>(flag_or(flags, "nodes", 16.0));
    cfg.linux_nodes = static_cast<int>(flag_or(flags, "linux-nodes",
                                               static_cast<double>(cfg.node_count)));
    cfg.version = flag_or(flags, "version", std::string("v2")) == "v1"
                      ? deploy::MiddlewareVersion::kV1
                      : deploy::MiddlewareVersion::kV2;
    cfg.poll_interval = sim::minutes(flag_or(flags, "poll-minutes", 10.0));
    cfg.horizon = sim::hours(flag_or(flags, "hours", 40.0));
    cfg.seed = static_cast<std::uint64_t>(flag_or(flags, "seed", 42.0));
    cfg.fair_share_cooldown = static_cast<int>(flag_or(flags, "cooldown", 0.0));

    // Elastic partition: --cloud spec.json arms max_burst cloud slots beside
    // the fixed pools (pair with --policy burst-aware for the decision side).
    const std::string cloud_path = flag_or(flags, "cloud", std::string());
    if (!cloud_path.empty() && !load_cloud_spec(cloud_path, cfg)) std::exit(1);

    // Fault injection: --faults plan.json loads an hc-fault-plan/1 document;
    // recovery defaults to on when faults are present (use --recovery off
    // to watch the failure modes unassisted).
    const std::string faults_path = flag_or(flags, "faults", std::string());
    if (!faults_path.empty()) {
        std::ifstream in(faults_path);
        if (!in) {
            std::fprintf(stderr, "dualboot-sim: cannot open %s\n", faults_path.c_str());
            std::exit(1);
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        auto plan = fault::parse_fault_plan(buffer.str());
        if (!plan.ok()) {
            std::fprintf(stderr, "dualboot-sim: bad fault plan %s: %s\n", faults_path.c_str(),
                         plan.error_message().c_str());
            std::exit(1);
        }
        cfg.faults = plan.value();
    }
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

// ---- sweep: N-seed parallel replica sweep from an hc-sweep-spec/1 file ----
//
//   {"schema": "hc-sweep-spec/1",
//    "scenario": "hybrid", "policy": "fair-share",
//    "nodes": 16, "linux_nodes": 16, "hours": 20, "poll_minutes": 10,
//    "version": "v2", "first_seed": 1, "seed_count": 8,
//    "recovery": "off", "faults": "plan.json",          <- both optional
//    "workload": {"rate_per_hour": 8, "max_nodes": 4,
//                 "runtime_scale": 0.25, "trace_seed": 42}}
//
// One workload trace is generated from the workload block and shared across
// all replicas; each replica runs the scenario at seed first_seed + i through
// the hc::sweep pool. Output (table, aggregates) is identical at any
// --threads count — only the throughput line changes.
//
// An optional `fork` block switches the sweep to a warm-started campaign:
// one world (seed first_seed) runs the shared prefix to `prefix_hours`, is
// snapshotted, and every variant resumes from a restored fork. Variants
// install a policy or arm a fault plan at the fork point (plan event times
// are offsets relative to it):
//
//   "fork": {"prefix_hours": 16,
//            "variants": [{"label": "stay-fcfs", "policy": "fcfs"},
//                         {"policy": "fair-share", "cooldown": 3},
//                         {"faults": "late_plan.json", "seed": 7}]}

/// Load an hc-fault-plan/1 document, resolving relative paths against the
/// spec file's directory (specs ship next to their plans).
bool load_fault_plan(const std::string& rel, const std::string& spec_path,
                     fault::FaultPlan& out) {
    std::filesystem::path path(rel);
    if (path.is_relative())
        path = std::filesystem::path(spec_path).parent_path() / path;
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "dualboot-sim: cannot open fault plan %s\n",
                     path.string().c_str());
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    auto plan = fault::parse_fault_plan(buf.str());
    if (!plan.ok()) {
        std::fprintf(stderr, "dualboot-sim: bad fault plan %s: %s\n", path.string().c_str(),
                     plan.error_message().c_str());
        return false;
    }
    out = plan.value();
    return true;
}

int cmd_sweep(const std::string& spec_path, const std::map<std::string, std::string>& flags) {
    std::ifstream in(spec_path);
    if (!in) {
        std::fprintf(stderr, "dualboot-sim: cannot open %s\n", spec_path.c_str());
        return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    auto parsed = util::JsonReader(text).parse();
    if (!parsed.ok() || parsed.value().type != util::JsonValue::Type::kObject ||
        util::json_str_or(parsed.value(), "schema", "") != "hc-sweep-spec/1") {
        std::fprintf(stderr, "dualboot-sim: bad sweep spec %s: %s\n", spec_path.c_str(),
                     parsed.ok() ? "missing schema hc-sweep-spec/1"
                                 : parsed.error_message().c_str());
        return 1;
    }
    const util::JsonValue& spec = parsed.value();

    core::ScenarioConfig base;
    base.kind = parse_scenario(util::json_str_or(spec, "scenario", "hybrid"));
    base.policy = parse_policy(util::json_str_or(spec, "policy", "fcfs"));
    base.node_count = static_cast<int>(util::json_num_or(spec, "nodes", 16));
    base.linux_nodes =
        static_cast<int>(util::json_num_or(spec, "linux_nodes", base.node_count));
    base.version = util::json_str_or(spec, "version", "v2") == "v1"
                       ? deploy::MiddlewareVersion::kV1
                       : deploy::MiddlewareVersion::kV2;
    base.poll_interval = sim::minutes(util::json_num_or(spec, "poll_minutes", 10));
    base.horizon = sim::hours(util::json_num_or(spec, "hours", 20));
    base.fair_share_cooldown = static_cast<int>(util::json_num_or(spec, "cooldown", 0));

    // Optional inline elastic-partition block (same knobs as hc-cloud-spec/1).
    if (const util::JsonValue* c = spec.find("cloud"); c != nullptr) {
        if (c->type != util::JsonValue::Type::kObject) {
            std::fprintf(stderr, "dualboot-sim: bad sweep spec %s: cloud must be an object\n",
                         spec_path.c_str());
            return 1;
        }
        apply_cloud_block(*c, base);
    }

    // Optional fault plan, resolved relative to the spec file's directory so
    // specs can ship next to their plans.
    const std::string faults_rel = util::json_str_or(spec, "faults", "");
    if (!faults_rel.empty() && !load_fault_plan(faults_rel, spec_path, base.faults)) return 1;
    base.recovery.enabled =
        util::json_str_or(spec, "recovery", faults_rel.empty() ? "off" : "on") == "on";

    // Shared workload trace (one copy across all replicas). The arrival
    // knobs (rate, bursts, diurnal shape) parse through the same
    // workload::parse_arrival_spec as hc-serve-spec/1 documents.
    workload::GeneratorConfig wl;
    std::uint64_t trace_seed = 42;
    if (const util::JsonValue* w = spec.find("workload");
        w != nullptr && w->type == util::JsonValue::Type::kObject) {
        auto arrival = workload::parse_arrival_spec(*w);
        if (!arrival.ok()) {
            std::fprintf(stderr, "dualboot-sim: bad sweep spec %s: %s\n", spec_path.c_str(),
                         arrival.error_message().c_str());
            return 1;
        }
        wl.arrival = arrival.value();
        wl.max_nodes = static_cast<int>(util::json_num_or(*w, "max_nodes", 4));
        wl.runtime_scale = util::json_num_or(*w, "runtime_scale", 0.25);
        trace_seed = static_cast<std::uint64_t>(util::json_num_or(*w, "trace_seed", 42));
    }
    wl.horizon = base.horizon;
    workload::WorkloadGenerator gen(workload::AppCatalog::huddersfield(), wl, trace_seed);
    auto trace = std::make_shared<const std::vector<workload::JobSpec>>(gen.generate());

    const auto first_seed = static_cast<std::uint64_t>(util::json_num_or(spec, "first_seed", 1));
    const auto seed_count = static_cast<std::uint64_t>(util::json_num_or(spec, "seed_count", 4));
    if (seed_count == 0) {
        std::fprintf(stderr, "dualboot-sim: seed_count must be >= 1\n");
        return 1;
    }
    const int threads = static_cast<int>(flag_or(flags, "threads", 0.0));

    // Warm-started campaign: `fork` replaces the seed fan-out (the shared
    // prefix runs at first_seed; per-variant diversity comes only from the
    // divergence applied at the fork point).
    if (const util::JsonValue* fork = spec.find("fork"); fork != nullptr) {
        if (fork->type != util::JsonValue::Type::kObject) {
            std::fprintf(stderr, "dualboot-sim: bad sweep spec %s: fork must be an object\n",
                         spec_path.c_str());
            return 1;
        }
        const double horizon_h = static_cast<double>(base.horizon.ms) / 3'600'000.0;
        const double prefix_h = util::json_num_or(*fork, "prefix_hours", horizon_h / 2);
        sweep::ForkCampaign campaign;
        campaign.base = base;
        campaign.base.seed = first_seed;
        campaign.trace = trace;
        campaign.fork_at = sim::TimePoint{} + sim::hours(prefix_h);
        const util::JsonValue* variants = fork->find("variants");
        if (variants == nullptr || variants->type != util::JsonValue::Type::kArray ||
            variants->array.empty()) {
            std::fprintf(stderr,
                         "dualboot-sim: bad sweep spec %s: fork.variants must be a "
                         "non-empty array\n",
                         spec_path.c_str());
            return 1;
        }
        for (const util::JsonValue& v : variants->array) {
            if (v.type != util::JsonValue::Type::kObject) {
                std::fprintf(stderr,
                             "dualboot-sim: bad sweep spec %s: fork variant must be an "
                             "object\n",
                             spec_path.c_str());
                return 1;
            }
            const std::string policy_name = util::json_str_or(v, "policy", "");
            const std::string plan_rel = util::json_str_or(v, "faults", "");
            std::string label = util::json_str_or(v, "label", "");
            if (!policy_name.empty()) {
                const core::PolicyKind policy = parse_policy(policy_name);
                const int cooldown = static_cast<int>(util::json_num_or(v, "cooldown", -1));
                campaign.variants.push_back([policy, cooldown](core::ScenarioWorld& world) {
                    world.hybrid().set_policy(policy, cooldown);
                });
                if (label.empty()) label = policy_name;
            } else if (!plan_rel.empty()) {
                fault::FaultPlan plan;
                if (!load_fault_plan(plan_rel, spec_path, plan)) return 1;
                const auto seed =
                    static_cast<std::uint64_t>(util::json_num_or(v, "seed", 1));
                campaign.variants.push_back([plan, seed](core::ScenarioWorld& world) {
                    world.hybrid().arm_faults(plan, seed);
                });
                if (label.empty()) label = "faults-" + std::to_string(seed);
            } else {
                std::fprintf(stderr,
                             "dualboot-sim: bad sweep spec %s: fork variant needs "
                             "\"policy\" or \"faults\"\n",
                             spec_path.c_str());
                return 1;
            }
            campaign.labels.push_back(label);
        }

        sweep::ForkStats fs;
        const auto out = sweep::run_forked_scenarios(campaign, threads, &fs);
        std::printf("sweep     : %s forked campaign, %zu variant(s), prefix %.1f h of "
                    "%.1f h, %zu jobs\n",
                    core::scenario_kind_name(base.kind), campaign.variants.size(), prefix_h,
                    horizon_h, trace->size());
        util::Table table({"variant", "done", "util", "mean wait", "wait(W)", "switches"});
        table.set_alignment({util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                             util::Align::kRight, util::Align::kRight, util::Align::kRight});
        for (const auto& r : out.results) {
            const auto& s = r.summary;
            table.add_row({r.label,
                           std::to_string(s.completed) + "/" + std::to_string(s.submitted),
                           util::format_fixed(s.utilisation * 100.0, 1) + "%",
                           util::format_duration(static_cast<std::int64_t>(s.mean_wait_s)),
                           util::format_duration(
                               static_cast<std::int64_t>(s.mean_wait_windows_s)),
                           std::to_string(s.os_switches)});
        }
        std::printf("%s", table.render().c_str());
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
    util::Table table({"replica", "done", "util", "mean wait", "wait(W)", "switches"});
    table.set_alignment({util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight, util::Align::kRight});
    double util_sum = 0;
    std::size_t completed_sum = 0, submitted_sum = 0;
    for (const auto& r : out.results) {
        const auto& s = r.summary;
        table.add_row({r.label, std::to_string(s.completed) + "/" + std::to_string(s.submitted),
                       util::format_fixed(s.utilisation * 100.0, 1) + "%",
                       util::format_duration(static_cast<std::int64_t>(s.mean_wait_s)),
                       util::format_duration(static_cast<std::int64_t>(s.mean_wait_windows_s)),
                       std::to_string(s.os_switches)});
        util_sum += s.utilisation;
        completed_sum += s.completed;
        submitted_sum += s.submitted;
    }
    std::printf("%s", table.render().c_str());
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
//   {"schema": "hc-grid-spec/1",
//    "routing": "least-pressure", "epoch_minutes": 10,
//    "hours": 24, "threads": 2,
//    "members": [{"name": "tauceti", "kind": "dedicated-linux", "nodes": 16},
//                {"name": "vega", "kind": "dedicated-windows", "nodes": 8},
//                {"name": "eridani", "kind": "hybrid", "nodes": 16,
//                 "policy": "fair-share", "cores_per_node": 4}],
//    "workload": {"rate_per_hour": 6, "max_nodes": 4,
//                 "runtime_scale": 0.25, "trace_seed": 42}}
//
// Every member runs as an independent shard (own engine + arena) advanced in
// parallel by grid::FederatedGrid; routing happens at epoch boundaries. The
// grid ledger is byte-identical at any --threads count — threads only move
// the wall-clock line.
int cmd_grid(const std::string& spec_path, const std::map<std::string, std::string>& flags) {
    std::ifstream in(spec_path);
    if (!in) {
        std::fprintf(stderr, "dualboot-sim: cannot open %s\n", spec_path.c_str());
        return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto parsed = util::JsonReader(buffer.str()).parse();
    if (!parsed.ok() || parsed.value().type != util::JsonValue::Type::kObject ||
        util::json_str_or(parsed.value(), "schema", "") != "hc-grid-spec/1") {
        std::fprintf(stderr, "dualboot-sim: bad grid spec %s: %s\n", spec_path.c_str(),
                     parsed.ok() ? "missing schema hc-grid-spec/1"
                                 : parsed.error_message().c_str());
        return 1;
    }
    const util::JsonValue& spec = parsed.value();

    const auto routing = grid::parse_routing_rule(
        util::json_str_or(spec, "routing", "least-pressure"));
    if (!routing.ok()) {
        std::fprintf(stderr, "dualboot-sim: bad grid spec %s: %s\n", spec_path.c_str(),
                     routing.error_message().c_str());
        return 1;
    }
    grid::FederationConfig config;
    config.rule = routing.value();
    config.epoch = sim::minutes(util::json_num_or(spec, "epoch_minutes", 10));
    if (config.epoch.ms <= 0) {
        std::fprintf(stderr, "dualboot-sim: bad grid spec %s: epoch_minutes must be > 0\n",
                     spec_path.c_str());
        return 1;
    }
    const double hours = util::json_num_or(spec, "hours", 24);
    // The CLI flag wins over the spec's suggestion, matching `sweep`.
    config.threads = static_cast<int>(
        flag_or(flags, "threads", util::json_num_or(spec, "threads", 1)));

    const util::JsonValue* members = spec.find("members");
    if (members == nullptr || members->type != util::JsonValue::Type::kArray ||
        members->array.empty()) {
        std::fprintf(stderr,
                     "dualboot-sim: bad grid spec %s: members must be a non-empty array\n",
                     spec_path.c_str());
        return 1;
    }
    grid::FederatedGrid fed(config);
    for (const util::JsonValue& m : members->array) {
        if (m.type != util::JsonValue::Type::kObject) {
            std::fprintf(stderr, "dualboot-sim: bad grid spec %s: member must be an object\n",
                         spec_path.c_str());
            return 1;
        }
        grid::MemberSpec member;
        member.name = util::json_str_or(m, "name", "");
        const auto kind = grid::parse_member_kind(util::json_str_or(m, "kind", "hybrid"));
        if (member.name.empty() || !kind.ok()) {
            std::fprintf(stderr, "dualboot-sim: bad grid spec %s: %s\n", spec_path.c_str(),
                         member.name.empty() ? "member needs a name"
                                             : kind.error_message().c_str());
            return 1;
        }
        member.kind = kind.value();
        member.nodes = static_cast<int>(util::json_num_or(m, "nodes", 16));
        member.hybrid_policy = parse_policy(util::json_str_or(m, "policy", "fair-share"));
        member.cores_per_node = static_cast<int>(util::json_num_or(m, "cores_per_node", 4));
        fed.add_member(std::move(member));
    }

    // Shared arrival knobs (workload::parse_arrival_spec) — the same block
    // hc-sweep-spec/1 and hc-serve-spec/1 use.
    workload::GeneratorConfig wl;
    std::uint64_t trace_seed = 42;
    if (const util::JsonValue* w = spec.find("workload");
        w != nullptr && w->type == util::JsonValue::Type::kObject) {
        auto arrival = workload::parse_arrival_spec(*w);
        if (!arrival.ok()) {
            std::fprintf(stderr, "dualboot-sim: bad grid spec %s: %s\n", spec_path.c_str(),
                         arrival.error_message().c_str());
            return 1;
        }
        wl.arrival = arrival.value();
        wl.max_nodes = static_cast<int>(util::json_num_or(*w, "max_nodes", 4));
        wl.runtime_scale = util::json_num_or(*w, "runtime_scale", 0.25);
        trace_seed = static_cast<std::uint64_t>(util::json_num_or(*w, "trace_seed", 42));
    }
    wl.horizon = sim::hours(hours);
    workload::WorkloadGenerator gen(workload::AppCatalog::huddersfield(), wl, trace_seed);
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
int cmd_serve(const std::string& spec_path, const std::map<std::string, std::string>& flags) {
    std::ifstream in(spec_path);
    if (!in) {
        std::fprintf(stderr, "dualboot-sim: cannot open %s\n", spec_path.c_str());
        return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto spec = serve::parse_serve_spec(buffer.str());
    if (!spec.ok()) {
        std::fprintf(stderr, "dualboot-sim: bad serve spec %s: %s\n", spec_path.c_str(),
                     spec.error_message().c_str());
        return 1;
    }
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

    if (command == "sweep") {
        const std::string spec = flag_or(flags, "spec", std::string());
        if (spec.empty()) {
            std::fprintf(stderr, "dualboot-sim sweep: --spec FILE is required\n");
            return 1;
        }
        return cmd_sweep(spec, flags);
    }

    if (command == "grid") {
        const std::string spec = flag_or(flags, "spec", std::string());
        if (spec.empty()) {
            std::fprintf(stderr, "dualboot-sim grid: --spec FILE is required\n");
            return 1;
        }
        return cmd_grid(spec, flags);
    }

    if (command == "serve") {
        const std::string spec = flag_or(flags, "spec", std::string());
        if (spec.empty()) {
            std::fprintf(stderr, "dualboot-sim serve: --spec FILE is required\n");
            return 1;
        }
        return cmd_serve(spec, flags);
    }

    if (command == "case-study")
        return cmd_run(flags, workload::mdcs_ga_case_study(
                                  static_cast<std::uint64_t>(flag_or(flags, "seed", 42.0))));

    if (command == "run") {
        const std::string path = flag_or(flags, "trace", std::string());
        if (path.empty()) {
            std::fprintf(stderr, "dualboot-sim run: --trace FILE is required\n");
            return 1;
        }
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "dualboot-sim: cannot open %s\n", path.c_str());
            return 1;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        auto trace = workload::parse_trace(buffer.str());
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
