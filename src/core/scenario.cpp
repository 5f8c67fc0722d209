#include "core/scenario.hpp"

#include <limits>

namespace hc::core {

const char* scenario_kind_name(ScenarioKind k) {
    switch (k) {
        case ScenarioKind::kBiStableHybrid: return "bi-stable hybrid";
        case ScenarioKind::kStaticSplit: return "static split";
        case ScenarioKind::kMonoStable: return "mono-stable";
        case ScenarioKind::kOracle: return "oracle (instant switch)";
    }
    return "?";
}

util::Result<ScenarioKind> parse_scenario_kind(const std::string& name) {
    if (name == "hybrid") return ScenarioKind::kBiStableHybrid;
    if (name == "static") return ScenarioKind::kStaticSplit;
    if (name == "mono") return ScenarioKind::kMonoStable;
    if (name == "oracle") return ScenarioKind::kOracle;
    return util::Error{"unknown scenario " + name};
}

util::Status read_cloud_block(const util::JsonValue& block, ScenarioConfig& cfg,
                              std::string_view where) {
    constexpr double kMaxSeconds = util::kSpecHoursMax * 3600.0;
    constexpr double kMaxReal = std::numeric_limits<double>::max();
    cloud::CloudConfig& c = cfg.cloud;
    double provision_s = c.provision_delay.seconds();
    double idle_timeout_min = c.idle_timeout.seconds() / 60.0;
    double sweep_s = c.sweep_interval.seconds();
    // Every read runs; the first failure is reported.
    for (const util::Status& st :
         {util::json_read_int(block, "max_burst", c.max_burst, 0, util::kSpecCountMax),
          util::json_read_num(block, "provision_s", provision_s, 0, kMaxSeconds),
          util::json_read_num(block, "provision_jitter", c.provision_jitter, 0, 1),
          util::json_read_num(block, "provision_failure", c.provision_failure_probability, 0, 1),
          util::json_read_num(block, "idle_timeout_min", idle_timeout_min, 0, kMaxSeconds / 60),
          util::json_read_num(block, "sweep_s", sweep_s, 0, kMaxSeconds),
          util::json_read_num(block, "price_per_node_hour", c.price_per_node_hour, 0, kMaxReal),
          util::json_read_int(block, "cloud_seed", c.seed),
          util::json_read_int(block, "cooldown_polls", cfg.burst_cooldown_polls, 0),
          util::json_read_num(block, "drain_estimate_s", cfg.burst_drain_estimate_s, 0,
                              kMaxReal)}) {
        if (!st.ok()) return util::json_at(where, st.error());
    }
    c.provision_delay = sim::seconds(provision_s);
    c.idle_timeout = sim::seconds(idle_timeout_min * 60.0);
    c.sweep_interval = sim::seconds(sweep_s);
    // Boot jitter scales a delay by 1 ± jitter, the idle sweep is a periodic
    // task, and the burst-aware policy divides by the drain estimate.
    if (c.provision_jitter >= 1)
        return util::json_at(where, util::Error{"provision_jitter must be < 1"});
    if (c.sweep_interval.ms <= 0) return util::json_at(where, util::Error{"sweep_s must be > 0"});
    if (cfg.burst_drain_estimate_s <= 0)
        return util::json_at(where, util::Error{"drain_estimate_s must be > 0"});
    return {};
}

util::Result<ScenarioConfig> parse_cloud_spec(const std::string& text, ScenarioConfig base) {
    auto parsed = util::JsonReader(text).parse();
    if (!parsed.ok()) return parsed.error();
    const util::JsonValue& root = parsed.value();
    if (root.type != util::JsonValue::Type::kObject ||
        util::json_str_or(root, "schema", "") != "hc-cloud-spec/1")
        return util::Error{"missing schema hc-cloud-spec/1"};
    if (auto st = read_cloud_block(root, base); !st.ok()) return st.error();
    if (base.cloud.max_burst <= 0) return util::Error{"max_burst must be >= 1"};
    return base;
}

namespace {

/// Translate a ScenarioConfig into the HybridCluster wiring (shared by
/// run_scenario() and ScenarioWorld).
HybridConfig make_hybrid_config(const ScenarioConfig& config) {
    HybridConfig hc;
    hc.cluster.node_count = config.node_count;
    hc.cluster.cores_per_node = config.cores_per_node;
    hc.cluster.seed = config.seed;
    hc.version = config.version;
    hc.poll_interval = config.poll_interval;
    hc.initial_windows_nodes = config.node_count - config.linux_nodes;
    hc.policy = config.policy;
    hc.fair_share_cooldown = config.fair_share_cooldown;
    hc.burst_cooldown_polls = config.burst_cooldown_polls;
    hc.burst_drain_estimate_s = config.burst_drain_estimate_s;
    hc.cloud = config.cloud;
    hc.strict_fifo = config.strict_fifo;
    hc.message_drop_probability = config.message_drop_probability;
    hc.boot_hang_probability = config.boot_hang_probability;
    hc.fault_plan = config.faults;
    hc.recovery = config.recovery;

    switch (config.kind) {
        case ScenarioKind::kBiStableHybrid:
            break;  // as configured
        case ScenarioKind::kStaticSplit:
            hc.policy = PolicyKind::kNever;
            break;
        case ScenarioKind::kMonoStable:
            hc.policy = PolicyKind::kMonoStable;
            // Mono-stable starts with the whole cluster in Linux.
            hc.initial_windows_nodes = 0;
            break;
        case ScenarioKind::kOracle: {
            // Instant switching: token reboot latencies and an aggressive
            // poll cycle. Everything else identical.
            hc.cluster.timing.shutdown = sim::seconds(1);
            hc.cluster.timing.firmware = sim::seconds(1);
            hc.cluster.timing.linux_boot = sim::seconds(1);
            hc.cluster.timing.windows_boot = sim::seconds(1);
            hc.poll_interval = sim::seconds(30);
            break;
        }
    }
    return hc;
}

}  // namespace

ScenarioWorld::ScenarioWorld(const ScenarioConfig& config,
                             const std::vector<workload::JobSpec>& trace)
    : config_(config),
      trace_size_(trace.size()),
      engine_(/*unix_epoch=*/-1, config.arena),
      hybrid_((engine_.obs().configure(config.obs), engine_), make_hybrid_config(config)) {
    // (Hub configured first, cluster second — via the comma expression above
    // — so handles latch enabled-ness at registration.)
    hybrid_.start();
    hybrid_.settle();
    // Replay relative to t=0 of the trace; submissions before "now" (the
    // settling period) fire immediately.
    hybrid_.replay(trace);
}

ScenarioWorld::Snapshot ScenarioWorld::snapshot() {
    return Snapshot{engine_.snapshot(), hybrid_.save_state()};
}

void ScenarioWorld::restore(const Snapshot& snap) {
    engine_.restore(snap.engine);
    hybrid_.restore_state(snap.world);
}

ScenarioResult ScenarioWorld::finish() {
    ScenarioResult result;
    result.label = std::string(scenario_kind_name(config_.kind)) + "/" +
                   policy_kind_name(hybrid_.config().policy);
    result.summary = hybrid_.metrics().summarise(hybrid_.counters(), config_.horizon.seconds());
    // Jobs still queued/running at the horizon never produced an outcome;
    // count them in the denominator so "done" reflects real throughput.
    result.summary.submitted = trace_size_;
    result.summary.completion_rate =
        trace_size_ == 0 ? 0
                         : static_cast<double>(result.summary.completed) /
                               static_cast<double>(trace_size_);
    result.controller = hybrid_.controller().stats();
    result.windows_daemon = hybrid_.windows_daemon().stats();
    result.linux_daemon = hybrid_.linux_daemon().stats();
    if (hybrid_.fault_injector() != nullptr) result.fault_stats = hybrid_.fault_injector()->stats();
    if (hybrid_.forked_injector() != nullptr) {
        // A post-fork campaign reports through the same stats block; the two
        // injectors never coexist with overlapping counters in our benches,
        // but sum defensively so nothing is silently dropped.
        const fault::InjectorStats& f = hybrid_.forked_injector()->stats();
        fault::InjectorStats& out = result.fault_stats;
        out.injected += f.injected;
        out.skipped += f.skipped;
        out.boot_hangs += f.boot_hangs;
        out.node_crashes += f.node_crashes;
        out.power_cycles += f.power_cycles;
        out.control_corruptions += f.control_corruptions;
        out.pxe_outages += f.pxe_outages;
        out.head_crashes += f.head_crashes;
        out.partitions += f.partitions;
        out.pxe_drops += f.pxe_drops;
        out.flag_torn_writes += f.flag_torn_writes;
    }
    if (hybrid_.recovery() != nullptr) result.recovery_stats = hybrid_.recovery()->stats();
    if (hybrid_.cloud() != nullptr) {
        result.cloud_enabled = true;
        result.cloud_stats = hybrid_.cloud()->stats();
        result.cloud_node_hours = hybrid_.cloud()->accrued_node_hours(engine_.now());
        result.cloud_cost = hybrid_.cloud()->accrued_cost(engine_.now());
    }
    if (config_.obs.metrics) result.metrics = engine_.obs().metrics().snapshot();
    if (config_.obs.trace) result.chrome_trace_json = engine_.obs().tracer().chrome_json();
    if (config_.obs.journal) result.journal_jsonl = engine_.obs().journal().text();
    return result;
}

ScenarioResult run_scenario(const ScenarioConfig& config,
                            const std::vector<workload::JobSpec>& trace) {
    ScenarioWorld world(config, trace);
    world.run_until(world.horizon_end());
    return world.finish();
}

}  // namespace hc::core
