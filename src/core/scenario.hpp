// Scenario runner: the comparison systems of the evaluation benches.
//
// Four ways to run the same trace on the same 16-node cluster:
//   kBiStableHybrid — dualboot-oscar (the paper's system, v1 or v2)
//   kStaticSplit    — the §I strawman: hard partition, k Linux / N-k Windows
//   kMonoStable     — the ref-[5] baseline: whole cluster flips at once
//   kOracle         — upper bound: bi-stable with near-zero reboot cost and
//                     a tight poll cycle (what instant OS switching would buy)
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/hybrid.hpp"
#include "util/arena.hpp"
#include "util/json.hpp"
#include "workload/metrics.hpp"

namespace hc::core {

enum class ScenarioKind { kBiStableHybrid, kStaticSplit, kMonoStable, kOracle };

[[nodiscard]] const char* scenario_kind_name(ScenarioKind k);

/// Inverse of the spellings specs and flags use: "hybrid", "static", "mono",
/// "oracle" (scenario_kind_name renders the longer display names).
[[nodiscard]] util::Result<ScenarioKind> parse_scenario_kind(const std::string& name);

struct ScenarioConfig {
    ScenarioKind kind = ScenarioKind::kBiStableHybrid;
    int node_count = 16;
    int cores_per_node = 4;
    /// Static split: nodes assigned to Linux (rest Windows). Also the
    /// initial split for the hybrid scenarios.
    int linux_nodes = 12;
    deploy::MiddlewareVersion version = deploy::MiddlewareVersion::kV2;
    PolicyKind policy = PolicyKind::kFcfs;
    int fair_share_cooldown = 0;
    int burst_cooldown_polls = 2;         ///< for PolicyKind::kBurstAware
    double burst_drain_estimate_s = 600;  ///< per-queued-job drain estimate
    /// Elastic cloud partition (max_burst == 0 keeps the two-pool world).
    cloud::CloudConfig cloud;
    bool strict_fifo = true;
    sim::Duration poll_interval = sim::minutes(10);
    sim::Duration horizon = sim::hours(24);
    double message_drop_probability = 0.0;
    double boot_hang_probability = 0.0;
    /// Deterministic fault plan + recovery machinery (hc::fault).
    fault::FaultPlan faults;
    fault::RecoveryOptions recovery;
    std::uint64_t seed = 42;
    /// Telemetry channels to record (all off by default — and free). The
    /// runner configures the engine's hub before building the cluster, so
    /// every component comes up instrumented.
    obs::ObsOptions obs;
    /// Replica arena backing the engine calendar (hc::sweep workers set
    /// this; serial callers leave it null for plain heap allocation). Must
    /// outlive the run and must not be reset during it.
    util::Arena* arena = nullptr;
};

struct ScenarioResult {
    std::string label;
    workload::Summary summary;
    ControllerStats controller;
    CommunicatorStats windows_daemon;
    CommunicatorStats linux_daemon;
    /// Zero-valued unless the scenario carried a fault plan / recovery.
    fault::InjectorStats fault_stats;
    fault::SupervisorStats recovery_stats;
    /// Populated only when the scenario armed a cloud partition.
    bool cloud_enabled = false;
    cloud::CloudStats cloud_stats;
    double cloud_node_hours = 0;  ///< rented node-hours at the horizon
    double cloud_cost = 0;        ///< accrued cost at the horizon
    /// Populated for the channels enabled in ScenarioConfig::obs; empty/""
    /// otherwise.
    obs::MetricsSnapshot metrics;
    std::string chrome_trace_json;
    std::string journal_jsonl;
};

// hc-cloud-spec/1: the document `dualboot_sim run --cloud` loads to arm the
// elastic partition:
//
//   {"schema": "hc-cloud-spec/1",
//    "max_burst": 8, "provision_s": 120, "provision_jitter": 0.25,
//    "provision_failure": 0, "idle_timeout_min": 30, "sweep_s": 60,
//    "price_per_node_hour": 0.32, "cooldown_polls": 2,
//    "drain_estimate_s": 600, "cloud_seed": 77}
//
// Sweep specs embed the same knobs inline as a "cloud" object (no schema
// field needed there: the sweep spec's own schema covers it). Absent keys
// keep the target config's values.

/// Read a cloud block's knobs onto `cfg`: the elastic-partition settings
/// plus the burst-aware policy tuning that rides along with them. `where` is
/// the block's JSON path, for error messages. max_burst may be 0 here (the
/// partition stays off).
[[nodiscard]] util::Status read_cloud_block(const util::JsonValue& block, ScenarioConfig& cfg,
                                            std::string_view where = {});

/// Parse an hc-cloud-spec/1 document onto `base`, which supplies the values
/// of absent keys. A standalone document must arm the partition
/// (max_burst >= 1).
[[nodiscard]] util::Result<ScenarioConfig> parse_cloud_spec(const std::string& text,
                                                            ScenarioConfig base = {});

/// Run `trace` under the scenario and summarise. The engine is created
/// internally so scenarios are fully independent and reproducible.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& config,
                                          const std::vector<workload::JobSpec>& trace);

/// A scenario broken into phases so callers can checkpoint mid-run.
///
/// Construction builds the engine + cluster, starts the daemons, settles
/// first boot, and schedules the trace — exactly what run_scenario() does
/// before driving the clock. The caller then drives time with run_until(),
/// may snapshot() at any quiet point, diverge (hybrid().set_policy(),
/// hybrid().arm_faults()), and later restore() back to the snapshot to fan
/// out another suffix. finish() summarises at the configured horizon.
///
/// Determinism contract: a restore()d world re-executes byte-identically to
/// a cold world that reached the same point the same way — the engine
/// calendar (slots, generations, seq numbers), every RNG stream, and all
/// scheduler/detector/text state round-trip exactly.
class ScenarioWorld {
public:
    ScenarioWorld(const ScenarioConfig& config, const std::vector<workload::JobSpec>& trace);

    ScenarioWorld(const ScenarioWorld&) = delete;
    ScenarioWorld& operator=(const ScenarioWorld&) = delete;

    [[nodiscard]] sim::Engine& engine() { return engine_; }
    [[nodiscard]] HybridCluster& hybrid() { return hybrid_; }
    [[nodiscard]] const ScenarioConfig& config() const { return config_; }

    /// Drive the clock to an absolute sim time (idempotent when in the past
    /// — construction itself advances the clock through settling, so an
    /// early fork point may already be behind now()).
    void run_until(sim::TimePoint t) {
        if (t > engine_.now()) engine_.run_until(t);
    }
    /// The scenario's configured end of time: sim epoch + horizon.
    [[nodiscard]] sim::TimePoint horizon_end() const {
        return sim::TimePoint{} + config_.horizon;
    }

    /// Whole-world checkpoint: engine calendar image + every component's
    /// SavedState. Move-only (the calendar image is arena/heap backed).
    struct Snapshot {
        sim::Engine::Snapshot engine;
        HybridCluster::SavedState world;
        /// Calendar-image footprint (the dominant term; component states
        /// are ordinary heap copies not counted here).
        [[nodiscard]] std::size_t bytes() const { return engine.bytes(); }
    };
    [[nodiscard]] Snapshot snapshot();
    void restore(const Snapshot& snap);

    /// Summarise now (normally at horizon_end()), mirroring run_scenario().
    [[nodiscard]] ScenarioResult finish();

private:
    ScenarioConfig config_;
    std::size_t trace_size_ = 0;
    sim::Engine engine_;
    HybridCluster hybrid_;
};

}  // namespace hc::core
