// Tests for the hc-*/1 spec loaders: every committed spec parses to the
// values its file states, the shared range-checked reads refuse what would
// overflow, and bad values come back as typed errors naming their JSON path.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/scenario.hpp"
#include "fault/plan.hpp"
#include "grid/spec.hpp"
#include "serve/spec.hpp"
#include "sweep/spec.hpp"
#include "util/json.hpp"

namespace hc {
namespace {

std::string read_source(const std::string& rel) {
    std::ifstream in(std::string(HC_SOURCE_DIR) + "/" + rel);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

util::JsonValue json(const std::string& text) {
    auto parsed = util::JsonReader(text).parse();
    EXPECT_TRUE(parsed.ok()) << parsed.error_message();
    return parsed.ok() ? parsed.value() : util::JsonValue{};
}

// ---- shared reads ----------------------------------------------------------

TEST(JsonReadInt, ReadsInRangeAndKeepsTheDefaultWhenAbsent) {
    const util::JsonValue obj = json(R"({"n": 7.9, "neg": -0.5, "s": "12"})");
    int n = 3;
    ASSERT_TRUE(util::json_read_int(obj, "n", n, 0, 10).ok());
    EXPECT_EQ(n, 7);  // truncated toward zero, like the cast it guards
    int absent = 3;
    ASSERT_TRUE(util::json_read_int(obj, "missing", absent, 0, 10).ok());
    EXPECT_EQ(absent, 3);
    int text = 3;  // not a number: the default stands, as with json_num_or
    ASSERT_TRUE(util::json_read_int(obj, "s", text, 0, 10).ok());
    EXPECT_EQ(text, 3);
    std::uint64_t neg = 9;
    ASSERT_TRUE(util::json_read_int<std::uint64_t>(obj, "neg", neg, 0, 10).ok());
    EXPECT_EQ(neg, 0u);
}

TEST(JsonReadInt, RefusesValuesOutsideTheRangeOrTheType) {
    const util::JsonValue obj = json(
        R"({"big": 1e300, "neg": -1, "inf": -inf, "top": 18446744073709551616,
            "i64": 9223372036854775808, "nan": -nan})");
    std::uint64_t u = 5;
    EXPECT_FALSE(util::json_read_int(obj, "big", u).ok());
    EXPECT_FALSE(util::json_read_int(obj, "neg", u).ok());
    EXPECT_FALSE(util::json_read_int(obj, "top", u).ok());
    EXPECT_EQ(u, 5u);
    std::int64_t i = 5;
    EXPECT_FALSE(util::json_read_int(obj, "i64", i).ok());
    EXPECT_FALSE(util::json_read_int(obj, "inf", i).ok());
    EXPECT_FALSE(util::json_read_int(obj, "nan", i).ok());
    int n = 5;
    const auto st = util::json_read_int(obj, "neg", n, 0, 10);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(util::json_at("members[2]", st.error()).message,
              "members[2].neg must be an integer in [0, 10]");
    EXPECT_EQ(n, 5);
}

TEST(JsonReadNum, BoundsRealsAndRefusesNonFinite) {
    const util::JsonValue obj = json(R"({"h": 1.5, "big": 1e300, "inf": -inf})");
    double h = 0;
    ASSERT_TRUE(util::json_read_num(obj, "h", h, 0, 10).ok());
    EXPECT_DOUBLE_EQ(h, 1.5);
    EXPECT_FALSE(util::json_read_num(obj, "big", h, 0, 1e6).ok());
    EXPECT_FALSE(util::json_read_num(obj, "inf", h, -1e6, 1e6).ok());
    EXPECT_DOUBLE_EQ(h, 1.5);
}

TEST(JsonReader, DeepNestingIsAnErrorNotAStackOverflow) {
    EXPECT_TRUE(util::JsonReader(std::string(64, '[') + std::string(64, ']')).parse().ok());
    const auto deep = util::JsonReader(std::string(300000, '[')).parse();
    ASSERT_FALSE(deep.ok());
    EXPECT_EQ(deep.error().message, "nesting deeper than 64 levels");
}

// ---- core: scenario and policy names, hc-cloud-spec/1 ------------------------

TEST(SpecNames, ScenarioAndPolicySpellingsParse) {
    EXPECT_EQ(core::parse_scenario_kind("hybrid").value(), core::ScenarioKind::kBiStableHybrid);
    EXPECT_EQ(core::parse_scenario_kind("static").value(), core::ScenarioKind::kStaticSplit);
    EXPECT_EQ(core::parse_scenario_kind("mono").value(), core::ScenarioKind::kMonoStable);
    EXPECT_EQ(core::parse_scenario_kind("oracle").value(), core::ScenarioKind::kOracle);
    EXPECT_EQ(core::parse_scenario_kind("quantum").error().message, "unknown scenario quantum");
    for (const core::PolicyKind p :
         {core::PolicyKind::kFcfs, core::PolicyKind::kThreshold, core::PolicyKind::kFairShare,
          core::PolicyKind::kPredictive, core::PolicyKind::kNever, core::PolicyKind::kCalendar,
          core::PolicyKind::kBurstAware}) {
        const auto parsed = core::parse_policy_kind(core::policy_kind_name(p));
        ASSERT_TRUE(parsed.ok()) << parsed.error_message();
        EXPECT_EQ(parsed.value(), p);
    }
    // The mono-stable policy belongs to scenario "mono", not to a flag.
    EXPECT_FALSE(core::parse_policy_kind("mono-stable").ok());
    EXPECT_EQ(core::parse_policy_kind("lifo").error().message, "unknown policy lifo");
}

TEST(CloudSpec, CommittedSpecParses) {
    auto parsed = core::parse_cloud_spec(read_source("examples/cloud_spec.json"));
    ASSERT_TRUE(parsed.ok()) << parsed.error_message();
    const core::ScenarioConfig& cfg = parsed.value();
    EXPECT_EQ(cfg.cloud.max_burst, 6);
    EXPECT_EQ(cfg.cloud.provision_delay, sim::seconds(120));
    EXPECT_DOUBLE_EQ(cfg.cloud.provision_jitter, 0.25);
    EXPECT_DOUBLE_EQ(cfg.cloud.provision_failure_probability, 0);
    EXPECT_EQ(cfg.cloud.idle_timeout, sim::minutes(30));
    EXPECT_EQ(cfg.cloud.sweep_interval, sim::seconds(60));
    EXPECT_DOUBLE_EQ(cfg.cloud.price_per_node_hour, 0.32);
    EXPECT_EQ(cfg.cloud.seed, 77u);  // absent: the base keeps its value
    EXPECT_EQ(cfg.burst_cooldown_polls, 2);
    EXPECT_DOUBLE_EQ(cfg.burst_drain_estimate_s, 600);
}

TEST(CloudSpec, KeepsTheBaseAndRejectsBadKnobs) {
    core::ScenarioConfig base;
    base.node_count = 24;
    auto parsed = core::parse_cloud_spec(R"({"schema": "hc-cloud-spec/1", "max_burst": 2})",
                                         base);
    ASSERT_TRUE(parsed.ok()) << parsed.error_message();
    EXPECT_EQ(parsed.value().node_count, 24);
    EXPECT_EQ(parsed.value().cloud.max_burst, 2);

    const auto error = [](const std::string& text) {
        return core::parse_cloud_spec(text).error_message();
    };
    EXPECT_EQ(error(R"({"schema": "other/1"})"), "missing schema hc-cloud-spec/1");
    EXPECT_EQ(error(R"({"schema": "hc-cloud-spec/1"})"), "max_burst must be >= 1");
    EXPECT_EQ(error(R"({"schema": "hc-cloud-spec/1", "max_burst": 1, "sweep_s": 0})"),
              "sweep_s must be > 0");
    EXPECT_EQ(error(R"({"schema": "hc-cloud-spec/1", "max_burst": 1,
                        "provision_jitter": 1})"),
              "provision_jitter must be < 1");
    EXPECT_EQ(error(R"({"schema": "hc-cloud-spec/1", "max_burst": 1,
                        "drain_estimate_s": 0})"),
              "drain_estimate_s must be > 0");
    EXPECT_FALSE(core::parse_cloud_spec(
                     R"({"schema": "hc-cloud-spec/1", "max_burst": 1, "cloud_seed": -1})")
                     .ok());
}

// ---- hc-sweep-spec/1 ---------------------------------------------------------

TEST(SweepSpec, CommittedSeedSweepParses) {
    auto parsed =
        sweep::parse_sweep_spec(read_source("tools/testdata/sweep_spec.json"), "/specs");
    ASSERT_TRUE(parsed.ok()) << parsed.error_message();
    const sweep::SweepSpec& spec = parsed.value();
    EXPECT_EQ(spec.base.kind, core::ScenarioKind::kBiStableHybrid);
    EXPECT_EQ(spec.base.policy, core::PolicyKind::kFairShare);
    EXPECT_EQ(spec.base.node_count, 16);
    EXPECT_EQ(spec.base.linux_nodes, 16);
    EXPECT_EQ(spec.base.horizon, sim::hours(12));
    EXPECT_EQ(spec.base.poll_interval, sim::minutes(10));
    EXPECT_EQ(spec.base.version, deploy::MiddlewareVersion::kV2);
    EXPECT_FALSE(spec.base.recovery.enabled);
    EXPECT_EQ(spec.base.cloud.max_burst, 0);
    EXPECT_TRUE(spec.faults_path.empty());
    EXPECT_EQ(spec.first_seed, 1u);
    EXPECT_EQ(spec.seed_count, 4u);
    EXPECT_DOUBLE_EQ(spec.workload.config.arrival.rate_per_hour, 8);
    EXPECT_EQ(spec.workload.config.max_nodes, 4);
    EXPECT_DOUBLE_EQ(spec.workload.config.runtime_scale, 0.25);
    EXPECT_EQ(spec.workload.config.horizon, sim::hours(12));
    EXPECT_EQ(spec.workload.seed, 42u);
    EXPECT_FALSE(spec.fork.has_value());
}

TEST(SweepSpec, CommittedForkSpecParsesWithResolvedPlanPaths) {
    auto parsed = sweep::parse_sweep_spec(read_source("examples/sweep_fork_spec.json"),
                                          "/repo/examples");
    ASSERT_TRUE(parsed.ok()) << parsed.error_message();
    const sweep::SweepSpec& spec = parsed.value();
    EXPECT_EQ(spec.base.policy, core::PolicyKind::kFcfs);
    EXPECT_EQ(spec.base.horizon, sim::hours(24));
    EXPECT_TRUE(spec.base.recovery.enabled);
    ASSERT_TRUE(spec.fork.has_value());
    EXPECT_DOUBLE_EQ(spec.fork->prefix_hours, 16);
    const auto& v = spec.fork->variants;
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0].label, "stay-fcfs");
    EXPECT_EQ(v[0].policy, core::PolicyKind::kFcfs);
    EXPECT_EQ(v[0].cooldown, -1);
    EXPECT_EQ(v[1].label, "fair-share");
    EXPECT_EQ(v[1].cooldown, 3);
    EXPECT_EQ(v[2].policy, core::PolicyKind::kPredictive);
    EXPECT_EQ(v[3].label, "late-faults");
    EXPECT_FALSE(v[3].policy.has_value());
    EXPECT_EQ(v[3].faults_path, "/repo/examples/../tools/testdata/faults_sample.json");
    EXPECT_EQ(v[3].seed, 7u);
}

TEST(SweepSpec, DefaultsAndErrorsCarryTheirPath) {
    auto minimal = sweep::parse_sweep_spec(
        R"({"schema": "hc-sweep-spec/1", "faults": "/abs/plan.json", "nodes": 8,
            "fork": {"variants": [{"faults": "p.json"}]}})",
        "specs");
    ASSERT_TRUE(minimal.ok()) << minimal.error_message();
    EXPECT_EQ(minimal.value().faults_path, "/abs/plan.json");
    EXPECT_TRUE(minimal.value().base.recovery.enabled);
    EXPECT_EQ(minimal.value().base.linux_nodes, 8);
    EXPECT_EQ(minimal.value().base.horizon, sim::hours(20));
    // No workload block: the generator's own defaults stand.
    EXPECT_EQ(minimal.value().workload.config.max_nodes, workload::GeneratorConfig{}.max_nodes);
    EXPECT_DOUBLE_EQ(minimal.value().fork->prefix_hours, 10);
    EXPECT_EQ(minimal.value().fork->variants[0].faults_path, "specs/p.json");
    EXPECT_EQ(minimal.value().fork->variants[0].label, "faults-1");

    const auto error = [](const std::string& body) {
        return sweep::parse_sweep_spec("{\"schema\": \"hc-sweep-spec/1\", " + body + "}", "")
            .error_message();
    };
    EXPECT_EQ(error(R"("seed_count": -1)"), "seed_count must be an integer in [1, 1000000]");
    EXPECT_EQ(error(R"("nodes": 0)"), "nodes must be an integer in [1, 1000000]");
    EXPECT_EQ(error(R"("nodes": 4, "linux_nodes": 5)"),
              "linux_nodes must be an integer in [0, 4]");
    EXPECT_EQ(error(R"("poll_minutes": 0)"), "poll_minutes must be > 0");
    EXPECT_EQ(error(R"("hours": 1e300)"), "hours must be in [0, 1e+06]");
    EXPECT_EQ(error(R"("scenario": "quantum")"), "unknown scenario quantum");
    EXPECT_EQ(error(R"("cloud": {"sweep_s": 0})"), "cloud.sweep_s must be > 0");
    EXPECT_EQ(error(R"("cloud": 3)"), "cloud must be an object");
    EXPECT_EQ(error(R"("workload": {"max_nodes": 0})"),
              "workload.max_nodes must be an integer in [1, 1000000]");
    EXPECT_EQ(error(R"("fork": {"variants": []})"), "fork.variants must be a non-empty array");
    EXPECT_EQ(error(R"("fork": {"variants": [{"label": "x"}]})"),
              "fork variant needs \"policy\" or \"faults\"");
    EXPECT_EQ(error(R"("fork": {"variants": [{"policy": "fcfs", "cooldown": -2}]})"),
              "fork.variants[0].cooldown must be an integer in [-1, 2147483647]");
    EXPECT_EQ(error(R"("hours": 4, "fork": {"prefix_hours": 5, "variants": [{"policy": "fcfs"}]})"),
              "fork.prefix_hours must be in [0, 4]");
}

// ---- hc-grid-spec/1 ----------------------------------------------------------

TEST(GridSpec, CommittedSpecParses) {
    auto parsed = grid::parse_grid_spec(read_source("examples/grid_spec.json"));
    ASSERT_TRUE(parsed.ok()) << parsed.error_message();
    const grid::GridSpec& spec = parsed.value();
    EXPECT_EQ(spec.config.rule, grid::RoutingRule::kLeastPressure);
    EXPECT_EQ(spec.config.epoch, sim::minutes(10));
    EXPECT_EQ(spec.config.threads, 2);
    EXPECT_DOUBLE_EQ(spec.hours, 24);
    ASSERT_EQ(spec.members.size(), 3u);
    EXPECT_EQ(spec.members[0].name, "tauceti");
    EXPECT_EQ(spec.members[0].kind, grid::GridMember::Kind::kDedicatedLinux);
    EXPECT_EQ(spec.members[0].nodes, 16);
    EXPECT_EQ(spec.members[1].kind, grid::GridMember::Kind::kDedicatedWindows);
    EXPECT_EQ(spec.members[1].nodes, 8);
    EXPECT_EQ(spec.members[2].kind, grid::GridMember::Kind::kHybrid);
    EXPECT_EQ(spec.members[2].hybrid_policy, core::PolicyKind::kFairShare);
    EXPECT_EQ(spec.members[2].cores_per_node, 4);
    EXPECT_DOUBLE_EQ(spec.workload.config.arrival.rate_per_hour, 6);
    EXPECT_EQ(spec.workload.config.max_nodes, 4);
    EXPECT_DOUBLE_EQ(spec.workload.config.runtime_scale, 0.25);
    EXPECT_EQ(spec.workload.config.horizon, sim::hours(24));
    EXPECT_EQ(spec.workload.seed, 42u);
}

TEST(GridSpec, RejectsBadMembersWithTheirPath) {
    const auto error = [](const std::string& body) {
        return grid::parse_grid_spec("{\"schema\": \"hc-grid-spec/1\", " + body + "}")
            .error_message();
    };
    EXPECT_EQ(error(R"("members": [])"), "members must be a non-empty array");
    EXPECT_EQ(error(R"("members": [{"name": "a", "nodes": -3}])"),
              "members[0].nodes must be an integer in [1, 1000000]");
    EXPECT_EQ(error(R"("members": [{"name": "a"}, {"name": "b", "cores_per_node": 0}])"),
              "members[1].cores_per_node must be an integer in [1, 1024]");
    EXPECT_EQ(error(R"("members": [{"kind": "hybrid"}])"), "member needs a name");
    EXPECT_EQ(error(R"("members": [{"name": "a", "policy": "lifo"}])"), "unknown policy lifo");
    EXPECT_EQ(error(R"("epoch_minutes": 0, "members": [{"name": "a"}])"),
              "epoch_minutes must be > 0");
    EXPECT_EQ(error(R"("routing": "random", "members": [{"name": "a"}])"),
              grid::parse_routing_rule("random").error_message());
}

// ---- hc-serve-spec/1 and hc-fault-plan/1 --------------------------------------

TEST(ServeSpecFiles, CommittedSpecsParse) {
    auto full = serve::parse_serve_spec(read_source("examples/serve_spec.json"));
    ASSERT_TRUE(full.ok()) << full.error_message();
    EXPECT_EQ(full.value().clients, 10000);
    EXPECT_EQ(full.value().nodes, 100000);
    EXPECT_DOUBLE_EQ(full.value().hours, 2.0);
    EXPECT_EQ(full.value().admission.queue_capacity, 8192u);
    EXPECT_EQ(full.value().admission.max_batch, 4096u);
    EXPECT_EQ(full.value().admission.max_backend_queue, 20000u);
    EXPECT_EQ(full.value().arrival.diurnal.size(), 24u);
    auto smoke = serve::parse_serve_spec(read_source("tools/testdata/serve_spec_smoke.json"));
    ASSERT_TRUE(smoke.ok()) << smoke.error_message();
    EXPECT_EQ(smoke.value().clients, 50);
    EXPECT_EQ(smoke.value().nodes, 64);
    EXPECT_EQ(smoke.value().retention, 1024u);

    EXPECT_EQ(serve::parse_serve_spec(R"({"schema": "hc-serve-spec/1", "seed": -1})")
                  .error_message(),
              "serve spec: seed must be an integer in [0, 18446744073709551615]");
    EXPECT_EQ(serve::parse_serve_spec(
                  R"({"schema": "hc-serve-spec/1", "admission": {"queue_capacity": 1e300}})")
                  .error_message(),
              "serve spec: admission.queue_capacity must be an integer in [1, 1000000]");
    EXPECT_EQ(serve::parse_serve_spec(R"({"schema": "hc-serve-spec/1", "cycle_seconds": 1e-6})")
                  .error_message(),
              "serve spec: cycle_seconds must be > 0");
}

TEST(FaultPlanFiles, CommittedPlanRoundTrips) {
    auto parsed = fault::parse_fault_plan(read_source("tools/testdata/faults_sample.json"));
    ASSERT_TRUE(parsed.ok()) << parsed.error_message();
    EXPECT_EQ(parsed.value().seed, 7u);
    ASSERT_EQ(parsed.value().events.size(), 7u);
    EXPECT_EQ(parsed.value().events[2].duration, sim::seconds(600));
    auto again = fault::parse_fault_plan(parsed.value().to_json());
    ASSERT_TRUE(again.ok()) << again.error_message();
    EXPECT_EQ(again.value().to_json(), parsed.value().to_json());

    EXPECT_EQ(fault::parse_fault_plan(R"({"events": [{"kind": "boot_hang", "node": -2}]})")
                  .error_message(),
              "events[0].node must be an integer in [-1, 2147483647]");
    EXPECT_FALSE(
        fault::parse_fault_plan(R"({"events": [{"kind": "boot_hang", "at_s": 1e300}]})").ok());
}

}  // namespace
}  // namespace hc
