#include "sweep/spec.hpp"

#include "util/json.hpp"

namespace hc::sweep {

namespace {

using util::JsonValue;

std::string resolve(const std::string& rel, const std::filesystem::path& base_dir) {
    std::filesystem::path path(rel);
    if (path.is_relative()) path = base_dir / path;
    return path.string();
}

util::Result<ForkSpec> parse_fork(const JsonValue& fork, double horizon_h,
                                  const std::filesystem::path& base_dir) {
    if (fork.type != JsonValue::Type::kObject) return util::Error{"fork must be an object"};
    ForkSpec out;
    out.prefix_hours = horizon_h / 2;
    if (auto st = util::json_read_num(fork, "prefix_hours", out.prefix_hours, 0, horizon_h);
        !st.ok())
        return util::json_at("fork", st.error());
    const JsonValue* variants = fork.find("variants");
    if (variants == nullptr || variants->type != JsonValue::Type::kArray ||
        variants->array.empty())
        return util::Error{"fork.variants must be a non-empty array"};
    for (std::size_t i = 0; i < variants->array.size(); ++i) {
        const JsonValue& v = variants->array[i];
        if (v.type != JsonValue::Type::kObject)
            return util::Error{"fork variant must be an object"};
        const std::string where = "fork.variants[" + std::to_string(i) + "]";
        ForkVariantSpec variant;
        variant.label = util::json_str_or(v, "label", "");
        const std::string policy_name = util::json_str_or(v, "policy", "");
        const std::string plan_rel = util::json_str_or(v, "faults", "");
        if (!policy_name.empty()) {
            auto policy = core::parse_policy_kind(policy_name);
            if (!policy.ok()) return policy.error();
            variant.policy = policy.value();
            if (auto st = util::json_read_int(v, "cooldown", variant.cooldown, -1); !st.ok())
                return util::json_at(where, st.error());
            if (variant.label.empty()) variant.label = policy_name;
        } else if (!plan_rel.empty()) {
            variant.faults_path = resolve(plan_rel, base_dir);
            if (auto st = util::json_read_int(v, "seed", variant.seed); !st.ok())
                return util::json_at(where, st.error());
            if (variant.label.empty()) variant.label = "faults-" + std::to_string(variant.seed);
        } else {
            return util::Error{"fork variant needs \"policy\" or \"faults\""};
        }
        out.variants.push_back(std::move(variant));
    }
    return out;
}

}  // namespace

util::Result<SweepSpec> parse_sweep_spec(const std::string& text,
                                         const std::filesystem::path& base_dir) {
    auto parsed = util::JsonReader(text).parse();
    if (!parsed.ok()) return parsed.error();
    const JsonValue& root = parsed.value();
    if (root.type != JsonValue::Type::kObject ||
        util::json_str_or(root, "schema", "") != "hc-sweep-spec/1")
        return util::Error{"missing schema hc-sweep-spec/1"};

    SweepSpec spec;
    core::ScenarioConfig& base = spec.base;
    auto kind = core::parse_scenario_kind(util::json_str_or(root, "scenario", "hybrid"));
    if (!kind.ok()) return kind.error();
    base.kind = kind.value();
    auto policy = core::parse_policy_kind(util::json_str_or(root, "policy", "fcfs"));
    if (!policy.ok()) return policy.error();
    base.policy = policy.value();
    base.version = util::json_str_or(root, "version", "v2") == "v1"
                       ? deploy::MiddlewareVersion::kV1
                       : deploy::MiddlewareVersion::kV2;

    base.node_count = 16;
    if (auto st = util::json_read_int(root, "nodes", base.node_count, 1, util::kSpecCountMax);
        !st.ok())
        return st.error();
    base.linux_nodes = base.node_count;
    double poll_minutes = 10;
    double hours = 20;
    base.fair_share_cooldown = 0;
    for (const util::Status& st :
         {util::json_read_int(root, "linux_nodes", base.linux_nodes, 0, base.node_count),
          util::json_read_num(root, "poll_minutes", poll_minutes, 0,
                              util::kSpecHoursMax * 60.0),
          util::json_read_num(root, "hours", hours, 0, util::kSpecHoursMax),
          util::json_read_int(root, "cooldown", base.fair_share_cooldown, 0),
          util::json_read_int(root, "first_seed", spec.first_seed),
          util::json_read_int(root, "seed_count", spec.seed_count, std::uint64_t{1},
                              std::uint64_t{util::kSpecCountMax})}) {
        if (!st.ok()) return st.error();
    }
    base.poll_interval = sim::minutes(poll_minutes);
    base.horizon = sim::hours(hours);
    if (base.poll_interval.ms <= 0) return util::Error{"poll_minutes must be > 0"};
    if (base.horizon.ms <= 0) return util::Error{"hours must be > 0"};

    if (const JsonValue* c = root.find("cloud"); c != nullptr) {
        if (c->type != JsonValue::Type::kObject) return util::Error{"cloud must be an object"};
        if (auto st = core::read_cloud_block(*c, base, "cloud"); !st.ok()) return st.error();
    }

    const std::string faults_rel = util::json_str_or(root, "faults", "");
    if (!faults_rel.empty()) spec.faults_path = resolve(faults_rel, base_dir);
    base.recovery.enabled =
        util::json_str_or(root, "recovery", faults_rel.empty() ? "off" : "on") == "on";

    auto workload = workload::parse_workload_block(root);
    if (!workload.ok()) return workload.error();
    spec.workload = std::move(workload).take();
    spec.workload.config.horizon = base.horizon;

    if (const JsonValue* fork = root.find("fork"); fork != nullptr) {
        auto parsed_fork =
            parse_fork(*fork, static_cast<double>(base.horizon.ms) / 3'600'000.0, base_dir);
        if (!parsed_fork.ok()) return parsed_fork.error();
        spec.fork = std::move(parsed_fork).take();
    }
    return spec;
}

}  // namespace hc::sweep
