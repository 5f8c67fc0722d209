#include "grid/spec.hpp"

#include "util/json.hpp"

namespace hc::grid {

namespace {

using util::JsonValue;

/// Widest node a member may declare: nodes x cores_per_node must fit an int.
constexpr int kMaxCoresPerNode = 1024;

util::Result<MemberSpec> parse_member(const JsonValue& m, std::size_t index) {
    if (m.type != JsonValue::Type::kObject) return util::Error{"member must be an object"};
    MemberSpec member;
    member.name = util::json_str_or(m, "name", "");
    if (member.name.empty()) return util::Error{"member needs a name"};
    auto kind = parse_member_kind(util::json_str_or(m, "kind", "hybrid"));
    if (!kind.ok()) return kind.error();
    member.kind = kind.value();
    auto policy = core::parse_policy_kind(util::json_str_or(m, "policy", "fair-share"));
    if (!policy.ok()) return policy.error();
    member.hybrid_policy = policy.value();
    member.nodes = 16;
    for (const util::Status& st :
         {util::json_read_int(m, "nodes", member.nodes, 1, util::kSpecCountMax),
          util::json_read_int(m, "cores_per_node", member.cores_per_node, 1, kMaxCoresPerNode)}) {
        if (!st.ok()) return util::json_at("members[" + std::to_string(index) + "]", st.error());
    }
    return member;
}

}  // namespace

util::Result<GridSpec> parse_grid_spec(const std::string& text) {
    auto parsed = util::JsonReader(text).parse();
    if (!parsed.ok()) return parsed.error();
    const JsonValue& root = parsed.value();
    if (root.type != JsonValue::Type::kObject ||
        util::json_str_or(root, "schema", "") != "hc-grid-spec/1")
        return util::Error{"missing schema hc-grid-spec/1"};

    GridSpec spec;
    const auto routing = parse_routing_rule(util::json_str_or(root, "routing", "least-pressure"));
    if (!routing.ok()) return routing.error();
    spec.config.rule = routing.value();
    double epoch_minutes = 10;
    for (const util::Status& st :
         {util::json_read_num(root, "epoch_minutes", epoch_minutes, 0,
                              util::kSpecHoursMax * 60.0),
          util::json_read_num(root, "hours", spec.hours, 0, util::kSpecHoursMax),
          util::json_read_int(root, "threads", spec.config.threads)}) {
        if (!st.ok()) return st.error();
    }
    spec.config.epoch = sim::minutes(epoch_minutes);
    if (spec.config.epoch.ms <= 0) return util::Error{"epoch_minutes must be > 0"};
    if (sim::hours(spec.hours).ms <= 0) return util::Error{"hours must be > 0"};

    const JsonValue* members = root.find("members");
    if (members == nullptr || members->type != JsonValue::Type::kArray ||
        members->array.empty())
        return util::Error{"members must be a non-empty array"};
    for (std::size_t i = 0; i < members->array.size(); ++i) {
        auto member = parse_member(members->array[i], i);
        if (!member.ok()) return member.error();
        spec.members.push_back(std::move(member).take());
    }

    auto workload = workload::parse_workload_block(root);
    if (!workload.ok()) return workload.error();
    spec.workload = std::move(workload).take();
    spec.workload.config.horizon = sim::hours(spec.hours);
    return spec;
}

}  // namespace hc::grid
