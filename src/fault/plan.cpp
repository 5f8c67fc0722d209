#include "fault/plan.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "util/json.hpp"
#include "util/json_out.hpp"
#include "util/rng.hpp"

namespace hc::fault {

using util::Error;
using util::Result;

const char* fault_kind_name(FaultKind kind) {
    switch (kind) {
        case FaultKind::kBootHang: return "boot_hang";
        case FaultKind::kNodeCrash: return "node_crash";
        case FaultKind::kPowerCycle: return "power_cycle";
        case FaultKind::kControlTornWrite: return "control_torn_write";
        case FaultKind::kPxeOutage: return "pxe_outage";
        case FaultKind::kHeadCrash: return "head_crash";
        case FaultKind::kPartition: return "partition";
    }
    return "?";
}

Result<FaultKind> parse_fault_kind(std::string_view name) {
    if (name == "boot_hang") return FaultKind::kBootHang;
    if (name == "node_crash") return FaultKind::kNodeCrash;
    if (name == "power_cycle") return FaultKind::kPowerCycle;
    if (name == "control_torn_write") return FaultKind::kControlTornWrite;
    if (name == "pxe_outage") return FaultKind::kPxeOutage;
    if (name == "head_crash") return FaultKind::kHeadCrash;
    if (name == "partition") return FaultKind::kPartition;
    return Error{"unknown fault kind: " + std::string(name)};
}

namespace {

// JSON reading lives in util/json.hpp (shared by every hc-*/1 loader);
// plans keep local aliases for brevity.
using util::JsonReader;
using util::JsonValue;
using util::json_num_or;

}  // namespace

std::string FaultPlan::to_json() const {
    std::string out = "{\n  \"schema\": \"hc-fault-plan/1\",\n";
    out += "  \"seed\": " + std::to_string(seed) + ",\n";
    out += "  \"probabilities\": {";
    out += "\"boot_hang\": " + util::json_number(probabilities.boot_hang);
    out += ", \"pxe_drop\": " + util::json_number(probabilities.pxe_drop);
    out += ", \"flag_torn_write\": " + util::json_number(probabilities.flag_torn_write);
    out += ", \"message_drop\": " + util::json_number(probabilities.message_drop);
    out += "},\n  \"events\": [";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const FaultEvent& ev = events[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    {\"at_s\": " + util::json_number(ev.at.seconds());
        out += ", \"kind\": " + util::json_quote(fault_kind_name(ev.kind));
        if (ev.node >= 0) out += ", \"node\": " + std::to_string(ev.node);
        if (!ev.side.empty()) out += ", \"side\": " + util::json_quote(ev.side);
        if (ev.duration.ms > 0)
            out += ", \"duration_s\": " + util::json_number(ev.duration.seconds());
        out += "}";
    }
    out += events.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

Result<FaultPlan> parse_fault_plan(const std::string& json_text) {
    auto parsed = JsonReader(json_text).parse();
    if (!parsed) return parsed.error();
    const JsonValue& root = parsed.value();
    if (root.type != JsonValue::Type::kObject)
        return Error{"fault plan must be a JSON object"};
    if (const JsonValue* schema = root.find("schema");
        schema != nullptr && schema->string != "hc-fault-plan/1")
        return Error{"unsupported fault plan schema: " + schema->string};

    FaultPlan plan;
    if (auto st = util::json_read_int(root, "seed", plan.seed); !st.ok()) return st.error();
    if (const JsonValue* probs = root.find("probabilities");
        probs != nullptr && probs->type == JsonValue::Type::kObject) {
        plan.probabilities.boot_hang = json_num_or(*probs, "boot_hang", 0.0);
        plan.probabilities.pxe_drop = json_num_or(*probs, "pxe_drop", 0.0);
        plan.probabilities.flag_torn_write = json_num_or(*probs, "flag_torn_write", 0.0);
        plan.probabilities.message_drop = json_num_or(*probs, "message_drop", 0.0);
    }
    const JsonValue* events = root.find("events");
    if (events != nullptr) {
        if (events->type != JsonValue::Type::kArray)
            return Error{"\"events\" must be an array"};
        constexpr double kMaxSeconds = util::kSpecHoursMax * 3600.0;
        for (std::size_t i = 0; i < events->array.size(); ++i) {
            const JsonValue& item = events->array[i];
            if (item.type != JsonValue::Type::kObject)
                return Error{"each fault event must be an object"};
            const JsonValue* kind = item.find("kind");
            if (kind == nullptr || kind->type != JsonValue::Type::kString)
                return Error{"fault event missing string \"kind\""};
            auto parsed_kind = parse_fault_kind(kind->string);
            if (!parsed_kind) return parsed_kind.error();
            FaultEvent ev;
            ev.kind = parsed_kind.value();
            double at_s = 0;
            double duration_s = 0;
            for (const util::Status& st :
                 {util::json_read_num(item, "at_s", at_s, 0, kMaxSeconds),
                  util::json_read_int(item, "node", ev.node, -1),
                  util::json_read_num(item, "duration_s", duration_s, 0, kMaxSeconds)}) {
                if (!st.ok())
                    return util::json_at("events[" + std::to_string(i) + "]", st.error());
            }
            ev.at = sim::milliseconds(std::llround(at_s * 1000.0));
            ev.duration = sim::milliseconds(std::llround(duration_s * 1000.0));
            if (const JsonValue* side = item.find("side");
                side != nullptr && side->type == JsonValue::Type::kString)
                ev.side = side->string;
            if (ev.kind == FaultKind::kHeadCrash && ev.side != "linux" &&
                ev.side != "windows")
                return Error{"head_crash needs \"side\": \"linux\" or \"windows\""};
            plan.events.push_back(std::move(ev));
        }
    }
    return plan;
}

FaultPlan make_random_plan(const RandomPlanOptions& options, std::uint64_t seed) {
    util::Rng rng = util::Rng(seed).fork("fault-plan");
    FaultPlan plan;
    plan.seed = seed;

    // Background rates: kept under the level where recovery can no longer
    // outpace injection (a boot that hangs 40% of the time still converges
    // under the sweeper's retries; 100% would not).
    if (rng.chance(0.6)) plan.probabilities.boot_hang = rng.uniform(0.02, 0.25);
    if (rng.chance(0.3)) plan.probabilities.message_drop = rng.uniform(0.02, 0.15);
    if (options.v2) {
        if (rng.chance(0.4)) plan.probabilities.pxe_drop = rng.uniform(0.05, 0.25);
        if (rng.chance(0.4)) plan.probabilities.flag_torn_write = rng.uniform(0.1, 0.5);
    }

    const int count =
        static_cast<int>(rng.uniform_int(1, options.max_events < 1 ? 1 : options.max_events));
    // Leave the tail quarter of the horizon fault-free so the run has room
    // to converge before the invariant checks.
    const std::int64_t window_ms = options.horizon.ms * 3 / 4;
    for (int i = 0; i < count; ++i) {
        FaultEvent ev;
        ev.at = sim::milliseconds(rng.uniform_int(0, window_ms > 0 ? window_ms : 1));
        // kControlTornWrite is only drawn for v2: the v1 equivalent (a torn
        // controlmenu.lst) is *unrecoverable* without an admin visit — that
        // asymmetry is the paper's motivation for v2 and is measured by
        // bench E5, not fuzzed.
        const int top = options.v2 ? 6 : 4;
        switch (rng.uniform_int(0, top)) {
            case 0: ev.kind = FaultKind::kBootHang; break;
            case 1: ev.kind = FaultKind::kNodeCrash; break;
            case 2: ev.kind = FaultKind::kPowerCycle; break;
            case 3:
                ev.kind = FaultKind::kHeadCrash;
                ev.side = rng.chance(0.5) ? "windows" : "linux";
                ev.duration = sim::minutes(rng.uniform_int(5, 45));
                break;
            case 4:
                ev.kind = FaultKind::kPartition;
                ev.duration = sim::minutes(rng.uniform_int(3, 25));
                break;
            case 5:
                ev.kind = FaultKind::kControlTornWrite;
                break;
            default:
                ev.kind = FaultKind::kPxeOutage;
                ev.duration = sim::minutes(rng.uniform_int(2, 12));
                break;
        }
        if (ev.kind == FaultKind::kBootHang || ev.kind == FaultKind::kNodeCrash ||
            ev.kind == FaultKind::kPowerCycle)
            ev.node = rng.chance(0.5)
                          ? static_cast<int>(rng.uniform_int(0, options.node_count - 1))
                          : -1;
        plan.events.push_back(std::move(ev));
    }
    return plan;
}

}  // namespace hc::fault
