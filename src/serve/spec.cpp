#include "serve/spec.hpp"

#include <limits>

#include "util/json.hpp"

namespace hc::serve {

ServiceConfig ServeSpec::service_config() const {
    ServiceConfig cfg;
    cfg.cycle = sim::seconds(cycle_seconds);
    cfg.poll = sim::minutes(poll_minutes);
    cfg.admission = admission;
    return cfg;
}

FleetConfig ServeSpec::fleet_config() const {
    FleetConfig cfg;
    cfg.clients = clients;
    cfg.arrival = arrival;
    cfg.query_ratio = query_ratio;
    cfg.checkqueue_ratio = checkqueue_ratio;
    cfg.max_job_nodes = max_job_nodes;
    cfg.runtime_scale = runtime_scale;
    cfg.seed = seed;
    return cfg;
}

util::Result<ServeSpec> parse_serve_spec(const std::string& text) {
    auto parsed = util::JsonReader(text).parse();
    if (!parsed.ok()) return parsed.error();
    const util::JsonValue& root = parsed.value();
    if (root.type != util::JsonValue::Type::kObject)
        return util::Error{"serve spec: top level must be an object"};
    if (util::json_str_or(root, "schema", "") != "hc-serve-spec/1")
        return util::Error{"serve spec: missing schema hc-serve-spec/1"};

    constexpr std::size_t kMaxCount = util::kSpecCountMax;
    constexpr double kMaxSeconds = util::kSpecHoursMax * 3600.0;
    constexpr double kMaxReal = std::numeric_limits<double>::max();
    const auto fail = [](std::string_view where, const util::Status& st) {
        return util::Error{"serve spec: " + util::json_at(where, st.error()).message};
    };

    ServeSpec spec;
    const std::string backend = util::json_str_or(root, "backend", "pbs");
    if (backend == "pbs") {
        spec.backend = BackendKind::kPbs;
    } else if (backend == "winhpc") {
        spec.backend = BackendKind::kWinHpc;
    } else {
        return util::Error{"serve spec: backend must be \"pbs\" or \"winhpc\""};
    }
    // Every read runs; the first failure is reported.
    for (const util::Status& st :
         {util::json_read_int(root, "clients", spec.clients, 1, util::kSpecCountMax),
          util::json_read_int(root, "nodes", spec.nodes, 1, util::kSpecCountMax),
          util::json_read_num(root, "hours", spec.hours, 0, util::kSpecHoursMax),
          util::json_read_int(root, "seed", spec.seed),
          util::json_read_num(root, "cycle_seconds", spec.cycle_seconds, 0, kMaxSeconds),
          util::json_read_num(root, "poll_minutes", spec.poll_minutes, 0, kMaxSeconds / 60),
          util::json_read_int(root, "retention", spec.retention, std::size_t{0}, kMaxCount),
          util::json_read_num(root, "query_ratio", spec.query_ratio, 0, 1),
          util::json_read_num(root, "checkqueue_ratio", spec.checkqueue_ratio, 0, 1),
          util::json_read_int(root, "max_job_nodes", spec.max_job_nodes, 1, util::kSpecCountMax),
          util::json_read_num(root, "runtime_scale", spec.runtime_scale, 0, 1e6)}) {
        if (!st.ok()) return fail("", st);
    }

    if (const util::JsonValue* a = root.find("admission"); a != nullptr) {
        if (a->type != util::JsonValue::Type::kObject)
            return util::Error{"serve spec: admission must be an object"};
        AdmissionConfig& adm = spec.admission;
        for (const util::Status& st :
             {util::json_read_int(*a, "queue_capacity", adm.queue_capacity, std::size_t{1},
                                  kMaxCount),
              util::json_read_int(*a, "max_batch", adm.max_batch, std::size_t{1}, kMaxCount),
              util::json_read_num(*a, "per_client_rate_per_min", adm.per_client_rate_per_min, 0,
                                  kMaxReal),
              util::json_read_num(*a, "burst_tokens", adm.burst_tokens, 0, kMaxReal),
              util::json_read_int(*a, "max_backend_queue", adm.max_backend_queue,
                                  std::size_t{0}, kMaxCount)}) {
            if (!st.ok()) return fail("admission", st);
        }
    }
    if (const util::JsonValue* a = root.find("arrival"); a != nullptr) {
        if (a->type != util::JsonValue::Type::kObject)
            return util::Error{"serve spec: arrival must be an object"};
        auto arrival = workload::parse_arrival_spec(*a);
        if (!arrival.ok()) return arrival.error();
        spec.arrival = arrival.value();
    }
    if (const util::JsonValue* c = root.find("cloud"); c != nullptr) {
        if (c->type != util::JsonValue::Type::kObject)
            return util::Error{"serve spec: cloud must be an object"};
        ServeCloudSpec& cl = spec.cloud;
        for (const util::Status& st :
             {util::json_read_int(*c, "max_burst", cl.max_burst, 0, util::kSpecCountMax),
              util::json_read_num(*c, "provision_s", cl.provision_s, 0, kMaxSeconds),
              util::json_read_num(*c, "idle_timeout_min", cl.idle_timeout_min, 0,
                                  kMaxSeconds / 60),
              util::json_read_num(*c, "price_per_node_hour", cl.price_per_node_hour, 0,
                                  kMaxReal),
              util::json_read_int(*c, "queue_threshold", cl.queue_threshold, std::size_t{0},
                                  kMaxCount),
              util::json_read_num(*c, "sweep_s", cl.sweep_s, 0, kMaxSeconds)}) {
            if (!st.ok()) return fail("cloud", st);
        }
    }

    if (spec.hours <= 0) return util::Error{"serve spec: hours must be > 0"};
    // The service cycle and detector poll are periodic tasks: each must
    // last at least one simulated millisecond.
    if (sim::seconds(spec.cycle_seconds).ms <= 0)
        return util::Error{"serve spec: cycle_seconds must be > 0"};
    if (sim::minutes(spec.poll_minutes).ms <= 0)
        return util::Error{"serve spec: poll_minutes must be > 0"};
    if (spec.admission.per_client_rate_per_min <= 0 || spec.admission.burst_tokens < 1)
        return util::Error{"serve spec: per-client rate knobs must be positive"};
    if (spec.runtime_scale <= 0) return util::Error{"serve spec: runtime_scale must be > 0"};
    if (spec.cloud.max_burst > 0 &&
        (spec.cloud.provision_s <= 0 || spec.cloud.idle_timeout_min <= 0 ||
         sim::seconds(spec.cloud.sweep_s).ms <= 0))
        return util::Error{"serve spec: cloud knobs must be positive"};
    return spec;
}

}  // namespace hc::serve
