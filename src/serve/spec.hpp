// hc-serve-spec/1: the JSON document `dualboot_sim serve --spec` loads.
//
//   {"schema": "hc-serve-spec/1",
//    "clients": 10000, "nodes": 100000, "hours": 2, "seed": 7,
//    "backend": "pbs",                       // or "winhpc"
//    "cycle_seconds": 1, "poll_minutes": 5, "retention": 1024,
//    "admission": {"queue_capacity": 8192, "max_batch": 4096,
//                  "per_client_rate_per_min": 6, "burst_tokens": 4,
//                  "max_backend_queue": 20000},
//    "arrival": {"rate_per_hour": 2, "burst_factor": 3,
//                "burst_hours": 0.25, "burst_every_hours": 1,
//                "diurnal": [ ...24 multipliers... ]},   // all optional
//    "cloud": {"max_burst": 32, "provision_s": 120, "idle_timeout_min": 30,
//              "price_per_node_hour": 0.32, "queue_threshold": 64,
//              "sweep_s": 30},                           // optional
//    "query_ratio": 0.5, "checkqueue_ratio": 0.1,
//    "max_job_nodes": 4, "runtime_scale": 0.25}
//
// The arrival block is the same shape as the hc-sweep-spec/1 workload knobs
// (workload::parse_arrival_spec) — one set of rate/burst/diurnal semantics
// across timeline builds, sweeps, and the service.
#pragma once

#include <cstdint>
#include <string>

#include "serve/client_sim.hpp"
#include "serve/service.hpp"
#include "util/result.hpp"

namespace hc::serve {

enum class BackendKind { kPbs, kWinHpc };

/// Elastic partition behind the submission service: while the backend's
/// queue depth stays above `queue_threshold`, one cloud node is provisioned
/// per `sweep_s` tick (a deliberately gentle ramp), and the idle-timeout
/// scale-down returns capacity once the rush is over. max_burst == 0 (the
/// default) disables the partition and keeps pre-cloud reports identical.
struct ServeCloudSpec {
    int max_burst = 0;
    double provision_s = 120;
    double idle_timeout_min = 30;
    double price_per_node_hour = 0.32;
    std::size_t queue_threshold = 64;
    double sweep_s = 30;
};

struct ServeSpec {
    int clients = 100;
    int nodes = 1000;
    double hours = 1.0;
    std::uint64_t seed = 7;
    BackendKind backend = BackendKind::kPbs;
    double cycle_seconds = 1.0;
    double poll_minutes = 5.0;
    std::size_t retention = 1024;  ///< completed-job records either backend keeps
    AdmissionConfig admission;
    workload::ArrivalSpec arrival;
    ServeCloudSpec cloud;
    double query_ratio = 0.5;
    double checkqueue_ratio = 0.1;
    int max_job_nodes = 4;
    double runtime_scale = 0.25;

    [[nodiscard]] ServiceConfig service_config() const;
    /// Fleet config; `horizon` is left for the runner to anchor at settle
    /// time.
    [[nodiscard]] FleetConfig fleet_config() const;
};

/// Parse and validate an hc-serve-spec/1 document.
[[nodiscard]] util::Result<ServeSpec> parse_serve_spec(const std::string& text);

}  // namespace hc::serve
