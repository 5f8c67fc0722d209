// One-call serve run: build the testbed, run the fleet, collect results.
//
// Splits outputs the same way hc::sweep and the benches do:
//  * ServeCounters — pure simulated-domain totals. Deterministic: a fixed
//    spec produces byte-identical counters (and render_report(false) text)
//    on every run, at any thread count, which tests/test_serve.cpp pins.
//  * wall-clock (build_ms for the world, wall_ms for the service run that
//    follows, wall requests/sec) — measured here, reported only by the CLI,
//    never asserted on.
#pragma once

#include <cstdint>
#include <string>

#include "cloud/cloud.hpp"
#include "core/queue_state.hpp"
#include "obs/metrics.hpp"
#include "serve/backend.hpp"
#include "serve/client_sim.hpp"
#include "serve/service.hpp"
#include "serve/spec.hpp"
#include "util/arena.hpp"

namespace hc::serve {

/// Everything deterministic one serve run produced.
struct ServeCounters {
    ServiceCounters service;
    FleetCounters fleet;
    SessionStats sessions;     ///< slot-ordered aggregate over all clients
    BackendTotals backend;
    std::uint64_t backend_queued_final = 0;  ///< queue depth after the horizon
    std::int64_t staleness_at_end_s = -1;    ///< snapshot age at shutdown poll
    std::int64_t final_unix = 0;
    /// Cloud partition totals; all zero (and the report line absent) when
    /// the spec leaves max_burst at 0.
    bool cloud_enabled = false;
    cloud::CloudStats cloud;
    std::int64_t cloud_billed_ms = 0;  ///< rented node time after the drain
    double cloud_cost = 0;             ///< accrued cost after the drain

    [[nodiscard]] bool operator==(const ServeCounters& o) const {
        if (!(service == o.service) || !(fleet == o.fleet) || !(backend == o.backend) ||
            backend_queued_final != o.backend_queued_final ||
            staleness_at_end_s != o.staleness_at_end_s || final_unix != o.final_unix ||
            sessions.accepted != o.sessions.accepted ||
            sessions.rejected != o.sessions.rejected ||
            sessions.job_infos != o.sessions.job_infos ||
            sessions.queue_infos != o.sessions.queue_infos)
            return false;
        if (cloud_enabled != o.cloud_enabled || cloud_billed_ms != o.cloud_billed_ms ||
            cloud_cost != o.cloud_cost || cloud.burst_requests != o.cloud.burst_requests ||
            cloud.nodes_requested != o.cloud.nodes_requested ||
            cloud.provisions_completed != o.cloud.provisions_completed ||
            cloud.quota_denied != o.cloud.quota_denied ||
            cloud.releases != o.cloud.releases ||
            cloud.total_reaction_ms != o.cloud.total_reaction_ms)
            return false;
        for (int r = 0; r < kRejectReasonCount; ++r)
            if (sessions.rejects_by_reason[r] != o.sessions.rejects_by_reason[r]) return false;
        return true;
    }
};

struct ServeResult {
    ServeCounters counters;
    obs::MetricsSnapshot metrics;
    core::QueueSnapshot last_snapshot;
    double sim_hours = 0;
    /// NOT deterministic; excluded from render(false). build_ms covers the
    /// engine, cluster, scheduler, boot settle and cloud partition; wall_ms
    /// starts after them, with the service and fleet, and ends at the drain.
    double build_ms = 0;
    double wall_ms = 0;

    /// Deterministic quantities derived from counters/metrics.
    [[nodiscard]] double submissions_per_sim_hour() const;
    [[nodiscard]] double query_latency_ms(double percentile) const;
    [[nodiscard]] double submit_latency_ms(double percentile) const;
    [[nodiscard]] double staleness_mean_s() const;

    /// Multi-line human/golden report. With include_wall = false the text
    /// depends only on (spec, seed) — the determinism tests compare it
    /// byte-for-byte across thread counts and replicas.
    [[nodiscard]] std::string render_report(bool include_wall) const;
};

/// Build the spec's cluster + backend, run the client fleet against the
/// service, drain, and collect. `arena` optionally backs the engine
/// calendar (the sweep-worker pattern).
[[nodiscard]] ServeResult run_serve(const ServeSpec& spec, util::Arena* arena = nullptr);

}  // namespace hc::serve
