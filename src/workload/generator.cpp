#include "workload/generator.hpp"

#include <algorithm>

#include "util/errors.hpp"

namespace hc::workload {

util::Result<GeneratorSpec> parse_workload_block(const util::JsonValue& spec) {
    GeneratorSpec out;
    const util::JsonValue* w = spec.find("workload");
    if (w == nullptr || w->type != util::JsonValue::Type::kObject) return out;
    auto arrival = parse_arrival_spec(*w);
    if (!arrival.ok()) return arrival.error();
    out.config.arrival = arrival.value();
    out.config.max_nodes = 4;
    out.config.runtime_scale = 0.25;
    for (const util::Status& st :
         {util::json_read_int(*w, "max_nodes", out.config.max_nodes, 1, util::kSpecCountMax),
          util::json_read_num(*w, "runtime_scale", out.config.runtime_scale, 0, 1e6),
          util::json_read_int(*w, "trace_seed", out.seed)}) {
        if (!st.ok()) return util::json_at("workload", st.error());
    }
    if (out.config.runtime_scale <= 0)
        return util::Error{"workload.runtime_scale must be > 0"};
    return out;
}

using cluster::OsType;

WorkloadGenerator::WorkloadGenerator(AppCatalog catalog, GeneratorConfig config,
                                     std::uint64_t seed)
    : catalog_(std::move(catalog)), config_(config), rng_(util::Rng(seed).fork("workload")) {
    util::require(config_.arrival.rate_per_hour > 0, "WorkloadGenerator: rate must be positive");
    util::require(config_.horizon.ms > 0, "WorkloadGenerator: horizon must be positive");
    util::require(config_.runtime_scale > 0, "WorkloadGenerator: runtime_scale must be positive");
}

JobSpec WorkloadGenerator::sample_job(const Application& app, sim::TimePoint submit) {
    JobSpec spec;
    spec.app = app.name;
    spec.flexible = app.support == OsSupport::kBoth;
    switch (app.support) {
        case OsSupport::kLinuxOnly: spec.os = OsType::kLinux; break;
        case OsSupport::kWindowsOnly: spec.os = OsType::kWindows; break;
        case OsSupport::kBoth:
            switch (config_.flexible_policy) {
                case FlexiblePolicy::kPreferLinux: spec.os = OsType::kLinux; break;
                case FlexiblePolicy::kPreferWindows: spec.os = OsType::kWindows; break;
                case FlexiblePolicy::kSplit:
                    spec.os = rng_.chance(0.5) ? OsType::kLinux : OsType::kWindows;
                    break;
            }
            break;
    }
    const int hi = std::min(app.max_nodes, config_.max_nodes);
    const int lo = std::min(app.min_nodes, hi);
    spec.nodes = static_cast<int>(rng_.uniform_int(lo, hi));
    spec.ppn = config_.cores_per_node;
    const double seconds =
        rng_.lognormal_median(app.runtime_median_s * config_.runtime_scale, app.runtime_sigma);
    spec.runtime = sim::seconds(std::max(30.0 * config_.runtime_scale, seconds));
    spec.submit = submit;
    spec.owner = "user" + std::to_string(rng_.uniform_int(1, 12));
    return spec;
}

std::vector<JobSpec> WorkloadGenerator::generate() {
    std::vector<JobSpec> trace;
    std::vector<double> weights;
    weights.reserve(catalog_.apps().size());
    for (const auto& app : catalog_.apps()) weights.push_back(app.demand_weight);

    const ArrivalProcess arrivals(config_.arrival);
    double t = 0;
    const double horizon_s = config_.horizon.seconds();
    while (true) {
        t += arrivals.next_gap_s(rng_, t);
        if (t >= horizon_s) break;
        const auto& app = catalog_.apps()[rng_.weighted_index(weights)];
        trace.push_back(sample_job(app, sim::TimePoint{} + sim::seconds(t)));
    }
    sort_trace(trace);
    return trace;
}

std::vector<JobSpec> WorkloadGenerator::burst(const std::string& app_name, int count,
                                              sim::TimePoint start, sim::Duration spread) {
    const Application* app = catalog_.find(app_name);
    util::require(app != nullptr, "burst: unknown application " + app_name);
    util::require(count > 0, "burst: count must be positive");
    std::vector<JobSpec> trace;
    trace.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        const double offset = rng_.uniform(0.0, spread.seconds());
        trace.push_back(sample_job(*app, start + sim::seconds(offset)));
    }
    sort_trace(trace);
    return trace;
}

std::vector<JobSpec> mdcs_ga_case_study(std::uint64_t seed, double runtime_scale) {
    // Scripted to match the §IV.B narrative: the cluster hums along on Linux
    // MD jobs; a researcher submits a wave of MDCS worker jobs (Windows);
    // the middleware must shift nodes to Windows, then drift back as the GA
    // finishes and Linux demand resumes.
    util::Rng rng = util::Rng(seed).fork("mdcs-case-study");
    std::vector<JobSpec> trace;
    auto add = [&](const char* app, OsType os, bool flexible, int nodes, double runtime_s,
                   double submit_s, const char* owner) {
        JobSpec s;
        s.app = app;
        s.os = os;
        s.flexible = flexible;
        s.nodes = nodes;
        s.ppn = 4;
        s.runtime = sim::seconds(runtime_s * runtime_scale);
        s.submit = sim::TimePoint{} + sim::seconds(submit_s);
        s.owner = owner;
        trace.push_back(s);
    };
    // Phase 1 (0-2h): steady Linux background, ~10 of 16 nodes busy.
    for (int i = 0; i < 6; ++i)
        add("DL_POLY", OsType::kLinux, false, 1 + static_cast<int>(rng.uniform_int(0, 1)),
            rng.uniform(5400, 9000), rng.uniform(0, 1200), "mdgroup");
    // Phase 2 (t=1h): the GA wave — 8 MDCS worker jobs, one node each.
    for (int i = 0; i < 8; ++i)
        add("MATLAB", OsType::kWindows, true, 1, rng.uniform(3600, 5400),
            3600 + rng.uniform(0, 600), "dhaupt");
    // Phase 3 (t=4h): Linux demand resumes and pulls nodes back.
    for (int i = 0; i < 5; ++i)
        add("LAMMPS", OsType::kLinux, false, 2, rng.uniform(3600, 7200),
            14400 + rng.uniform(0, 1800), "mdgroup");
    sort_trace(trace);
    return trace;
}

void sort_trace(std::vector<JobSpec>& trace) {
    std::stable_sort(trace.begin(), trace.end(),
                     [](const JobSpec& a, const JobSpec& b) { return a.submit < b.submit; });
}

}  // namespace hc::workload
