// Synthetic workload generation.
//
// The paper evaluates on live campus demand; we generate statistically
// similar streams: Poisson arrivals over the catalogue's demand weights,
// log-normal runtimes, node counts within each application's range, with
// optional demand bursts (the Backburner render-farm pattern that motivates
// flipping nodes to Windows) and the scripted MDCS-GA case-study trace of
// §IV.B.
#pragma once

#include <string>
#include <vector>

#include "cluster/os.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"
#include "workload/arrival.hpp"
#include "workload/catalog.hpp"

namespace hc::workload {

/// One job to be replayed into a scheduler.
struct JobSpec {
    std::string app;
    cluster::OsType os = cluster::OsType::kLinux;  ///< resolved target OS
    bool flexible = false;   ///< app supports both OSes (W&L row)
    int nodes = 1;
    int ppn = 4;             ///< cores per node chunk
    sim::Duration runtime{};
    sim::TimePoint submit{};
    std::string owner = "user";

    [[nodiscard]] int total_cpus() const { return nodes * ppn; }
    /// Core-seconds this job consumes when it runs to completion.
    [[nodiscard]] double core_seconds() const {
        return static_cast<double>(total_cpus()) * runtime.seconds();
    }
};

/// How OS-flexible (W&L) applications pick a target OS at submit time.
enum class FlexiblePolicy {
    kPreferLinux,   ///< campus default: free toolchain first
    kPreferWindows,
    kSplit,         ///< coin flip
};

struct GeneratorConfig {
    /// Arrival process (rate, bursts, diurnal shape). The flat default
    /// reproduces the historical fixed 8/hour Poisson stream bit-for-bit;
    /// serve specs and sweep specs load richer shapes from JSON through
    /// workload::parse_arrival_spec so every stream shares these knobs.
    ArrivalSpec arrival;
    sim::Duration horizon = sim::hours(24);
    FlexiblePolicy flexible_policy = FlexiblePolicy::kSplit;
    int cores_per_node = 4;
    /// Cap node requests at the cluster size so jobs are always placeable.
    int max_nodes = 16;
    /// Scale factor on catalogue runtimes (shrink for fast benches).
    double runtime_scale = 1.0;
};

/// A spec's synthetic trace: the generator knobs plus the seed that draws it.
struct GeneratorSpec {
    GeneratorConfig config;
    std::uint64_t seed = 42;
};

/// The "workload" block hc-sweep-spec/1 and hc-grid-spec/1 share, read from
/// the document root `spec`:
///
///   "workload": {"rate_per_hour": 8, "max_nodes": 4,
///                "runtime_scale": 0.25, "trace_seed": 42}
///
/// The arrival knobs (rate, bursts, diurnal shape) parse through
/// parse_arrival_spec, as hc-serve-spec/1 arrival blocks do. Without a block
/// (or when "workload" is not an object) the GeneratorConfig defaults stand;
/// inside a block, max_nodes and runtime_scale default to 4 and 0.25. The
/// horizon is left to the caller.
[[nodiscard]] util::Result<GeneratorSpec> parse_workload_block(const util::JsonValue& spec);

class WorkloadGenerator {
public:
    WorkloadGenerator(AppCatalog catalog, GeneratorConfig config, std::uint64_t seed);

    /// Generate a full trace over the horizon, sorted by submit time.
    [[nodiscard]] std::vector<JobSpec> generate();

    /// Generate a burst: `count` jobs of one application arriving within
    /// `spread` after `start` (the render-deadline pattern).
    [[nodiscard]] std::vector<JobSpec> burst(const std::string& app_name, int count,
                                             sim::TimePoint start, sim::Duration spread);

    [[nodiscard]] const AppCatalog& catalog() const { return catalog_; }

private:
    [[nodiscard]] JobSpec sample_job(const Application& app, sim::TimePoint submit);

    AppCatalog catalog_;
    GeneratorConfig config_;
    util::Rng rng_;
};

/// The §IV.B case study: Genetic Algorithm optimisation under Distributed
/// and Parallel MATLAB (MDCS) on the Windows side, arriving into a cluster
/// that is mostly busy with Linux MD work. Returns (linux background,
/// windows MDCS wave) merged and time-sorted.
[[nodiscard]] std::vector<JobSpec> mdcs_ga_case_study(std::uint64_t seed,
                                                      double runtime_scale = 1.0);

/// Sort a trace by submit time (stable), which replayers require.
void sort_trace(std::vector<JobSpec>& trace);

}  // namespace hc::workload
