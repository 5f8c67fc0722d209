// The Queensgate Grid: Eridani among its campus siblings.
//
// Builds the three-member QGG — a dedicated Linux cluster, a dedicated
// Windows cluster, and the dualboot-oscar hybrid — as a FederatedGrid on one
// thread, routes a render-deadline afternoon through it, and shows where the
// overflow lands and how the hybrid reshapes itself to soak it up.
//
// Build & run:  ./build/examples/queensgate_grid
#include <cstdio>

#include "grid/federation.hpp"
#include "util/time_format.hpp"
#include "workload/catalog.hpp"
#include "workload/timeline.hpp"

using namespace hc;

int main() {
    grid::FederatedGrid fed(
        {.rule = grid::RoutingRule::kLeastPressure, .epoch = sim::minutes(10), .threads = 1});
    fed.add_member({"tauceti", grid::GridMember::Kind::kDedicatedLinux, 16});
    fed.add_member({"vega", grid::GridMember::Kind::kDedicatedWindows, 8});
    fed.add_member({"eridani", grid::GridMember::Kind::kHybrid, 16});
    fed.start();  // builds and boots the members; the Gantt below starts after boot
    workload::OwnershipTimeline eridani_timeline(fed.member(2).cluster().cluster());
    std::printf("Queensgate Grid online: %zu members, least-pressure routing.\n\n",
                fed.member_count());

    // An afternoon of steady Linux MD plus a 3ds Max render deadline: 20
    // Backburner jobs land within an hour — more than vega can chew.
    workload::GeneratorConfig gen_cfg;
    gen_cfg.arrival.rate_per_hour = 5;
    gen_cfg.horizon = sim::hours(8);
    gen_cfg.runtime_scale = 0.3;
    workload::WorkloadGenerator generator(workload::AppCatalog::huddersfield(), gen_cfg, 99);
    auto trace = generator.generate();
    auto surge = generator.burst("Backburner", 20, sim::TimePoint{} + sim::hours(2),
                                 sim::hours(1));
    trace.insert(trace.end(), surge.begin(), surge.end());
    workload::sort_trace(trace);
    fed.run(trace, sim::TimePoint{} + sim::hours(16));

    std::printf("routing ledger:\n");
    for (std::size_t i = 0; i < fed.member_count(); ++i) {
        auto& member = fed.member(i);
        std::printf("  %-8s (%-22s) received %3zu jobs\n", member.name().c_str(),
                    grid::grid_member_kind_name(member.kind()), member.jobs_received());
    }

    const auto summary = fed.report(sim::hours(16).seconds()).total;
    std::printf("\ngrid summary: %zu/%zu jobs, mean wait %s (Windows %s), util %.1f%%\n",
                summary.completed, summary.submitted,
                util::format_duration(static_cast<std::int64_t>(summary.mean_wait_s)).c_str(),
                util::format_duration(
                    static_cast<std::int64_t>(summary.mean_wait_windows_s)).c_str(),
                summary.utilisation * 100.0);

    std::printf("\nEridani's shape during the surge (1 column = 20 min):\n%s",
                eridani_timeline
                    .render_gantt(sim::TimePoint{} + sim::hours(1),
                                  sim::TimePoint{} + sim::hours(9), sim::minutes(20))
                    .c_str());
    std::printf("\nThe W band is the render overflow vega could not hold — \"This hybrid\n"
                "cluster is utilised as part of the University of Huddersfield campus\n"
                "grid.\" (§I)\n");
    return 0;
}
