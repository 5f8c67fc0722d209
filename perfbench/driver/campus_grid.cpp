// campus_grid: a FederatedGrid of four members (two 10k-node fair-share
// hybrids, a 10k-node dedicated Linux cluster, a 2.5k-node dedicated
// Windows cluster) on two worker threads, least-pressure routing, 10-minute
// epochs, fed simulated Huddersfield-catalogue demand at about 60%
// utilisation plus a Backburner render surge.
//
// Why: the only workload that runs grid routing, the TaskPool barrier and
// the dual-boot middleware (policy, controller, communicators, winhpc, the
// PXE flag) at scale. Its set-up is member start cost.
//
// The driver calls FederatedGrid::run once per epoch with that epoch's
// arrivals, in traced and untraced runs alike; routing, the carried
// round-robin cursor and mailbox delivery are the same as in one call.
#include <algorithm>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "grid/federation.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

using Kind = grid::GridMember::Kind;

constexpr sim::Duration kEpoch = sim::minutes(10);
constexpr double kHorizonHours = 12;
/// Demand sized for about 60% of the grid's cores over the horizon.
constexpr double kRatePerHour = 9000;
constexpr int kSurgeJobs = 3000;

struct MemberDef {
    const char* name;
    Kind kind;
    int nodes;
};
constexpr MemberDef kMembers[] = {
    {"hybrid-a", Kind::kHybrid, 10'000},
    {"hybrid-b", Kind::kHybrid, 10'000},
    {"linux", Kind::kDedicatedLinux, 10'000},
    {"windows", Kind::kDedicatedWindows, 2'500},
};

class CampusGrid final : public Workload {
public:
    void prepare(std::uint64_t seed, int threads) override {
        threads_ = threads;
        workload::GeneratorConfig cfg;
        cfg.arrival.rate_per_hour = kRatePerHour;
        cfg.horizon = sim::hours(kHorizonHours);
        cfg.max_nodes = 16;
        cfg.runtime_scale = 0.25;
        workload::WorkloadGenerator gen(workload::AppCatalog::huddersfield(), cfg, seed);
        trace_ = gen.generate();
        auto surge = gen.burst("Backburner", kSurgeJobs, sim::TimePoint{} + sim::hours(5),
                               sim::hours(3));
        trace_.insert(trace_.end(), surge.begin(), surge.end());
        workload::sort_trace(trace_);
    }

    RepOutcome rep(Tracer* tr) override {
        RepOutcome out;
        const auto t_setup = Clock::now();
        grid::FederationConfig config;
        config.rule = grid::RoutingRule::kLeastPressure;
        config.epoch = kEpoch;
        config.threads = threads_;
        auto fed = std::make_unique<grid::FederatedGrid>(config);
        for (const MemberDef& m : kMembers) fed->add_member({m.name, m.kind, m.nodes});
        {
            Tracer::Scope span(tr, "grid.start");
            fed->start();
        }
        out.setup_s = seconds_since(t_setup);
        slice_trace(fed->now());

        const std::size_t members = fed->member_count();
        auto member_events = [&] {
            std::vector<std::uint64_t> events(members);
            for (std::size_t i = 0; i < members; ++i)
                events[i] = fed->member(i).engine().stats().dispatched;
            return events;
        };
        const std::vector<std::uint64_t> events0 = member_events();
        std::vector<std::uint64_t> before = events0;
        double imbalance_sum = 0;
        std::size_t imbalance_epochs = 0;

        const auto t_run = Clock::now();
        const sim::TimePoint start = fed->now();
        for (std::size_t e = 0; e < slices_.size(); ++e) {
            {
                Tracer::Scope span(tr, "grid.epoch", e);
                fed->run(slices_[e], fed->now() + kEpoch);
            }
            if (tr != nullptr) {
                const std::vector<std::uint64_t> after = member_events();
                std::uint64_t max = 0, sum = 0;
                for (std::size_t i = 0; i < members; ++i) {
                    const std::uint64_t d = after[i] - before[i];
                    max = std::max(max, d);
                    sum += d;
                }
                if (sum > 0) {
                    imbalance_sum += static_cast<double>(max) * static_cast<double>(members) /
                                     static_cast<double>(sum);
                    ++imbalance_epochs;
                }
                before = after;
            }
        }
        out.run_s = seconds_since(t_run);

        const double horizon_s = kHorizonHours * 3600.0;
        const grid::GridSummary report = fed->report(horizon_s);
        const grid::FederationStats& st = fed->stats();
        const workload::Summary& total = report.total;
        std::uint64_t events = 0, orders = 0, abandoned = 0;
        const std::vector<std::uint64_t> events1 = member_events();
        for (std::size_t i = 0; i < members; ++i) {
            events += events1[i] - events0[i];
            grid::GridMember& member = fed->member(i);
            if (member.kind() != Kind::kHybrid) continue;
            const core::ControllerStats& cs = member.cluster().controller().stats();
            orders += cs.switch_jobs_pbs + cs.switch_jobs_winhpc;
            abandoned += cs.orders_abandoned;
        }

        out.jobs = static_cast<double>(total.completed);
        out.sim_seconds = (fed->now() - start).seconds();
        out.attempted = trace_.size();
        out.failed = st.rejected;
        out.digest_text = grid::render_grid_ledger(report) +
                          format("epochs=%zu routed=%zu rejected=%zu messages=%zu events=%llu "
                                 "orders=%llu abandoned=%llu\n",
                                 st.epochs, st.routed, st.rejected, st.messages,
                                 static_cast<unsigned long long>(events),
                                 static_cast<unsigned long long>(orders),
                                 static_cast<unsigned long long>(abandoned));
        if (st.routed + st.rejected != trace_.size())
            out.check_failures.push_back(format("routed %zu + rejected %zu != %zu trace jobs",
                                                st.routed, st.rejected, trace_.size()));

        MetricMap& m = out.layer;
        m["sim.events"] = {static_cast<double>(events), "count"};
        m["grid.epochs"] = {static_cast<double>(st.epochs), "count"};
        m["grid.routed"] = {static_cast<double>(st.routed), "count"};
        m["grid.rejected"] = {static_cast<double>(st.rejected), "count"};
        m["grid.events_per_epoch"] = {
            st.epochs > 0 ? static_cast<double>(events) / static_cast<double>(st.epochs) : 0,
            "count"};
        m["grid.shard_imbalance"] = {
            imbalance_epochs > 0 ? imbalance_sum / static_cast<double>(imbalance_epochs) : 0,
            "ratio"};
        m["core.os_switches"] = {static_cast<double>(total.os_switches), "count"};
        m["core.switch_orders"] = {static_cast<double>(orders), "count"};
        m["core.orders_abandoned"] = {static_cast<double>(abandoned), "count"};
        m["outcome.sim_wait_mean_s"] = {total.mean_wait_s, "s"};
        m["outcome.sim_wait_p95_s"] = {total.p95_wait_s, "s"};
        m["outcome.sim_util_pct"] = {100.0 * total.utilisation, "%"};
        m["outcome.sim_switch_loss_pct"] = {100.0 * total.switch_overhead, "%"};
        m["outcome.fail_pct"] = {
            trace_.empty() ? 0
                           : 100.0 * static_cast<double>(st.rejected) /
                                 static_cast<double>(trace_.size()),
            "%"};
        fed.reset();  // teardown is neither set-up nor run time
        return out;
    }

    /// One member of each kind, built and started serially, so member start
    /// cost is measured apart from the pool.
    void traced_extras(MetricMap& m) override {
        const struct {
            Kind kind;
            const char* key;
        } kinds[] = {{Kind::kHybrid, "hybrid"},
                     {Kind::kDedicatedLinux, "linux"},
                     {Kind::kDedicatedWindows, "windows"}};
        for (const auto& k : kinds) {
            int nodes = 0;
            for (const MemberDef& def : kMembers)
                if (def.kind == k.kind) nodes = def.nodes;
            const auto t0 = Clock::now();
            grid::GridMember member(k.key, k.kind, nodes);
            const double ctor_s = seconds_since(t0);
            const auto t1 = Clock::now();
            member.start();
            const double start_s = seconds_since(t1);
            m[std::string("grid.member_ctor_s.") + k.key] = {ctor_s, "s"};
            m[std::string("grid.member_start_s.") + k.key] = {start_s, "s"};
        }
    }

private:
    /// Cut the trace into per-epoch arrival lists on the grid's epoch
    /// boundaries, starting at the first one after start(). The boundaries
    /// are a function of the members, so later repetitions reuse the cut.
    void slice_trace(sim::TimePoint first_boundary) {
        if (sliced_from_ == first_boundary.ms && !slices_.empty()) return;
        sliced_from_ = first_boundary.ms;
        slices_.clear();
        const sim::TimePoint until = sim::TimePoint{} + sim::hours(kHorizonHours);
        std::size_t cursor = 0;
        for (sim::TimePoint t = first_boundary; t < until || cursor < trace_.size();
             t = t + kEpoch) {
            std::vector<workload::JobSpec> slice;
            while (cursor < trace_.size() && trace_[cursor].submit < t + kEpoch)
                slice.push_back(trace_[cursor++]);
            slices_.push_back(std::move(slice));
        }
    }

    int threads_ = 2;
    std::vector<workload::JobSpec> trace_;
    std::vector<std::vector<workload::JobSpec>> slices_;
    std::int64_t sliced_from_ = -1;
};

}  // namespace

std::unique_ptr<Workload> make_campus_grid() { return std::make_unique<CampusGrid>(); }

}  // namespace perfbench
