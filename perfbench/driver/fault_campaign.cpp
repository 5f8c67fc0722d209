// fault_campaign: the paper's 16-node Eridani cluster running middleware v2
// over one fixed 7-day mixed Linux/Windows trace. A shared prefix (the first
// quarter of the horizon) runs once per worker; N suffixes fork from its
// snapshot, each a switch policy crossed with a random v2 fault plan, on
// sweep::run_forked with two workers.
//
// Why: per-scenario fixed costs, 16-node text scraping, fault injection and
// recovery, snapshot/restore and the sweep pool dominate here; 100k-node
// structures do not matter. Demand (4 jobs/h) lets the queue drain between
// bursts, so waits stay hours, not days.
#include <memory>
#include <vector>

#include "bench.hpp"
#include "core/scenario.hpp"
#include "fault/plan.hpp"
#include "sweep/runner.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

constexpr sim::Duration kHorizon = sim::days(7);
constexpr sim::Duration kForkAt = sim::hours(42);
constexpr std::size_t kSuffixes = 128;
constexpr core::PolicyKind kPolicies[] = {core::PolicyKind::kFcfs, core::PolicyKind::kThreshold,
                                          core::PolicyKind::kFairShare,
                                          core::PolicyKind::kPredictive};
constexpr int kSetupSamples = 15;
constexpr std::uint64_t kTraceSeed = 42;

/// What one suffix produced; `line` is its deterministic ledger entry.
struct SuffixResult {
    std::string line;
    bool failed = false;
    workload::Summary summary;
    std::uint64_t switch_orders = 0, orders_watched = 0, orders_abandoned = 0;
    std::uint64_t injected = 0, recoveries = 0, events = 0;
};

SuffixResult summarise(core::ScenarioWorld& world, std::uint64_t events_at_fork) {
    const core::ScenarioResult r = world.finish();
    SuffixResult out;
    out.summary = r.summary;
    out.switch_orders = r.controller.switch_jobs_pbs + r.controller.switch_jobs_winhpc;
    out.orders_watched = r.controller.orders_watched;
    out.orders_abandoned = r.controller.orders_abandoned;
    out.injected = r.fault_stats.injected;
    out.recoveries = r.recovery_stats.recoveries;
    out.events = world.engine().stats().dispatched - events_at_fork;
    const workload::Summary& s = r.summary;
    out.line = format(
        "%s done=%zu/%zu wait=%.3f/%.3f/%.3f util=%.6f switches=%llu reboots=%llu "
        "loss=%.6f orders=%llu/%llu/%llu injected=%llu recoveries=%llu\n",
        r.label.c_str(), s.completed, s.submitted, s.mean_wait_s, s.p95_wait_s, s.max_wait_s,
        s.utilisation, static_cast<unsigned long long>(s.os_switches),
        static_cast<unsigned long long>(s.reboots), s.switch_overhead,
        static_cast<unsigned long long>(out.switch_orders),
        static_cast<unsigned long long>(out.orders_watched),
        static_cast<unsigned long long>(out.orders_abandoned),
        static_cast<unsigned long long>(out.injected),
        static_cast<unsigned long long>(out.recoveries));
    return out;
}

class FaultCampaign final : public Workload {
public:
    void prepare(std::uint64_t seed, int threads) override {
        seed_ = seed;
        threads_ = threads;
        workload::GeneratorConfig cfg;
        cfg.arrival.rate_per_hour = 4;
        cfg.horizon = kHorizon;
        cfg.max_nodes = 4;
        cfg.runtime_scale = 0.25;
        // One fixed trace: with a trace per seed, the work per simulated job
        // varied by a quarter between seeds and swamped the timing spread.
        // The seed drives the cluster and every fault plan.
        workload::WorkloadGenerator gen(workload::AppCatalog::huddersfield(), cfg, kTraceSeed);
        trace_ = gen.generate();

        base_.kind = core::ScenarioKind::kBiStableHybrid;
        base_.version = deploy::MiddlewareVersion::kV2;
        base_.node_count = 16;
        base_.linux_nodes = 12;
        base_.policy = core::PolicyKind::kFairShare;
        base_.horizon = kHorizon;
        base_.recovery.enabled = true;
        base_.seed = seed;
    }

    /// Slot's divergence: a policy and a random v2 fault plan, armed at the
    /// fork point.
    void diverge(core::ScenarioWorld& world, std::size_t slot) const {
        const std::uint64_t fault_seed = seed_ * 1000 + slot;
        fault::RandomPlanOptions opts;
        opts.node_count = base_.node_count;
        opts.horizon = kHorizon - kForkAt;
        opts.v2 = true;
        world.hybrid().set_policy(kPolicies[slot % std::size(kPolicies)]);
        world.hybrid().arm_faults(fault::make_random_plan(opts, fault_seed), fault_seed);
    }

    RepOutcome rep(Tracer* tr) override {
        RepOutcome out;
        // Set-up: the cold world (engine, cluster, daemons, settle, trace
        // scheduled), built several times because one build is milliseconds.
        std::vector<double> setups;
        std::unique_ptr<core::ScenarioWorld> cold;
        for (int i = 0; i < kSetupSamples; ++i) {
            cold.reset();
            const auto t0 = Clock::now();
            cold = std::make_unique<core::ScenarioWorld>(base_, trace_);
            setups.push_back(seconds_since(t0));
        }
        out.setup_s = median(setups);

        const auto t_run = Clock::now();
        sweep::ForkStats fs;
        sweep::SweepStats ss;
        std::vector<SuffixResult> results;
        {
            Tracer::Scope span(tr, "sweep.run_forked");
            results = sweep::run_forked(
                kSuffixes, threads_,
                [&](sweep::WorkerContext& ctx) {
                    Tracer::Scope prefix(tr, "sweep.prefix", static_cast<std::uint64_t>(ctx.worker));
                    core::ScenarioConfig cfg = base_;
                    cfg.arena = ctx.arena;
                    auto world = std::make_unique<core::ScenarioWorld>(cfg, trace_);
                    world->run_until(sim::TimePoint{} + kForkAt);
                    return world;
                },
                [&](core::ScenarioWorld& world, std::size_t slot) {
                    Tracer::Scope suffix(tr, "sweep.suffix", slot);
                    try {
                        const std::uint64_t events0 = world.engine().stats().dispatched;
                        diverge(world, slot);
                        world.run_until(world.horizon_end());
                        return summarise(world, events0);
                    } catch (const std::exception& e) {
                        SuffixResult failed;
                        failed.failed = true;
                        failed.line = format("slot %zu threw: %s\n", slot, e.what());
                        return failed;
                    }
                },
                &fs, &ss);
        }
        out.run_s = seconds_since(t_run);

        // One sampled slot replayed cold must match its forked result.
        const std::size_t sampled = (seed_ * 7 + sample_cursor_++) % kSuffixes;
        cold->run_until(sim::TimePoint{} + kForkAt);
        const std::uint64_t cold_events0 = cold->engine().stats().dispatched;
        diverge(*cold, sampled);
        cold->run_until(cold->horizon_end());
        const SuffixResult replay = summarise(*cold, cold_events0);
        cold.reset();
        if (replay.line != results[sampled].line)
            out.check_failures.push_back(format("slot %zu forked result differs from its cold "
                                                "replay:\n  forked: %s  cold:   %s",
                                                sampled, results[sampled].line.c_str(),
                                                replay.line.c_str()));
        if (fs.forks != kSuffixes)
            out.check_failures.push_back(format("%llu forks for %zu suffixes",
                                                static_cast<unsigned long long>(fs.forks),
                                                kSuffixes));

        double jobs = 0, wait_mean = 0, wait_p95 = 0, util = 0, loss = 0;
        std::uint64_t failed = 0, switches = 0, orders = 0, watched = 0, abandoned = 0;
        std::uint64_t injected = 0, recoveries = 0, events = 0;
        for (std::size_t slot = 0; slot < results.size(); ++slot) {
            const SuffixResult& r = results[slot];
            out.digest_text += format("%zu ", slot) + r.line;
            if (r.failed) {
                ++failed;
                out.check_failures.push_back(r.line);
                continue;
            }
            jobs += static_cast<double>(r.summary.completed);
            wait_mean += r.summary.mean_wait_s;
            wait_p95 += r.summary.p95_wait_s;
            util += r.summary.utilisation;
            loss += r.summary.switch_overhead;
            switches += r.summary.os_switches;
            orders += r.switch_orders;
            watched += r.orders_watched;
            abandoned += r.orders_abandoned;
            injected += r.injected;
            recoveries += r.recoveries;
            events += r.events;
        }
        const double n = static_cast<double>(results.size());
        out.jobs = jobs;
        out.sim_seconds = fs.prefixes * kForkAt.seconds() + n * (kHorizon - kForkAt).seconds();
        out.attempted = results.size();
        out.failed = failed;

        MetricMap& m = out.layer;
        m["sim.events"] = {static_cast<double>(events), "count"};
        m["sweep.forks"] = {static_cast<double>(fs.forks), "count"};
        m["sweep.steals"] = {static_cast<double>(ss.steals), "count"};
        m["sweep.snapshot_bytes"] = {static_cast<double>(fs.snapshot_bytes), "B"};
        m["fault.injected"] = {static_cast<double>(injected), "count"};
        m["fault.recoveries"] = {static_cast<double>(recoveries), "count"};
        m["core.os_switches"] = {static_cast<double>(switches), "count"};
        m["core.switch_orders"] = {static_cast<double>(orders), "count"};
        m["core.orders_abandoned"] = {static_cast<double>(abandoned), "count"};
        m["outcome.sim_wait_mean_s"] = {wait_mean / n, "s"};
        m["outcome.sim_wait_p95_s"] = {wait_p95 / n, "s"};
        m["outcome.sim_util_pct"] = {100.0 * util / n, "%"};
        m["outcome.sim_switch_loss_pct"] = {100.0 * loss / n, "%"};
        m["outcome.fail_pct"] = {
            watched > 0 ? 100.0 * static_cast<double>(abandoned) / static_cast<double>(watched) : 0,
            "%"};
        return out;
    }

private:
    std::uint64_t seed_ = 1;
    int threads_ = 2;
    std::size_t sample_cursor_ = 0;
    std::vector<workload::JobSpec> trace_;
    core::ScenarioConfig base_;
};

}  // namespace

std::unique_ptr<Workload> make_fault_campaign() { return std::make_unique<FaultCampaign>(); }

}  // namespace perfbench
