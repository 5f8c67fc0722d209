// Scheduler backends for the submission service.
//
// The service is backend-agnostic: it needs to submit a script, read queue
// depth O(1) for shed decisions, answer status queries, and build the
// matching queue-state detector. The two implementations preserve the
// paper's asymmetry — the PBS backend goes through qsub/text, the Windows
// backend through the typed SDK surface.
#pragma once

#include <charconv>
#include <cstdint>
#include <memory>
#include <string>

#include "core/detector.hpp"
#include "pbs/server.hpp"
#include "sim/time.hpp"
#include "util/result.hpp"
#include "winhpc/scheduler.hpp"

namespace hc::serve {

/// Deterministic lifecycle totals, for conservation checks and reports.
struct BackendTotals {
    std::uint64_t submitted = 0;
    std::uint64_t started = 0;
    std::uint64_t completed = 0;

    [[nodiscard]] bool operator==(const BackendTotals&) const = default;
};

class Backend {
public:
    virtual ~Backend() = default;
    [[nodiscard]] virtual const char* name() const = 0;
    /// Eligible queued jobs right now. Must be O(1) — consulted per submit.
    [[nodiscard]] virtual std::size_t queued() const = 0;
    [[nodiscard]] virtual std::size_t running() const = 0;
    [[nodiscard]] virtual int free_cpus() const = 0;
    /// Submit a qsub-style script. Error = parse failure (kBadScript).
    [[nodiscard]] virtual util::Result<std::string> submit(const std::string& script_text,
                                                           const std::string& owner,
                                                           sim::Duration run_time) = 0;
    /// Human-readable state of a job, or "" when the id is unknown.
    [[nodiscard]] virtual std::string job_state(const std::string& job_id) const = 0;
    [[nodiscard]] virtual std::unique_ptr<core::Detector> make_detector() const = 0;
    [[nodiscard]] virtual BackendTotals totals() const = 0;
};

/// PBS/TORQUE backend: scripts go through qsub, the detector scrapes the
/// server's chunked text documents incrementally.
class PbsBackend final : public Backend {
public:
    explicit PbsBackend(pbs::PbsServer& server) : server_(server) {}

    [[nodiscard]] const char* name() const override { return "pbs"; }
    [[nodiscard]] std::size_t queued() const override { return server_.queued_count(); }
    [[nodiscard]] std::size_t running() const override {
        // Derived O(1) from lifecycle totals; the service never qdels, so
        // every terminal transition of a *started* job is one of these.
        const auto& s = server_.stats();
        return static_cast<std::size_t>(s.started - s.completed_normal - s.killed_walltime -
                                        s.aborted_node_failure);
    }
    [[nodiscard]] int free_cpus() const override { return server_.free_cpus(); }

    [[nodiscard]] util::Result<std::string> submit(const std::string& script_text,
                                                   const std::string& owner,
                                                   sim::Duration run_time) override {
        pbs::JobBehavior behavior;
        behavior.run_time = run_time;
        return server_.qsub(script_text, owner, std::move(behavior));
    }

    [[nodiscard]] std::string job_state(const std::string& job_id) const override {
        const pbs::Job* job = static_cast<const pbs::PbsServer&>(server_).find_job(job_id);
        if (job == nullptr) return {};
        return std::string(1, pbs::job_state_char(job->state));
    }

    [[nodiscard]] std::unique_ptr<core::Detector> make_detector() const override {
        return std::make_unique<core::PbsDetector>(server_);
    }

    [[nodiscard]] BackendTotals totals() const override {
        const auto& s = server_.stats();
        return {s.submitted, s.started, s.completed_normal};
    }

private:
    pbs::PbsServer& server_;
};

/// Windows HPC backend: the same qsub dialect is accepted at the front door
/// (clients speak one language), then mapped onto a typed node-unit job.
class WinHpcBackend final : public Backend {
public:
    explicit WinHpcBackend(winhpc::HpcScheduler& scheduler) : scheduler_(scheduler) {}

    [[nodiscard]] const char* name() const override { return "winhpc"; }
    [[nodiscard]] std::size_t queued() const override {
        return static_cast<std::size_t>(scheduler_.queued_job_count());
    }
    [[nodiscard]] std::size_t running() const override {
        return static_cast<std::size_t>(scheduler_.running_job_count());
    }
    [[nodiscard]] int free_cpus() const override { return scheduler_.free_cores(); }

    [[nodiscard]] util::Result<std::string> submit(const std::string& script_text,
                                                   const std::string& owner,
                                                   sim::Duration run_time) override {
        auto script = pbs::JobScript::parse(script_text);
        if (!script.ok()) return script.error();
        winhpc::HpcJobSpec spec;
        spec.name = script.value().name;
        spec.owner = owner;
        spec.unit = winhpc::JobUnitType::kNode;
        spec.min_resources = script.value().resources.nodes;
        spec.run_time = run_time;
        return std::to_string(scheduler_.submit_job(std::move(spec)));
    }

    [[nodiscard]] std::string job_state(const std::string& job_id) const override {
        // A client's id: a whole decimal int, no sign, space, suffix or overflow.
        int id = 0;
        const char* end = job_id.data() + job_id.size();
        const std::from_chars_result parsed = std::from_chars(job_id.data(), end, id);
        if (parsed.ec != std::errc{} || parsed.ptr != end) return {};
        const winhpc::HpcJob* job = scheduler_.get_job(id);
        if (job == nullptr) return {};
        return winhpc::hpc_job_state_name(job->state);
    }

    [[nodiscard]] std::unique_ptr<core::Detector> make_detector() const override {
        return std::make_unique<core::WinHpcDetector>(scheduler_);
    }

    [[nodiscard]] BackendTotals totals() const override {
        const auto& s = scheduler_.stats();
        return {s.submitted, s.started, s.finished};
    }

private:
    winhpc::HpcScheduler& scheduler_;
};

}  // namespace hc::serve
