// Shared pieces of the perfbench driver: the span recorder used by traced
// runs, the per-repetition outcome every workload returns, and small
// statistics helpers.
//
// The driver measures each layer from outside: it wraps calls into the
// libraries' public functions in spans, and reads their public counters.
// Nothing here reaches into library internals.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hc {}

namespace perfbench {

using namespace hc;  // the driver calls into every library module

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- tracing ---------------------------------------------------------------

/// One timed call: name, start, end, the span that was open on the same
/// thread when it began (0 = none), and a group id shared by every span of
/// one epoch, poll or request batch.
struct Span {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t group = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int thread = 0;
};

/// In-memory span store. Spans are appended when they close; the file is
/// written once, when the run ends. Safe to use from several threads.
class Tracer {
public:
    Tracer();

    /// RAII span. A null tracer makes it a no-op, so untraced runs execute
    /// the same call sequence without reading the clock.
    class Scope {
    public:
        Scope(Tracer* tracer, const char* name, std::uint64_t group = 0);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer* tracer_;
        Span span_;
        std::uint64_t saved_parent_ = 0;
    };

    [[nodiscard]] std::vector<Span> spans() const;
    /// Tab-separated dump: id, parent, group, thread, name, start_ns, end_ns.
    [[nodiscard]] bool write_tsv(const std::string& path) const;

    [[nodiscard]] std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
            .count();
    }

private:
    friend class Scope;
    void add(const Span& span);

    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;  // guarded by mutex_
    std::atomic<std::uint64_t> next_id_{1};
};

/// Per-name aggregate over a set of spans. Self time is span time minus the
/// time its child spans cover.
struct SpanStats {
    std::uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
    std::vector<double> durations_s;  ///< sorted ascending

    [[nodiscard]] double percentile(double p) const;
};

[[nodiscard]] std::map<std::string, SpanStats> aggregate(const std::vector<Span>& spans);

// ---- outcomes --------------------------------------------------------------

struct Metric {
    double value = 0;
    std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// One repetition of a workload: set-up, then the run phase.
struct RepOutcome {
    double setup_s = 0;
    double run_s = 0;
    double jobs = 0;         ///< simulated jobs completed in the run phase
    double sim_seconds = 0;  ///< simulated time the run phase advanced
    std::string digest_text; ///< canonical deterministic outcome
    std::vector<std::string> check_failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Per-layer counters the workload read from public accessors, plus its
    /// exact simulated outcome (`outcome.*`).
    MetricMap layer;
};

class Workload {
public:
    virtual ~Workload() = default;
    /// Build the inputs from the seed. Not timed.
    virtual void prepare(std::uint64_t seed, int threads) = 0;
    /// One repetition; `tracer` is null in untraced runs.
    virtual RepOutcome rep(Tracer* tracer) = 0;
    /// Traced-run extras that are not part of a repetition.
    virtual void traced_extras(MetricMap& /*layer*/) {}
};

[[nodiscard]] std::unique_ptr<Workload> make_pbs_stream();
[[nodiscard]] std::unique_ptr<Workload> make_serve_peak();
[[nodiscard]] std::unique_ptr<Workload> make_campus_grid();
[[nodiscard]] std::unique_ptr<Workload> make_fault_campaign();

/// The serve driver's parity check: on a reduced spec, the reassembled
/// stack's deterministic report must equal serve::run_serve's. Returns the
/// failures (empty = pass).
[[nodiscard]] std::vector<std::string> serve_parity_check();

// ---- helpers ---------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile of an ascending-sorted vector (0 when empty).
[[nodiscard]] double sorted_percentile(const std::vector<double>& sorted, double p);
[[nodiscard]] std::uint64_t fnv1a(const std::string& text);
/// printf into a std::string.
[[nodiscard]] std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
