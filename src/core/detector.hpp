// Queue-state detectors (§III.B.4).
//
// One detector per head node, behind a common interface — but with the
// paper's deliberate asymmetry:
//  * the PBS detector is a TEXT SCRAPER: "PBS does not provide APIs for
//    other programs. Several Perl programs had been written for parsing the
//    output of PBS commands" — so it consumes `qstat -f` / `pbsnodes`
//    *output strings*, never the server object's internals;
//  * the Windows detector uses the typed SDK ("Microsoft provides a SDK for
//    programs to fetch the data").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/queue_state.hpp"
#include "pbs/server.hpp"
#include "winhpc/scheduler.hpp"

namespace hc::core {

class Detector {
public:
    virtual ~Detector() = default;
    /// One poll: compute the queue state now.
    [[nodiscard]] virtual QueueSnapshot check() = 0;
    [[nodiscard]] virtual std::string name() const = 0;
};

/// The checkqueue.pl equivalent: parse qstat -f and pbsnodes text.
class PbsDetector : public Detector {
public:
    using TextProvider = std::function<std::string()>;

    /// Whole-string scraper over arbitrary text sources: canned listings
    /// (`tools/checkqueue`, tests) and the reference oracle the streaming
    /// path is checked against. Every poll re-parses both texts.
    PbsDetector(TextProvider qstat_f, TextProvider pbsnodes,
                std::function<std::int64_t()> unix_clock);

    /// Live wiring: consume the server's chunked text documents and re-parse
    /// only the stanzas that changed since the last poll (falling back to a
    /// full walk when the change journal was trimmed). Still a scraper — it
    /// reads stanza *text*, never server internals — and produces snapshots
    /// identical to the whole-string path.
    explicit PbsDetector(const pbs::PbsServer& server);

    /// Compatibility overload for callers that still spell the streaming
    /// mode out; `incremental` must be true.
    PbsDetector(const pbs::PbsServer& server, bool incremental);

    [[nodiscard]] QueueSnapshot check() override;
    [[nodiscard]] std::string name() const override { return "checkqueue.pl"; }

    /// Parse a qstat -f listing into (running, queued, first-queued id,
    /// first-queued CPUs, first-running job block). Exposed for tests.
    struct QstatParse {
        int running = 0;
        int queued = 0;
        std::string first_queued_id;
        int first_queued_cpus = 0;
        std::string first_running_id;
        std::string first_running_name;
        std::string first_running_owner;
    };
    [[nodiscard]] static util::Result<QstatParse> parse_qstat_f(const std::string& text);

    /// Count fully idle (state = free, no jobs line) nodes in pbsnodes text.
    [[nodiscard]] static int count_idle_nodes(const std::string& pbsnodes_text);

    /// Work counters for the streaming path; the scale tests pin these (a
    /// steady-state poll parses zero stanzas).
    struct PollStats {
        std::uint64_t polls = 0;
        std::uint64_t stanza_parses = 0;  ///< job + node stanzas (re-)parsed
        std::uint64_t resyncs = 0;        ///< full document walks
    };
    [[nodiscard]] const PollStats& poll_stats() const { return poll_stats_; }

private:
    /// Per-stanza parse of one qstat -f job block.
    struct JobStanza {
        std::string id;
        std::string name;
        std::string owner;
        std::string nodes_spec;
        char state = '?';
    };

    [[nodiscard]] QueueSnapshot check_incremental();
    [[nodiscard]] QueueSnapshot snapshot_from_parse(const util::Result<QstatParse>& parsed,
                                                    int idle_nodes);
    void apply_job_chunk(std::uint64_t key, const util::TextDocument::Chunk* chunk);
    void apply_node_chunk(std::uint64_t key, const util::TextDocument::Chunk* chunk);
    [[nodiscard]] static JobStanza parse_job_stanza(const std::string& text);

    TextProvider qstat_f_;
    TextProvider pbsnodes_;
    std::function<std::int64_t()> unix_clock_;

    // Streaming cursor (null server for a whole-string scraper). Aggregates are
    // maintained incrementally from per-chunk parses, so a poll's cost is
    // proportional to what changed, not to cluster or queue size.
    const pbs::PbsServer* doc_server_ = nullptr;
    bool doc_synced_ = false;
    std::uint64_t qstat_doc_version_ = 0;
    std::uint64_t nodes_doc_version_ = 0;
    std::map<std::uint64_t, JobStanza> job_stanzas_;  ///< by chunk key (job seq)
    std::set<std::uint64_t> queued_keys_;             ///< state Q
    std::set<std::uint64_t> running_keys_;            ///< state R or E
    std::map<std::uint64_t, bool> node_idle_;         ///< chunk key → counted idle
    int idle_count_ = 0;
    std::vector<std::uint64_t> changed_buf_;
    PollStats poll_stats_;

public:
    /// World-snapshot hook: the streaming cursor (doc versions + per-stanza
    /// aggregates). Restoring alongside the server's own restore keeps the
    /// "parse only what changed" guarantee intact across a fork.
    struct SavedState {
        bool doc_synced = false;
        std::uint64_t qstat_doc_version = 0;
        std::uint64_t nodes_doc_version = 0;
        std::map<std::uint64_t, JobStanza> job_stanzas;
        std::set<std::uint64_t> queued_keys;
        std::set<std::uint64_t> running_keys;
        std::map<std::uint64_t, bool> node_idle;
        int idle_count = 0;
        PollStats poll_stats;
    };
    [[nodiscard]] SavedState save_state() const {
        return {doc_synced_,   qstat_doc_version_, nodes_doc_version_, job_stanzas_, queued_keys_,
                running_keys_, node_idle_,         idle_count_,        poll_stats_};
    }
    void restore_state(const SavedState& s) {
        doc_synced_ = s.doc_synced;
        qstat_doc_version_ = s.qstat_doc_version;
        nodes_doc_version_ = s.nodes_doc_version;
        job_stanzas_ = s.job_stanzas;
        queued_keys_ = s.queued_keys;
        running_keys_ = s.running_keys;
        node_idle_ = s.node_idle;
        idle_count_ = s.idle_count;
        poll_stats_ = s.poll_stats;
    }
};

/// The SDK-based Windows detector.
class WinHpcDetector : public Detector {
public:
    explicit WinHpcDetector(const winhpc::HpcScheduler& scheduler, int cores_per_node = 4);

    [[nodiscard]] QueueSnapshot check() override;
    [[nodiscard]] std::string name() const override { return "winhpc-detector"; }

private:
    const winhpc::HpcScheduler& scheduler_;
    int cores_per_node_;
};

}  // namespace hc::core
