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
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/queue_state.hpp"
#include "pbs/server.hpp"
#include "util/index_bitset.hpp"
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
///
/// Two ways in. The whole-string scraper re-parses both listings on every
/// poll; it reads text from outside the process (`tools/checkqueue`) and is
/// the oracle the streaming path is tested against. A server-wired detector
/// streams: it re-parses only the stanzas whose chunks changed, as
/// `std::string_view` lines with no copied line, key or value, and keeps
/// one job state per job key and one idle flag per node. The first queued
/// and first running job's id, name, owner and nodes are read back from
/// their stanzas only when the qstat -f document moved, so a steady poll
/// does no per-job work at all.
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

    /// The Fig 6 block for the last poll: the wire record, then "Queue
    /// stuck", "Job running, no queuing." (with the first running job's id,
    /// name, owner and the poll's time, in the paper's "Job_Ownner"
    /// spelling) or "Other state", then the R=/nR= counts; "parse error: …"
    /// when the listing did not parse. Rendered on request from the reading
    /// the poll kept, so a poll builds no text. Empty before the first poll
    /// and after restore_state() until the next one.
    [[nodiscard]] std::string fig6_text() const;

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

    /// One qstat -f job stanza read in place: views into the stanza text,
    /// last occurrence of each attribute, id from the `Job Id:` line.
    struct JobStanzaView {
        std::string_view id;
        std::string_view name;
        std::string_view owner;
        std::string_view nodes_spec;  ///< `Resource_List.nodes` value
        char state = '?';             ///< first character of `job_state`
        /// How parse_qstat_f counts a stanza with one `Job Id:` line: no id
        /// counts as no job; R and E run, Q queues, anything else neither.
        [[nodiscard]] bool running() const { return !id.empty() && (state == 'R' || state == 'E'); }
        [[nodiscard]] bool queued() const { return !id.empty() && state == 'Q'; }
    };
    [[nodiscard]] static JobStanzaView parse_job_stanza(std::string_view stanza);

    /// count_idle_nodes(stanza) > 0, without copying a line.
    [[nodiscard]] static bool node_stanza_idle(std::string_view stanza);

    /// Work counters for the streaming path; the scale tests pin these (a
    /// steady-state poll parses zero stanzas).
    struct PollStats {
        std::uint64_t polls = 0;
        std::uint64_t stanza_parses = 0;  ///< job + node stanzas (re-)parsed
        std::uint64_t resyncs = 0;        ///< full document walks
    };
    [[nodiscard]] const PollStats& poll_stats() const { return poll_stats_; }

private:
    /// The queued and the running job keys (qstat -f chunk keys, which are
    /// job sequence numbers) as bits at `key - base`. Sequence numbers are
    /// dense, so the window is small, and IndexBitset::next yields the
    /// smallest member: the first stanza of that state in document order.
    class JobKeys {
    public:
        static constexpr std::uint64_t npos = ~std::uint64_t{0};
        void clear() { *this = JobKeys{}; }
        /// Record the key's state: queued, running, or neither.
        void assign(std::uint64_t key, bool queued, bool running);
        [[nodiscard]] int queued() const { return static_cast<int>(queued_.count()); }
        [[nodiscard]] int running() const { return static_cast<int>(running_.count()); }
        [[nodiscard]] std::uint64_t first_queued() const { return first(queued_); }
        [[nodiscard]] std::uint64_t first_running() const { return first(running_); }
        /// Move the window up once its low end has emptied, so memory
        /// tracks the live keys, not every key ever seen.
        void compact();

    private:
        [[nodiscard]] std::uint64_t first(const util::IndexBitset& bits) const;
        void rebase(std::uint64_t base);
        std::uint64_t base_ = 0;
        util::IndexBitset queued_;
        util::IndexBitset running_;
    };

    void sync_streaming();
    [[nodiscard]] util::Result<QstatParse> read_first_jobs(const util::TextDocument& qdoc) const;
    void apply_job_chunk(std::uint64_t key, const util::TextDocument::Chunk* chunk);
    void apply_node_chunk(std::uint64_t key, const util::TextDocument::Chunk* chunk);

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
    JobKeys job_keys_;
    std::vector<std::uint8_t> node_idle_;  ///< by chunk key (node index): counted idle
    int idle_count_ = 0;
    /// The last poll's qstat -f reading (counts plus the first queued and
    /// running job's fields): the whole-string parse, or on the streaming
    /// path the reading at qstat_doc_version_. Empty until read.
    std::optional<util::Result<QstatParse>> first_jobs_;
    std::int64_t checked_unix_ = -1;  ///< the last poll's clock reading
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
        JobKeys job_keys;
        std::vector<std::uint8_t> node_idle;
        int idle_count = 0;
        PollStats poll_stats;
    };
    [[nodiscard]] SavedState save_state() const {
        return {doc_synced_, qstat_doc_version_, nodes_doc_version_, job_keys_,
                node_idle_,  idle_count_,        poll_stats_};
    }
    void restore_state(const SavedState& s) {
        doc_synced_ = s.doc_synced;
        qstat_doc_version_ = s.qstat_doc_version;
        nodes_doc_version_ = s.nodes_doc_version;
        job_keys_ = s.job_keys;
        node_idle_ = s.node_idle;
        idle_count_ = s.idle_count;
        first_jobs_.reset();  // re-read from the restored document on the next poll
        poll_stats_ = s.poll_stats;
    }
};

/// The SDK-based Windows detector.
class WinHpcDetector : public Detector {
public:
    explicit WinHpcDetector(const winhpc::HpcScheduler& scheduler, int cores_per_node = 4);

    [[nodiscard]] QueueSnapshot check() override;
    [[nodiscard]] std::string name() const override { return "winhpc-detector"; }

    /// The Fig 6 block for the last poll (wire record, "Queue stuck" or
    /// "Other state", R=/nR= counts); empty before the first poll.
    [[nodiscard]] std::string fig6_text() const;

private:
    const winhpc::HpcScheduler& scheduler_;
    int cores_per_node_;
    std::optional<QueueSnapshot> last_;
};

}  // namespace hc::core
