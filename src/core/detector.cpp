#include "core/detector.hpp"

#include <algorithm>

#include "util/errors.hpp"
#include "util/strings.hpp"
#include "util/time_format.hpp"

namespace hc::core {

using util::Error;
using util::Result;

PbsDetector::PbsDetector(TextProvider qstat_f, TextProvider pbsnodes,
                         std::function<std::int64_t()> unix_clock)
    : qstat_f_(std::move(qstat_f)),
      pbsnodes_(std::move(pbsnodes)),
      unix_clock_(std::move(unix_clock)) {}

PbsDetector::PbsDetector(const pbs::PbsServer& server)
    : unix_clock_([&server] { return const_cast<pbs::PbsServer&>(server).engine().unix_now(); }),
      doc_server_(&server) {}

PbsDetector::PbsDetector(const pbs::PbsServer& server, bool incremental) : PbsDetector(server) {
    util::require(incremental, "PbsDetector: a server-wired detector always streams");
}

Result<PbsDetector::QstatParse> PbsDetector::parse_qstat_f(const std::string& text) {
    QstatParse parse;
    std::string current_id;
    char current_state = '?';
    std::string current_name;
    std::string current_owner;
    std::string current_nodes_spec;

    auto flush = [&]() -> util::Status {
        if (current_id.empty()) return util::Status::ok_status();
        if (current_state == 'R' || current_state == 'E') {
            ++parse.running;
            if (parse.first_running_id.empty()) {
                parse.first_running_id = current_id;
                parse.first_running_name = current_name;
                parse.first_running_owner = current_owner;
            }
        } else if (current_state == 'Q') {
            ++parse.queued;
            if (parse.first_queued_id.empty()) {
                parse.first_queued_id = current_id;
                auto rl = pbs::ResourceList::parse("nodes=" + current_nodes_spec);
                if (!rl)
                    return Error{"bad Resource_List.nodes for " + current_id + ": " +
                                 rl.error_message()};
                parse.first_queued_cpus = rl.value().total_cpus();
            }
        }
        current_id.clear();
        current_state = '?';
        current_name.clear();
        current_owner.clear();
        current_nodes_spec.clear();
        return util::Status::ok_status();
    };

    for (const std::string& raw : util::split_lines(text)) {
        const std::string line(util::trim(raw));
        if (line.rfind("Job Id:", 0) == 0) {
            if (auto st = flush(); !st.ok()) return st.error();
            current_id = std::string(util::trim(line.substr(7)));
            continue;
        }
        const auto eq = line.find(" = ");
        if (eq == std::string::npos) continue;
        const std::string key = line.substr(0, eq);
        const std::string value = line.substr(eq + 3);
        if (key == "job_state" && !value.empty()) current_state = value[0];
        else if (key == "Job_Name") current_name = value;
        else if (key == "Job_Owner") current_owner = value;
        else if (key == "Resource_List.nodes") current_nodes_spec = value;
    }
    if (auto st = flush(); !st.ok()) return st.error();
    return parse;
}

int PbsDetector::count_idle_nodes(const std::string& pbsnodes_text) {
    // A node block starts at a non-indented line (the hostname); it is an
    // idle candidate when "state = free" and no "jobs =" line appears.
    int idle = 0;
    bool in_block = false;
    bool is_free = false;
    bool has_jobs = false;
    auto close_block = [&] {
        if (in_block && is_free && !has_jobs) ++idle;
        is_free = false;
        has_jobs = false;
    };
    for (const std::string& raw : util::split_lines(pbsnodes_text)) {
        if (raw.empty()) continue;
        const bool indented = raw.front() == ' ' || raw.front() == '\t';
        if (!indented) {
            close_block();
            in_block = true;
            continue;
        }
        const std::string line(util::trim(raw));
        if (line == "state = free") is_free = true;
        if (line.rfind("jobs = ", 0) == 0) has_jobs = true;
    }
    close_block();
    return idle;
}

namespace {

/// The wire record a qstat -f reading yields: stuck when nothing runs and
/// something queues, asking for the first queued job's CPUs.
QueueStateRecord record_from(const PbsDetector::QstatParse& p) {
    QueueStateRecord record;
    record.stuck = p.running == 0 && p.queued > 0;
    if (record.stuck) {
        record.needed_cpus = p.first_queued_cpus;
        record.stuck_job_id = p.first_queued_id;
    }
    return record;
}

std::string counts_line(int running, int queued) {
    return "R=" + std::to_string(running) + " nR=" + std::to_string(queued) + "\n";
}

}  // namespace

QueueSnapshot PbsDetector::check() {
    ++poll_stats_.polls;
    int idle_nodes = 0;
    if (doc_server_ != nullptr) {
        sync_streaming();
        idle_nodes = idle_count_;
    } else {
        first_jobs_ = parse_qstat_f(qstat_f_());
        idle_nodes = count_idle_nodes(pbsnodes_());
    }
    QueueSnapshot snap;
    checked_unix_ = unix_clock_ ? unix_clock_() : -1;
    snap.checked_unix = checked_unix_;
    // A scrape failure reads as "other state": the daemon must never crash
    // on odd scheduler output; it just reports not-stuck.
    if (!*first_jobs_) return snap;
    const QstatParse& p = first_jobs_->value();
    snap.running = p.running;
    snap.queued = p.queued;
    snap.idle_nodes = idle_nodes;
    snap.record = record_from(p);
    return snap;
}

std::string PbsDetector::fig6_text() const {
    if (!first_jobs_) return {};
    if (!*first_jobs_) return "parse error: " + first_jobs_->error_message() + "\n";
    // Fig 6: the wire record first, then the debug block.
    const QstatParse& p = first_jobs_->value();
    const QueueStateRecord record = record_from(p);
    std::string text = record.encode() + "\n";
    if (record.stuck) {
        text += "Queue stuck\n" + counts_line(p.running, p.queued);
    } else if (p.running > 0 && p.queued == 0) {
        text += "Job running, no queuing.\n" + counts_line(p.running, p.queued);
        text += p.first_running_id + "\n";
        text += "    Job_Name=" + p.first_running_name + "\n";
        text += "    Job_Ownner=" + p.first_running_owner + "\n";
        text += "    state=R\n";
        text += "    time=" + util::format_detector_time(checked_unix_) + "\n";
    } else {
        text += "Other state\n" + counts_line(p.running, p.queued);
    }
    return text;
}

namespace {

/// Call fn(line) for each line of `text` exactly as util::split_lines
/// yields them (split on '\n', one trailing '\r' dropped, no empty last
/// line), as views into `text`.
template <class Fn>
void for_each_line(std::string_view text, Fn&& fn) {
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t nl = text.find('\n', start);
        std::string_view line = text.substr(start, nl == std::string_view::npos ? nl : nl - start);
        if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        fn(line);
        if (nl == std::string_view::npos) return;
        start = nl + 1;
    }
}

}  // namespace

PbsDetector::JobStanzaView PbsDetector::parse_job_stanza(std::string_view stanza) {
    // The per-line rules of parse_qstat_f, without a copy.
    JobStanzaView s;
    for_each_line(stanza, [&s](std::string_view raw) {
        const std::string_view line = util::trim(raw);
        if (line.starts_with("Job Id:")) {
            s.id = util::trim(line.substr(7));
            return;
        }
        const auto eq = line.find(" = ");
        if (eq == std::string_view::npos) return;
        const std::string_view key = line.substr(0, eq);
        const std::string_view value = line.substr(eq + 3);
        if (key == "job_state" && !value.empty()) s.state = value[0];
        else if (key == "Job_Name") s.name = value;
        else if (key == "Job_Owner") s.owner = value;
        else if (key == "Resource_List.nodes") s.nodes_spec = value;
    });
    return s;
}

bool PbsDetector::node_stanza_idle(std::string_view stanza) {
    // The block rules of count_idle_nodes: idle when any block is.
    bool in_block = false;
    bool is_free = false;
    bool has_jobs = false;
    bool idle = false;
    for_each_line(stanza, [&](std::string_view raw) {
        if (raw.empty()) return;
        if (raw.front() != ' ' && raw.front() != '\t') {
            idle = idle || (in_block && is_free && !has_jobs);
            in_block = true;
            is_free = false;
            has_jobs = false;
            return;
        }
        const std::string_view line = util::trim(raw);
        if (line == "state = free") is_free = true;
        if (line.starts_with("jobs = ")) has_jobs = true;
    });
    return idle || (in_block && is_free && !has_jobs);
}

void PbsDetector::JobKeys::assign(std::uint64_t key, bool queued, bool running) {
    if (queued || running) {
        if (queued_.count() + running_.count() == 0) base_ = key;  // empty: anchor here
        else if (key < base_) rebase(key);
    } else if (key < base_) {
        return;  // below the window: not a member
    }
    const auto bit = static_cast<std::size_t>(key - base_);
    if (queued) queued_.set(bit);
    else queued_.reset(bit);
    if (running) running_.set(bit);
    else running_.reset(bit);
}

std::uint64_t PbsDetector::JobKeys::first(const util::IndexBitset& bits) const {
    const std::size_t bit = bits.next(0);
    return bit == util::IndexBitset::npos ? npos : base_ + bit;
}

void PbsDetector::JobKeys::rebase(std::uint64_t base) {
    JobKeys moved;
    moved.base_ = base;
    for (std::size_t b = queued_.next(0); b != util::IndexBitset::npos; b = queued_.next(b + 1))
        moved.queued_.set(static_cast<std::size_t>(base_ + b - base));
    for (std::size_t b = running_.next(0); b != util::IndexBitset::npos; b = running_.next(b + 1))
        moved.running_.set(static_cast<std::size_t>(base_ + b - base));
    *this = std::move(moved);
}

void PbsDetector::JobKeys::compact() {
    // Rebasing costs one pass over the members; doing it only once 4096 keys
    // below the window's first member are free keeps that amortized.
    constexpr std::uint64_t kSlack = 4096;
    const std::uint64_t low = std::min(first_queued(), first_running());
    if (low != npos && low - base_ >= kSlack) rebase(low);
}

void PbsDetector::apply_job_chunk(std::uint64_t key, const util::TextDocument::Chunk* chunk) {
    if (chunk == nullptr) {  // stanza removed: job left the listing
        job_keys_.assign(key, false, false);
        return;
    }
    const JobStanzaView s = parse_job_stanza(chunk->text);
    ++poll_stats_.stanza_parses;
    job_keys_.assign(key, s.queued(), s.running());
}

void PbsDetector::apply_node_chunk(std::uint64_t key, const util::TextDocument::Chunk* chunk) {
    bool idle = false;
    if (chunk != nullptr) {
        idle = node_stanza_idle(chunk->text);
        ++poll_stats_.stanza_parses;
    }
    if (key >= node_idle_.size()) {
        if (!idle) return;
        node_idle_.resize(static_cast<std::size_t>(key) + 1, 0);
    }
    const auto k = static_cast<std::size_t>(key);
    idle_count_ += (idle ? 1 : 0) - node_idle_[k];
    node_idle_[k] = idle ? 1 : 0;
}

void PbsDetector::sync_streaming() {
    const util::TextDocument& qdoc = doc_server_->qstat_f_document();
    const util::TextDocument& ndoc = doc_server_->pbsnodes_document();
    // A document whose version did not move has no changed chunk, and the
    // journal still answers for its own version: skipping it changes nothing.
    if (!doc_synced_ || qdoc.version() != qstat_doc_version_) {
        if (doc_synced_ && qdoc.changed_since(qstat_doc_version_, changed_buf_)) {
            for (std::uint64_t key : changed_buf_) apply_job_chunk(key, qdoc.find(key));
        } else {
            // First poll, or the journal was trimmed past us: walk everything.
            ++poll_stats_.resyncs;
            job_keys_.clear();
            qdoc.for_each_chunk([this](std::uint64_t key, const util::TextDocument::Chunk& chunk) {
                apply_job_chunk(key, &chunk);
            });
        }
        job_keys_.compact();
        qstat_doc_version_ = qdoc.version();
        first_jobs_.reset();
    }
    if (!doc_synced_ || ndoc.version() != nodes_doc_version_) {
        if (doc_synced_ && ndoc.changed_since(nodes_doc_version_, changed_buf_)) {
            for (std::uint64_t key : changed_buf_) apply_node_chunk(key, ndoc.find(key));
        } else {
            ++poll_stats_.resyncs;
            node_idle_.clear();
            idle_count_ = 0;
            ndoc.for_each_chunk([this](std::uint64_t key, const util::TextDocument::Chunk& chunk) {
                apply_node_chunk(key, &chunk);
            });
        }
        nodes_doc_version_ = ndoc.version();
    }
    doc_synced_ = true;
    if (!first_jobs_) first_jobs_ = read_first_jobs(qdoc);
}

Result<PbsDetector::QstatParse> PbsDetector::read_first_jobs(const util::TextDocument& qdoc) const {
    // Rebuild the QstatParse the whole-string parser would produce: document
    // order is key order, so the smallest queued/running key is the first
    // stanza of that state in the assembled text.
    QstatParse p;
    p.running = job_keys_.running();
    p.queued = job_keys_.queued();
    if (const std::uint64_t key = job_keys_.first_queued(); key != JobKeys::npos) {
        const JobStanzaView s = parse_job_stanza(qdoc.find(key)->text);
        p.first_queued_id = s.id;
        auto rl = pbs::ResourceList::parse("nodes=" + std::string(s.nodes_spec));
        if (!rl) return Error{"bad Resource_List.nodes for " + p.first_queued_id + ": " +
                              rl.error_message()};
        p.first_queued_cpus = rl.value().total_cpus();
    }
    if (const std::uint64_t key = job_keys_.first_running(); key != JobKeys::npos) {
        const JobStanzaView s = parse_job_stanza(qdoc.find(key)->text);
        p.first_running_id = s.id;
        p.first_running_name = s.name;
        p.first_running_owner = s.owner;
    }
    return p;
}

WinHpcDetector::WinHpcDetector(const winhpc::HpcScheduler& scheduler, int cores_per_node)
    : scheduler_(scheduler), cores_per_node_(cores_per_node) {}

QueueSnapshot WinHpcDetector::check() {
    QueueSnapshot snap;
    snap.checked_unix =
        const_cast<winhpc::HpcScheduler&>(scheduler_).engine().unix_now();
    snap.running = scheduler_.running_job_count();
    snap.queued = scheduler_.queued_job_count();
    snap.idle_nodes = scheduler_.fully_idle_count();
    snap.record.stuck = snap.running == 0 && snap.queued > 0;
    if (snap.record.stuck) {
        const winhpc::HpcJob* first = scheduler_.first_queued_job();
        if (first != nullptr) {
            snap.record.needed_cpus = first->needed_cpus(cores_per_node_);
            // Windows job ids are ints; frame them like the PBS side so the
            // wire format stays uniform.
            snap.record.stuck_job_id = std::to_string(first->id) + ".winhpc";
        } else {
            snap.record.stuck = false;  // raced a start; report calm state
        }
    }
    last_ = snap;
    return snap;
}

std::string WinHpcDetector::fig6_text() const {
    if (!last_) return {};
    return last_->record.encode() + "\n" +
           (last_->record.stuck ? "Queue stuck\n" : "Other state\n") +
           counts_line(last_->running, last_->queued);
}

}  // namespace hc::core
