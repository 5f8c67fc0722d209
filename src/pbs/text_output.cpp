// The PBS text command layer: pbsnodes and qstat -f.
//
// These formats are load-bearing: "PBS does not provide APIs for other
// programs. Several Perl programs had been written for parsing the output of
// PBS commands" (§III.B.3). Our detector does the same parsing against this
// output, so the layout follows TORQUE's real rendering of the fields shown
// in Figs 7 and 8.
//
// Rendering is incremental: each node and each active job owns one
// self-contained stanza chunk in a util::TextDocument, re-rendered only when
// the server marked it dirty. A stanza embeds only per-record state — the
// clock-looking fields (rectime, idletime, netload) are derived from the
// node's last report time, exactly like a real mom heartbeat — so a
// steady-state poll re-renders nothing and returns the memoized assembly.
//
// A re-render allocates nothing: the renderers append into the server's one
// reused buffer (numbers through std::to_chars, never a temporary string),
// and TextDocument::set copies the bytes into the chunk's existing string.
#include <cstdio>

#include "pbs/server.hpp"
#include "util/strings.hpp"
#include "util/time_format.hpp"

namespace hc::pbs {

namespace {

/// Append the status attribute string of one healthy node (Fig 7's
/// `status =` value). All time-derived fields use the node's last report
/// time, so the stanza is a pure function of the record.
void append_node_status(std::string& out, const NodeRecord& rec) {
    const cluster::Node& node = *rec.node;
    const auto& cfg = node.config();
    const std::int64_t report_unix = rec.last_report_unix;
    // netload is a monotone counter on real moms; derive a deterministic one
    // from the report time so successive reports move forward like the real
    // thing.
    const long long netload =
        154'924'801'596LL + report_unix * (1000LL + node.index() * 37LL);
    const std::size_t start = out.size();
    out += "opsys=linux,uname=Linux ";
    out += node.hostname();
    out += " 2.6.18-164.el5 #1 SMP Fri Sep 9 03:28:30 EDT 2011 x86_64,"
           "sessions=? 0,nsessions=? 0,nusers=0,idletime=";
    util::append_int(out, report_unix - rec.idle_since_unix);
    out += ",totmem=";
    util::append_int(out, cfg.totmem_kb);
    out += "kb,availmem=";
    util::append_int(out, cfg.totmem_kb - 55'844);  // a little under totmem
    out += "kb,physmem=";
    util::append_int(out, cfg.physmem_kb);
    out += "kb,ncpus=";
    util::append_int(out, node.np());
    out += ",loadave=";
    util::append_int(out, rec.used_cpus());  // a whole CPU count: "%.2f" is "<n>.00"
    out += ".00,netload=";
    util::append_int(out, netload);
    out += ",state=";
    out += node_state_name(rec.state());
    out += ",jobs=? 0,rectime=";
    util::append_int(out, report_unix);
    // The attribute string was once formatted into a 640-byte buffer; keep
    // its 639-character cut so an absurdly long hostname renders as before.
    constexpr std::size_t kStatusMax = 639;
    if (out.size() - start > kStatusMax) out.resize(start + kStatusMax);
}

}  // namespace

// ---- incremental documents ----------------------------------------------
//
// The detectors poll these commands every simulated few minutes, but the
// server state usually hasn't moved between polls. Dirty stanzas are patched
// into the chunk documents lazily on output access; the assembled string is
// memoized inside the document, so a steady-state poll is a pointer return.

void PbsServer::render_node_stanza(const NodeRecord& rec, std::string& out) const {
    const NodeState state = rec.state();
    out += rec.node->hostname();
    out += "\n     state = ";
    out += node_state_name(state);
    out += "\n     np = ";
    util::append_int(out, rec.node->np());
    out += "\n     properties = ";
    for (std::size_t i = 0; i < rec.properties.size(); ++i) {
        if (i > 0) out += ',';
        out += rec.properties[i];
    }
    out += "\n     ntype = cluster\n";
    // jobs line: "cpu/jobid" pairs, only when something is running here.
    if (rec.used_cpus() > 0) {
        out += "     jobs = ";
        bool first = true;
        const auto owners = cpu_owners(rec);
        for (std::size_t cpu = 0; cpu < owners.size(); ++cpu) {
            if (owners[cpu] == 0) continue;
            if (!first) out += ", ";
            first = false;
            util::append_int(out, cpu);
            out += '/';
            append_job_id(out, owners[cpu]);
        }
        out += '\n';
    }
    // Moms that are down report no status attributes.
    if (state != NodeState::kDown) {
        out += "     status = ";
        append_node_status(out, rec);
        out += '\n';
    }
    out += '\n';
}

void PbsServer::render_job_stanza(const Job& job, std::string& out) const {
    out += "Job Id: ";
    out += job.id;
    out += "\n    Job_Name = ";
    out += job.name;
    out += "\n    Job_Owner = ";
    out += job.owner;
    out += "\n    job_state = ";
    out += job_state_char(job.state);
    out += "\n    queue = ";
    out += job.queue;
    out += "\n    server = ";
    out += config_.server_name;
    out += '\n';
    if (job.join_oe) out += "    Join_Path = oe\n";
    if (!job.output_path.empty()) {
        out += "    Output_Path = ";
        out += job.output_path;
        out += '\n';
    }
    out += job.rerunnable ? "    Rerunable = True\n" : "    Rerunable = False\n";
    if (job.state == JobState::kRunning || job.state == JobState::kExiting) {
        out += "    exec_host = ";
        append_exec_host(job, out);
        out += '\n';
    }
    out += "    Priority = ";
    util::append_int(out, job.priority);
    out += "\n    qtime = ";
    util::append_pbs_time(out, job.qtime_unix);
    out += "\n    Resource_List.nodes = ";
    job.resources.append_nodes_spec(out);
    out += '\n';
    if (job.resources.walltime.has_value()) {
        out += "    Resource_List.walltime = ";
        append_walltime(out, *job.resources.walltime);
        out += '\n';
    }
    // TORQUE wraps Variable_List with tab continuations. Only the home
    // directory varies: it is the owner's user name.
    out += "    Variable_List = PBS_O_HOME=/home/";
    out.append(job.owner, 0, job.owner.find('@'));
    out += ",\n\tPBS_O_LANG=en_US.UTF-8"
           ",\n\tPBS_O_PATH=/usr/kerberos/bin:/usr/local/bin:/usr/bin:/bin\n";
    out += '\n';  // stanza separator: every chunk is self-contained
}

void PbsServer::refresh_documents() const {
    // Removals first: a job may appear in both lists (dirtied, then
    // completed in the same window); the dirty entry below misses the
    // active-job lookup and is dropped.
    for (std::uint64_t seq : removed_job_seqs_) qstat_f_doc_.erase(seq);
    removed_job_seqs_.clear();
    for (int idx : dirty_nodes_) {
        NodeRecord& rec = const_cast<NodeRecord&>(nodes_[static_cast<std::size_t>(idx)]);
        render_buf_.clear();
        render_node_stanza(rec, render_buf_);
        pbsnodes_doc_.set(static_cast<util::TextDocument::Key>(idx), render_buf_);
        rec.text_dirty = false;
        ++text_stats_.node_stanza_renders;
    }
    dirty_nodes_.clear();
    for (std::uint64_t seq : dirty_job_seqs_) {
        Job* job = jobs_.find(seq);
        if (job == nullptr || job->state == JobState::kCompleted) continue;  // completed (maybe purged)
        render_buf_.clear();
        render_job_stanza(*job, render_buf_);
        qstat_f_doc_.set(seq, render_buf_);
        job->text_dirty = false;
        ++text_stats_.job_stanza_renders;
    }
    dirty_job_seqs_.clear();
}

const std::string& PbsServer::pbsnodes_output() const {
    refresh_documents();
    return pbsnodes_doc_.text();
}

const std::string& PbsServer::qstat_f_output() const {
    refresh_documents();
    return qstat_f_doc_.text();
}

const util::TextDocument& PbsServer::pbsnodes_document() const {
    refresh_documents();
    return pbsnodes_doc_;
}

const util::TextDocument& PbsServer::qstat_f_document() const {
    refresh_documents();
    return qstat_f_doc_;
}

std::string PbsServer::debug_full_render_pbsnodes() const {
    // Reference path: rebuild everything from primary state, no documents,
    // no dirty tracking. The churn test compares this byte-for-byte against
    // the incremental assembly.
    std::string out;
    for (const auto& rec : nodes_.records()) render_node_stanza(rec, out);
    return out;
}

std::string PbsServer::debug_full_render_qstat_f() const {
    std::string out;
    jobs_.for_each([&](const Job& job) {
        if (job.state != JobState::kCompleted) render_job_stanza(job, out);
    });
    return out;
}

// ---- brief qstat (whole-string memoized; human-facing only) --------------

std::string PbsServer::qstat_output() const {
    const std::int64_t now_unix = engine_.unix_now();
    TextCache& cache = qstat_cache_;
    const bool fresh = cache.version == version_ &&
                       (!cache.time_sensitive || cache.now_unix == now_unix);
    if (!fresh) {
        bool time_sensitive = false;
        cache.text = render_qstat(time_sensitive);
        cache.version = version_;
        cache.now_unix = now_unix;
        cache.time_sensitive = time_sensitive;
    }
    return cache.text;
}

std::string PbsServer::render_qstat(bool& time_sensitive) const {
    std::string out;
    bool any = false;
    jobs_.for_each([&](const Job& job) {
        if (job.state == JobState::kCompleted) return;
        if (!any) {
            out += "Job ID                    Name             User            Time Use S Queue\n";
            out += "------------------------- ---------------- --------------- -------- - -----\n";
            any = true;
        }
        // TORQUE truncates the server suffix in the brief view.
        std::string short_id = job.id;
        const auto first_dot = short_id.find('.');
        if (first_dot != std::string::npos) {
            const auto second_dot = short_id.find('.', first_dot + 1);
            if (second_dot != std::string::npos) short_id = short_id.substr(0, second_dot);
        }
        const std::string user = job.owner.substr(0, job.owner.find('@'));
        const std::int64_t cpu_time =
            job.stime_unix > 0 ? engine_.unix_now() - job.stime_unix : 0;
        if (job.stime_unix > 0) time_sensitive = true;  // Time Use column ticks
        char line[160];
        std::snprintf(line, sizeof line, "%-25s %-16.16s %-15.15s %8s %c %s\n",
                      short_id.c_str(), job.name.c_str(), user.c_str(),
                      job.stime_unix > 0 ? util::format_duration(cpu_time).c_str() : "0",
                      job_state_char(job.state), job.queue.c_str());
        out += line;
    });
    return out;
}

}  // namespace hc::pbs
