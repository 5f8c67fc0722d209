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
#include <cstdio>

#include "pbs/server.hpp"
#include "util/time_format.hpp"

namespace hc::pbs {

namespace {

/// The status attribute string of one healthy node (Fig 7's `status =` line).
/// All time-derived fields use the node's last report time, so the stanza is
/// a pure function of the record.
std::string node_status_string(const NodeRecord& rec) {
    const cluster::Node& node = *rec.node;
    const auto& cfg = node.config();
    const std::int64_t report_unix = rec.last_report_unix;
    char buf[640];
    // netload is a monotone counter on real moms; derive a deterministic one
    // from the report time so successive reports move forward like the real
    // thing.
    const long long netload =
        154'924'801'596LL + report_unix * (1000LL + node.index() * 37LL);
    std::snprintf(
        buf, sizeof buf,
        "opsys=linux,uname=Linux %s 2.6.18-164.el5 #1 SMP Fri Sep 9 03:28:30 EDT 2011 x86_64,"
        "sessions=? 0,nsessions=? 0,nusers=0,idletime=%lld,totmem=%lldkb,availmem=%lldkb,"
        "physmem=%lldkb,ncpus=%d,loadave=%.2f,netload=%lld,state=%s,jobs=? 0,rectime=%lld",
        node.hostname().c_str(),
        static_cast<long long>(report_unix - rec.idle_since_unix),
        static_cast<long long>(cfg.totmem_kb),
        static_cast<long long>(cfg.totmem_kb - 55'844),  // availmem a little under totmem
        static_cast<long long>(cfg.physmem_kb), node.np(),
        static_cast<double>(rec.used_cpus()), netload, node_state_name(rec.state()),
        static_cast<long long>(report_unix));
    return buf;
}

}  // namespace

// ---- incremental documents ----------------------------------------------
//
// The detectors poll these commands every simulated few minutes, but the
// server state usually hasn't moved between polls. Dirty stanzas are patched
// into the chunk documents lazily on output access; the assembled string is
// memoized inside the document, so a steady-state poll is a pointer return.

std::string PbsServer::render_node_stanza(const NodeRecord& rec) const {
    const NodeState state = rec.state();
    std::string out;
    out += rec.node->hostname() + "\n";
    out += "     state = " + std::string(node_state_name(state)) + "\n";
    out += "     np = " + std::to_string(rec.node->np()) + "\n";
    std::string props;
    for (std::size_t i = 0; i < rec.properties.size(); ++i) {
        if (i > 0) props += ",";
        props += rec.properties[i];
    }
    out += "     properties = " + props + "\n";
    out += "     ntype = cluster\n";
    // jobs line: "cpu/jobid" pairs, only when something is running here.
    if (rec.used_cpus() > 0) {
        std::string jobs;
        for (std::size_t cpu = 0; cpu < rec.cpu_owner.size(); ++cpu) {
            if (rec.cpu_owner[cpu] == 0) continue;
            if (!jobs.empty()) jobs += ", ";
            jobs += std::to_string(cpu) + "/" + job_id_for(rec.cpu_owner[cpu]);
        }
        out += "     jobs = " + jobs + "\n";
    }
    // Moms that are down report no status attributes.
    if (state != NodeState::kDown) {
        out += "     status = " + node_status_string(rec) + "\n";
    }
    out += "\n";
    return out;
}

std::string PbsServer::render_job_stanza(const Job& job) const {
    std::string out;
    out += "Job Id: " + job.id + "\n";
    out += "    Job_Name = " + job.name + "\n";
    out += "    Job_Owner = " + job.owner + "\n";
    out += "    job_state = " + std::string(1, job_state_char(job.state)) + "\n";
    out += "    queue = " + job.queue + "\n";
    out += "    server = " + job.server + "\n";
    if (job.join_oe) out += "    Join_Path = oe\n";
    if (!job.output_path.empty()) out += "    Output_Path = " + job.output_path + "\n";
    out += std::string("    Rerunable = ") + (job.rerunnable ? "True" : "False") + "\n";
    if (job.state == JobState::kRunning || job.state == JobState::kExiting)
        out += "    exec_host = " + job.exec_host_string() + "\n";
    out += "    Priority = " + std::to_string(job.priority) + "\n";
    out += "    qtime = " + util::format_pbs_time(job.qtime_unix) + "\n";
    out += "    Resource_List.nodes = " + job.resources.nodes_spec() + "\n";
    if (job.resources.walltime.has_value())
        out += "    Resource_List.walltime = " + format_walltime(*job.resources.walltime) + "\n";
    if (!job.variable_list.empty()) {
        // TORQUE wraps Variable_List with tab continuations.
        out += "    Variable_List = ";
        for (std::size_t i = 0; i < job.variable_list.size(); ++i) {
            if (i > 0) out += ",\n\t";
            out += job.variable_list[i];
        }
        out += "\n";
    }
    out += "\n";  // stanza separator: every chunk is self-contained
    return out;
}

void PbsServer::refresh_documents() const {
    // Removals first: a job may appear in both lists (dirtied, then
    // completed in the same window); the dirty entry below misses the
    // active-job lookup and is dropped.
    for (std::uint64_t seq : removed_job_seqs_) qstat_f_doc_.erase(seq);
    removed_job_seqs_.clear();
    for (int idx : dirty_nodes_) {
        NodeRecord& rec = const_cast<NodeRecord&>(nodes_[static_cast<std::size_t>(idx)]);
        pbsnodes_doc_.set(static_cast<util::TextDocument::Key>(idx), render_node_stanza(rec));
        rec.text_dirty = false;
        ++text_stats_.node_stanza_renders;
    }
    dirty_nodes_.clear();
    for (std::uint64_t seq : dirty_job_seqs_) {
        auto it = active_by_seq_.find(seq);
        if (it == active_by_seq_.end()) continue;  // completed (and maybe purged) meanwhile
        qstat_f_doc_.set(seq, render_job_stanza(*it->second));
        it->second->text_dirty = false;
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
    for (const auto& rec : nodes_) out += render_node_stanza(rec);
    return out;
}

std::string PbsServer::debug_full_render_qstat_f() const {
    std::string out;
    for (const auto& [_, job] : active_by_seq_) out += render_job_stanza(*job);
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
    for (const auto& [_, job] : active_by_seq_) {
        if (!any) {
            out += "Job ID                    Name             User            Time Use S Queue\n";
            out += "------------------------- ---------------- --------------- -------- - -----\n";
            any = true;
        }
        // TORQUE truncates the server suffix in the brief view.
        std::string short_id = job->id;
        const auto first_dot = short_id.find('.');
        if (first_dot != std::string::npos) {
            const auto second_dot = short_id.find('.', first_dot + 1);
            if (second_dot != std::string::npos) short_id = short_id.substr(0, second_dot);
        }
        const std::string user = job->owner.substr(0, job->owner.find('@'));
        const std::int64_t cpu_time =
            job->stime_unix > 0 ? engine_.unix_now() - job->stime_unix : 0;
        if (job->stime_unix > 0) time_sensitive = true;  // Time Use column ticks
        char line[160];
        std::snprintf(line, sizeof line, "%-25s %-16.16s %-15.15s %8s %c %s\n",
                      short_id.c_str(), job->name.c_str(), user.c_str(),
                      job->stime_unix > 0 ? util::format_duration(cpu_time).c_str() : "0",
                      job_state_char(job->state), job->queue.c_str());
        out += line;
    }
    return out;
}

}  // namespace hc::pbs
