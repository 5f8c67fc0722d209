#include "pbs/accounting.hpp"

#include <cstdio>

#include "util/strings.hpp"
#include "util/time_format.hpp"

namespace hc::pbs {

using util::Error;
using util::Result;

namespace {

char event_code(PbsServer::JobEvent event) {
    switch (event) {
        case PbsServer::JobEvent::kQueued: return 'Q';
        case PbsServer::JobEvent::kStarted: return 'S';
        case PbsServer::JobEvent::kEnded: return 'E';
        case PbsServer::JobEvent::kDeleted: return 'D';
        case PbsServer::JobEvent::kAborted: return 'A';
        case PbsServer::JobEvent::kRequeued: return 'R';
    }
    return '?';
}

std::string accounting_timestamp(std::int64_t unix_time) {
    const util::CivilTime c = util::unix_to_civil(unix_time);
    char buf[24];
    std::snprintf(buf, sizeof buf, "%02d/%02d/%04d %02d:%02d:%02d", c.month, c.day, c.year,
                  c.hour, c.minute, c.second);
    return buf;
}

// User-supplied values (jobname, user) can contain the record's own framing
// characters: ' ' splits key=value tokens, ';' splits record fields. Percent-
// escape them on write (same scheme as the workload trace format) so the
// writer->parser round trip is lossless for any job name.
std::string escape_value(const std::string& s) {
    std::string out = util::replace_all(s, "%", "%25");
    out = util::replace_all(out, " ", "%20");
    return util::replace_all(out, ";", "%3b");
}

std::string unescape_value(const std::string& s) {
    std::string out = util::replace_all(s, "%3b", ";");
    out = util::replace_all(out, "%20", " ");
    return util::replace_all(out, "%25", "%");
}

}  // namespace

const std::string* AccountingRecord::find(const std::string& key) const {
    for (const auto& [k, v] : fields)
        if (k == key) return &v;
    return nullptr;
}

std::string AccountingLog::format_record(const PbsServer& server, PbsServer::JobEvent event,
                                         const Job& job, std::int64_t now_unix) {
    std::string line = accounting_timestamp(now_unix);
    line += ';';
    line += event_code(event);
    line += ';';
    line += job.id;
    line += ';';

    const std::string user = job.owner.substr(0, job.owner.find('@'));
    line += "user=" + escape_value(user) + " group=users jobname=" + escape_value(job.name) +
            " queue=" + escape_value(job.queue);
    line += " ctime=" + std::to_string(job.qtime_unix) +
            " qtime=" + std::to_string(job.qtime_unix);
    switch (event) {
        case PbsServer::JobEvent::kQueued:
            break;
        case PbsServer::JobEvent::kStarted:
            line += " start=" + std::to_string(job.stime_unix);
            line += " exec_host=";
            server.append_exec_host(job, line);
            line += " Resource_List.nodes=" + job.resources.nodes_spec();
            break;
        case PbsServer::JobEvent::kEnded:
        case PbsServer::JobEvent::kDeleted:
        case PbsServer::JobEvent::kAborted: {
            if (job.stime_unix > 0) line += " start=" + std::to_string(job.stime_unix);
            line += " end=" + std::to_string(job.etime_unix);
            line += " Resource_List.nodes=" + job.resources.nodes_spec();
            if (job.stime_unix > 0) {
                const std::int64_t wall = job.etime_unix - job.stime_unix;
                line += " resources_used.walltime=" +
                        format_walltime(sim::seconds(static_cast<double>(wall)));
            }
            line += " Exit_status=" +
                    std::string(event == PbsServer::JobEvent::kEnded ? "0" : "271");
            break;
        }
        case PbsServer::JobEvent::kRequeued:
            line += " requeue_count=" + std::to_string(job.requeue_count);
            break;
    }
    return line;
}

void AccountingLog::attach(PbsServer& server) {
    server.on_job_event([this, &server](PbsServer::JobEvent event, const Job& job) {
        text_ += format_record(server, event, job, server.engine().unix_now());
        text_ += '\n';
        ++lines_;
    });
}

Result<std::vector<AccountingRecord>> parse_accounting_log(const std::string& text) {
    std::vector<AccountingRecord> records;
    int line_no = 0;
    for (const std::string& raw : util::split_lines(text)) {
        ++line_no;
        if (raw.empty()) continue;
        const auto parts = util::split(raw, ';');
        if (parts.size() < 4) return Error{"accounting record needs 4 ;-fields", line_no};
        AccountingRecord rec;
        // Timestamp "MM/DD/YYYY HH:MM:SS".
        const auto dt = util::split_ws(parts[0]);
        if (dt.size() != 2) return Error{"bad timestamp: " + parts[0], line_no};
        const auto date = util::split(dt[0], '/');
        const auto time = util::split(dt[1], ':');
        if (date.size() != 3 || time.size() != 3)
            return Error{"bad timestamp: " + parts[0], line_no};
        rec.unix_time = util::civil_to_unix(
            static_cast<int>(util::parse_uint(date[2])), static_cast<int>(util::parse_uint(date[0])),
            static_cast<int>(util::parse_uint(date[1])), static_cast<int>(util::parse_uint(time[0])),
            static_cast<int>(util::parse_uint(time[1])), static_cast<int>(util::parse_uint(time[2])));
        if (parts[1].size() != 1) return Error{"bad record type: " + parts[1], line_no};
        rec.type = parts[1][0];
        rec.job_id = parts[2];
        // Remainder (rejoin in case a value contained ';' — none do today).
        std::string attrs = parts[3];
        for (std::size_t i = 4; i < parts.size(); ++i) attrs += ";" + parts[i];
        for (const auto& token : util::split_ws(attrs)) {
            const auto eq = token.find('=');
            if (eq == std::string::npos)
                return Error{"bad key=value token: " + token, line_no};
            // Values are unescaped unconditionally: machine-generated fields
            // (numbers, host lists) contain no '%' so this is a no-op there.
            rec.fields.emplace_back(token.substr(0, eq),
                                    unescape_value(token.substr(eq + 1)));
        }
        records.push_back(std::move(rec));
    }
    return records;
}

AccountingSummary summarise_accounting(const std::vector<AccountingRecord>& records) {
    AccountingSummary summary;
    for (const auto& rec : records) {
        switch (rec.type) {
            case 'Q': ++summary.queued; break;
            case 'S': ++summary.started; break;
            case 'D': ++summary.deleted; break;
            case 'A': ++summary.aborted; break;
            case 'R': ++summary.requeued; break;
            case 'E': {
                ++summary.ended;
                const std::string* wall = rec.find("resources_used.walltime");
                const std::string* nodes = rec.find("Resource_List.nodes");
                if (wall != nullptr && nodes != nullptr) {
                    auto duration = parse_walltime(*wall);
                    auto rl = ResourceList::parse("nodes=" + *nodes);
                    if (duration.ok() && rl.ok())
                        summary.consumed_cpu_seconds +=
                            duration.value().seconds() * rl.value().total_cpus();
                }
                break;
            }
            default: break;
        }
    }
    return summary;
}

}  // namespace hc::pbs
