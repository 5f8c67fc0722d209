// TORQUE-style accounting log.
//
// Real TORQUE servers append one line per job event to
// /var/spool/torque/server_priv/accounting/<YYYYMMDD>:
//
//   04/16/2010 17:55:40;S;1185.eridani.qgg.hud.ac.uk;user=sliang group=users
//   jobname=release_1_node queue=default ctime=... qtime=... start=...
//   exec_host=node16/3+... Resource_List.nodes=1:ppn=4
//
// Campus grids live off these files (usage reporting, charging, the kind of
// utilisation numbers the paper's motivation cites), so the substrate
// provides the writer plus a parser/summariser used to cross-check the
// simulation's own metrics in tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pbs/server.hpp"
#include "util/result.hpp"

namespace hc::pbs {

/// One parsed accounting record.
struct AccountingRecord {
    std::int64_t unix_time = 0;
    char type = '?';  ///< Q,S,E,D,A,R
    std::string job_id;
    std::vector<std::pair<std::string, std::string>> fields;  ///< key=value, in order

    [[nodiscard]] const std::string* find(const std::string& key) const;
};

/// Usage aggregate computed from a log (what an admin's monthly report uses).
struct AccountingSummary {
    std::size_t queued = 0;
    std::size_t started = 0;
    std::size_t ended = 0;
    std::size_t deleted = 0;
    std::size_t aborted = 0;
    std::size_t requeued = 0;
    double consumed_cpu_seconds = 0;  ///< sum over E records of cpus x walltime
};

/// Writer: attach to a server and it records every lifecycle event.
class AccountingLog {
public:
    /// Subscribes to the server's job events. The log must outlive the
    /// server's event dispatch (attach once, keep alongside the server).
    void attach(PbsServer& server);

    /// Full log text (one record per line, chronological).
    [[nodiscard]] const std::string& text() const { return text_; }
    [[nodiscard]] std::size_t line_count() const { return lines_; }

    /// Format one record line (exposed for tests). The server renders the
    /// `S` record's exec_host.
    [[nodiscard]] static std::string format_record(const PbsServer& server,
                                                   PbsServer::JobEvent event, const Job& job,
                                                   std::int64_t now_unix);

private:
    std::string text_;
    std::size_t lines_ = 0;
};

/// Parse a log back into records. Unknown keys are preserved as fields.
[[nodiscard]] util::Result<std::vector<AccountingRecord>> parse_accounting_log(
    const std::string& text);

/// Aggregate a parsed log.
[[nodiscard]] AccountingSummary summarise_accounting(
    const std::vector<AccountingRecord>& records);

}  // namespace hc::pbs
