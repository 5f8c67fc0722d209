// PBS resource requests: the `-l nodes=1:ppn=4` strings.
//
// The detector's whole job is to read "how many compute nodes the first
// queuing job needs", which comes from this structure, so the parser matches
// TORQUE's accepted grammar for the subset the paper uses:
//   nodes=<count>[:ppn=<n>][:<property>...]
//   walltime=HH:MM:SS
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/result.hpp"

namespace hc::pbs {

struct ResourceList {
    int nodes = 1;    ///< node chunks requested
    int ppn = 1;      ///< processors per node chunk
    std::vector<std::string> properties;  ///< required node properties
    std::optional<sim::Duration> walltime;

    /// Total CPU count this request books — what the Fig 5 record carries
    /// in its [Needed CPUs] field.
    [[nodiscard]] int total_cpus() const { return nodes * ppn; }

    /// Parse the value of `-l` ("nodes=1:ppn=4,walltime=01:00:00").
    [[nodiscard]] static util::Result<ResourceList> parse(const std::string& spec);

    /// Render back to the `-l` value form.
    [[nodiscard]] std::string to_string() const;

    /// Render just the nodes spec as qstat -f prints it ("1:ppn=4").
    [[nodiscard]] std::string nodes_spec() const;
    /// nodes_spec() appended to `out`.
    void append_nodes_spec(std::string& out) const;
};

/// Parse "HH:MM:SS" (or "MM:SS", or plain seconds) into a Duration.
[[nodiscard]] util::Result<sim::Duration> parse_walltime(const std::string& text);

/// Render a Duration as "HH:MM:SS".
[[nodiscard]] std::string format_walltime(sim::Duration d);
/// format_walltime appended to `out`.
void append_walltime(std::string& out, sim::Duration d);

}  // namespace hc::pbs
