#include "pbs/resource_list.hpp"

#include <limits>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace hc::pbs {

using util::Error;
using util::Result;

namespace {
constexpr long long kIntMax = std::numeric_limits<int>::max();
/// Longest walltime accepted, the span limit every spec loader applies.
constexpr long long kMaxWalltimeSeconds = static_cast<long long>(util::kSpecHoursMax) * 3600;
}  // namespace

Result<sim::Duration> parse_walltime(const std::string& text) {
    const auto parts = util::split(text, ':');
    if (parts.empty() || parts.size() > 3) return Error{"bad walltime: " + text};
    // total and each component stay at or below kMaxWalltimeSeconds, so
    // total * 60 + v cannot overflow.
    std::int64_t total = 0;
    for (const auto& p : parts) {
        const long long v = util::parse_uint(std::string(util::trim(p)));
        if (v < 0 || v > kMaxWalltimeSeconds) return Error{"bad walltime component: " + p};
        total = total * 60 + v;
        if (total > kMaxWalltimeSeconds) return Error{"walltime too long: " + text};
    }
    return sim::seconds(static_cast<double>(total));
}

void append_walltime(std::string& out, sim::Duration d) {
    const std::int64_t s = d.whole_seconds();
    util::append_int_pad2(out, s / 3600);
    out += ':';
    util::append_int_pad2(out, (s / 60) % 60);
    out += ':';
    util::append_int_pad2(out, s % 60);
}

std::string format_walltime(sim::Duration d) {
    std::string out;
    append_walltime(out, d);
    return out;
}

Result<ResourceList> ResourceList::parse(const std::string& spec) {
    ResourceList rl;
    bool saw_nodes = false;
    for (const auto& item : util::split(spec, ',')) {
        const std::string entry(util::trim(item));
        if (entry.empty()) continue;
        const auto eq = entry.find('=');
        if (eq == std::string::npos) return Error{"bad resource item: " + entry};
        const std::string key = entry.substr(0, eq);
        const std::string value = entry.substr(eq + 1);
        if (key == "nodes") {
            // nodes=<count>[:ppn=<n>][:prop]...
            const auto fields = util::split(value, ':');
            const long long count = util::parse_uint(fields[0]);
            if (count <= 0 || count > kIntMax) return Error{"bad node count: " + fields[0]};
            rl.nodes = static_cast<int>(count);
            for (std::size_t i = 1; i < fields.size(); ++i) {
                if (fields[i].rfind("ppn=", 0) == 0) {
                    const long long ppn = util::parse_uint(fields[i].substr(4));
                    if (ppn <= 0 || ppn > kIntMax) return Error{"bad ppn: " + fields[i]};
                    // Both factors fit in int, so the product fits in long long.
                    if (count * ppn > kIntMax) return Error{"too many cpus: " + value};
                    rl.ppn = static_cast<int>(ppn);
                } else if (!fields[i].empty()) {
                    rl.properties.push_back(fields[i]);
                }
            }
            saw_nodes = true;
        } else if (key == "walltime") {
            auto wt = parse_walltime(value);
            if (!wt) return Error{wt.error_message()};
            rl.walltime = wt.value();
        } else {
            return Error{"unsupported resource: " + key};
        }
    }
    if (!saw_nodes) return Error{"resource list missing nodes=..."};
    return rl;
}

std::string ResourceList::to_string() const {
    std::string out = "nodes=" + nodes_spec();
    if (walltime.has_value()) out += ",walltime=" + format_walltime(*walltime);
    return out;
}

void ResourceList::append_nodes_spec(std::string& out) const {
    util::append_int(out, nodes);
    if (ppn != 1) {
        out += ":ppn=";
        util::append_int(out, ppn);
    }
    for (const auto& p : properties) {
        out += ':';
        out += p;
    }
}

std::string ResourceList::nodes_spec() const {
    std::string out;
    append_nodes_spec(out);
    return out;
}

}  // namespace hc::pbs
