// bench_check — validate a bench JSON report against a committed baseline.
//
//   bench_check <baseline.json> <candidate.json>
//
// Both files must be hc-bench-json/1 documents for the same bench id, each
// with a `host` object naming the machine that produced it. The comparison
// is over record *identities* — (metric, unit, params) — never values, and
// never the host's: CI runs the benches with `--quick` on other machines,
// so its values are not comparable, but its record set must exactly match
// the committed full-run baseline. A metric that silently disappears, gains
// a unit change, or sprouts a new params axis is schema drift and fails the
// build (exit 1). Parse or I/O problems, and a missing `host`, exit 2.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "util/json.hpp"

namespace {

struct RecordId {
    std::string metric;
    std::string unit;
    std::vector<std::pair<std::string, std::string>> params;  // sorted by key

    bool operator==(const RecordId&) const = default;
    bool operator<(const RecordId& o) const {
        return std::tie(metric, unit, params) < std::tie(o.metric, o.unit, o.params);
    }

    [[nodiscard]] std::string to_string() const {
        std::string out = metric + " [" + unit + "]";
        if (!params.empty()) {
            out += " {";
            for (std::size_t i = 0; i < params.size(); ++i) {
                if (i > 0) out += ", ";
                out += params[i].first + "=" + params[i].second;
            }
            out += "}";
        }
        return out;
    }
};

struct Report {
    std::string bench;
    std::vector<RecordId> records;  // sorted
};

bool load_report(const char* path, Report& out) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "bench_check: cannot read %s\n", path);
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    hc::util::JsonReader reader(text);
    auto parsed = reader.parse();
    if (!parsed.ok()) {
        std::fprintf(stderr, "bench_check: %s: %s\n", path, parsed.error_message().c_str());
        return false;
    }
    const auto& root = parsed.value();
    const std::string schema = hc::util::json_str_or(root, "schema", "");
    if (schema != "hc-bench-json/1") {
        std::fprintf(stderr, "bench_check: %s: unsupported schema \"%s\"\n", path,
                     schema.c_str());
        return false;
    }
    out.bench = hc::util::json_str_or(root, "bench", "");
    if (const auto* host = root.find("host");
        host == nullptr || host->type != hc::util::JsonValue::Type::kObject) {
        std::fprintf(stderr, "bench_check: %s: missing \"host\" object\n", path);
        return false;
    }

    const auto* records = root.find("records");
    if (records == nullptr || records->type != hc::util::JsonValue::Type::kArray) {
        std::fprintf(stderr, "bench_check: %s: missing \"records\" array\n", path);
        return false;
    }
    for (const auto& rec : records->array) {
        RecordId id;
        id.metric = hc::util::json_str_or(rec, "metric", "");
        id.unit = hc::util::json_str_or(rec, "unit", "");
        if (id.metric.empty()) {
            std::fprintf(stderr, "bench_check: %s: record without a metric\n", path);
            return false;
        }
        if (const auto* params = rec.find("params");
            params != nullptr && params->type == hc::util::JsonValue::Type::kObject) {
            for (const auto& [key, value] : params->object)
                id.params.emplace_back(
                    key, value.type == hc::util::JsonValue::Type::kString ? value.string : "?");
            std::sort(id.params.begin(), id.params.end());
        }
        out.records.push_back(std::move(id));
    }
    std::sort(out.records.begin(), out.records.end());
    return true;
}

/// Records in `a` with no identity-equal record in `b` (multiset semantics).
std::vector<RecordId> missing_from(const std::vector<RecordId>& a,
                                   const std::vector<RecordId>& b) {
    std::vector<RecordId> out;
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc != 3) {
        std::fprintf(stderr, "usage: bench_check <baseline.json> <candidate.json>\n");
        return 2;
    }
    Report baseline;
    Report candidate;
    if (!load_report(argv[1], baseline) || !load_report(argv[2], candidate)) return 2;

    std::printf("bench_check: baseline  %s (bench %s, %zu record(s))\n", argv[1],
                baseline.bench.c_str(), baseline.records.size());
    std::printf("bench_check: candidate %s (bench %s, %zu record(s))\n", argv[2],
                candidate.bench.c_str(), candidate.records.size());

    bool drift = false;
    if (baseline.bench != candidate.bench) {
        std::printf("DRIFT: bench id changed: \"%s\" -> \"%s\"\n", baseline.bench.c_str(),
                    candidate.bench.c_str());
        drift = true;
    }
    for (const auto& id : missing_from(baseline.records, candidate.records)) {
        std::printf("DRIFT: missing from candidate: %s\n", id.to_string().c_str());
        drift = true;
    }
    for (const auto& id : missing_from(candidate.records, baseline.records)) {
        std::printf("DRIFT: not in baseline: %s\n", id.to_string().c_str());
        drift = true;
    }
    if (drift) {
        std::printf("bench_check: schema drift — update the committed baseline "
                    "alongside the bench change\n");
        return 1;
    }
    std::printf("bench_check: record sets match\n");
    return 0;
}
