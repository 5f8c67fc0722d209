// Seeded-mutation fuzzer for the hc-*/1 document loaders.
//
// Every committed spec and fault plan is mutated by byte flips, truncations
// and number swaps (-1, 0, 1e300, a string where a number belongs) and fed
// to all five loaders. Each loader must return either a value that meets
// its own validation or a typed error; none may throw. The seed count is
// fixed, so the shard is quick enough for tier-1 and carries the `fuzz`
// label beside the invariant fuzzer.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "fault/plan.hpp"
#include "grid/spec.hpp"
#include "serve/spec.hpp"
#include "sweep/spec.hpp"
#include "util/rng.hpp"

namespace hc {
namespace {

constexpr int kMutationsPerDocument = 400;

std::string read_source(const std::string& rel) {
    std::ifstream in(std::string(HC_SOURCE_DIR) + "/" + rel);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/// Offsets where a JSON number starts (a digit or '-' outside a string).
std::vector<std::size_t> number_starts(const std::string& text) {
    std::vector<std::size_t> starts;
    bool in_string = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
            if (c == '\\') ++i;
            else if (c == '"') in_string = false;
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '-') {
            const char prev = i == 0 ? ' ' : text[i - 1];
            if (std::isdigit(static_cast<unsigned char>(prev)) == 0 && prev != '.' &&
                prev != 'e' && prev != 'E' && prev != '-')
                starts.push_back(i);
        }
    }
    return starts;
}

std::string mutate(const std::string& doc, util::Rng& rng) {
    std::string out = doc;
    const int edits = static_cast<int>(rng.uniform_int(1, 3));
    for (int e = 0; e < edits && !out.empty(); ++e) {
        const auto pick = [&](std::size_t n) {
            return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        };
        switch (rng.uniform_int(0, 2)) {
            case 0:  // byte flip
                out[pick(out.size())] = static_cast<char>(rng.uniform_int(0, 255));
                break;
            case 1:  // truncation
                out.resize(pick(out.size()));
                break;
            default: {  // number swap
                const std::vector<std::size_t> starts = number_starts(out);
                if (starts.empty()) break;
                const std::size_t at = starts[pick(starts.size())];
                std::size_t end = at + 1;
                while (end < out.size() &&
                       (std::isdigit(static_cast<unsigned char>(out[end])) != 0 ||
                        out[end] == '.' || out[end] == 'e' || out[end] == 'E' ||
                        out[end] == '+' || out[end] == '-'))
                    ++end;
                static const char* const kSwaps[] = {"-1", "0", "1e300", "\"7\""};
                out.replace(at, end - at, kSwaps[pick(4)]);
                break;
            }
        }
    }
    return out;
}

/// Feed one document to every loader; an ok() result must satisfy the
/// checks its consumer relies on.
void load_everywhere(const std::string& text) {
    EXPECT_NO_THROW({
        auto plan = fault::parse_fault_plan(text);
        if (plan.ok()) {
            for (const fault::FaultEvent& ev : plan.value().events) {
                EXPECT_GE(ev.at.ms, 0);
                EXPECT_GE(ev.node, -1);
            }
        }
    }) << text;
    EXPECT_NO_THROW({
        auto cloud = core::parse_cloud_spec(text);
        if (cloud.ok()) {
            EXPECT_GE(cloud.value().cloud.max_burst, 1);
            EXPECT_GT(cloud.value().cloud.sweep_interval.ms, 0);
            EXPECT_LT(cloud.value().cloud.provision_jitter, 1);
        }
    }) << text;
    EXPECT_NO_THROW({
        auto sweep = sweep::parse_sweep_spec(text, "specs");
        if (sweep.ok()) {
            const core::ScenarioConfig& base = sweep.value().base;
            EXPECT_GE(base.node_count, 1);
            EXPECT_GE(base.linux_nodes, 0);
            EXPECT_LE(base.linux_nodes, base.node_count);
            EXPECT_GT(base.poll_interval.ms, 0);
            EXPECT_GT(base.horizon.ms, 0);
            EXPECT_GE(sweep.value().seed_count, 1u);
            EXPECT_GE(sweep.value().workload.config.max_nodes, 1);
        }
    }) << text;
    EXPECT_NO_THROW({
        auto grid = grid::parse_grid_spec(text);
        if (grid.ok()) {
            EXPECT_GT(grid.value().config.epoch.ms, 0);
            EXPECT_FALSE(grid.value().members.empty());
            for (const grid::MemberSpec& m : grid.value().members) {
                EXPECT_FALSE(m.name.empty());
                EXPECT_GE(m.nodes, 1);
                EXPECT_GE(m.cores_per_node, 1);
            }
        }
    }) << text;
    EXPECT_NO_THROW({
        auto serve = serve::parse_serve_spec(text);
        if (serve.ok()) {
            EXPECT_GE(serve.value().clients, 1);
            EXPECT_GE(serve.value().nodes, 1);
            EXPECT_GT(sim::seconds(serve.value().cycle_seconds).ms, 0);
            EXPECT_GT(sim::minutes(serve.value().poll_minutes).ms, 0);
        }
    }) << text;
}

TEST(SpecLoaderFuzz, MutatedDocumentsGiveAValidSpecOrATypedError) {
    const char* const kDocuments[] = {
        "examples/grid_spec.json",          "examples/cloud_spec.json",
        "examples/sweep_fork_spec.json",    "examples/serve_spec.json",
        "tools/testdata/sweep_spec.json",   "tools/testdata/serve_spec_smoke.json",
        "tools/testdata/faults_sample.json"};
    for (const char* path : kDocuments) {
        const std::string doc = read_source(path);
        ASSERT_FALSE(doc.empty()) << path;
        util::Rng rng = util::Rng(2026).fork(path);
        for (int i = 0; i < kMutationsPerDocument; ++i) {
            load_everywhere(mutate(doc, rng));
            if (HasFailure()) FAIL() << path << " mutation " << i;
        }
    }
}

}  // namespace
}  // namespace hc
