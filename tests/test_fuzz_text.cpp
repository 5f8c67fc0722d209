// Seeded-mutation fuzzer for the streaming detector's stanza parsers.
//
// Node and job stanzas rendered by a live PbsServer (free, busy, offline and
// down nodes; running, queued and held jobs with every optional attribute)
// are mutated by byte flips, truncations (of the stanza or of one line),
// line drops, line duplications and inserted lines.
// PbsDetector::node_stanza_idle and PbsDetector::parse_job_stanza read each
// mutant in place; they must never crash (the nightly runs this binary under
// ASan/UBSan), and they must agree with the whole-string parsers that stay
// the oracle:
//  * node_stanza_idle(S) == (count_idle_nodes(S) > 0) on every mutant;
//  * on every job mutant with exactly one `Job Id:` line, the view's state,
//    first ids and CPUs (or the bad-nodes error) are parse_qstat_f(S)'s.
// With more than one header line the whole-string parser counts several
// jobs, which a one-stanza parser never sees, so those mutants only have to
// parse without crashing.
//
// The quick shard runs in tier-1; HC_FUZZ_SEEDS=<count> runs the long shard
// (`HC_FUZZ_SEEDS=500 ctest -L fuzz`).
#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/detector.hpp"
#include "pbs/resource_list.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace hc {
namespace {

using core::PbsDetector;

constexpr int kMutantsPerStanza = 60;

struct Corpus {
    std::vector<std::string> nodes;
    std::vector<std::string> jobs;
};

/// Stanzas from a small live server, covering every line the renderers emit.
Corpus render_corpus() {
    sim::Engine engine;
    engine.logger().set_min_level(util::LogLevel::kError);
    cluster::Cluster cluster(engine, [] {
        cluster::ClusterConfig cfg;
        cfg.node_count = 6;
        cfg.timing.jitter = 0;
        return cfg;
    }());
    pbs::PbsServer server(engine);
    for (auto* node : cluster.nodes()) {
        node->set_boot_resolver([](const cluster::Node& n) {
            cluster::BootDecision d;
            d.os = n.index() == 5 ? cluster::OsType::kWindows : cluster::OsType::kLinux;
            return d;
        });
        server.attach_node(*node);
        node->power_on();
    }
    engine.run_all();
    EXPECT_TRUE(server.set_node_offline(cluster.node(4).hostname(), true).ok());
    EXPECT_TRUE(server.set_node_properties(cluster.node(3).hostname(), {"all", "bigmem"}).ok());

    const auto submit = [&](int nodes, int ppn, const std::string& name) {
        auto script = pbs::JobScript::parse(
            "#!/bin/bash\n#PBS -N " + name + "\n#PBS -l nodes=" + std::to_string(nodes) +
            ":ppn=" + std::to_string(ppn) + ",walltime=02:00:00\n#PBS -j oe\n#PBS -o /home/u/" +
            name + ".out\n#PBS -r n\nsleep 100\n");
        EXPECT_TRUE(script.ok()) << script.error_message();
        pbs::JobBehavior behavior;
        behavior.run_time = sim::hours(1);
        auto id = server.submit(script.value(), "sliang@eridani.qgg.hud.ac.uk", std::move(behavior));
        EXPECT_TRUE(id.ok()) << id.error_message();
        return id.ok() ? id.value() : std::string();
    };
    (void)submit(1, 4, "running");
    (void)submit(1, 2, "partial");
    (void)submit(16, 4, "toolarge");  // queued behind nothing: never fits
    const std::string held = submit(2, 4, "held");
    EXPECT_TRUE(server.qhold(held).ok());
    engine.run_for(sim::minutes(1));

    Corpus corpus;
    server.pbsnodes_document().for_each_chunk(
        [&](std::uint64_t, const util::TextDocument::Chunk& c) { corpus.nodes.push_back(c.text); });
    server.qstat_f_document().for_each_chunk(
        [&](std::uint64_t, const util::TextDocument::Chunk& c) { corpus.jobs.push_back(c.text); });
    return corpus;
}

/// Line spans [begin, end) including the '\n', for line drops/duplications.
std::vector<std::pair<std::size_t, std::size_t>> line_spans(const std::string& s) {
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    std::size_t start = 0;
    while (start < s.size()) {
        const std::size_t nl = s.find('\n', start);
        const std::size_t end = nl == std::string::npos ? s.size() : nl + 1;
        spans.emplace_back(start, end);
        start = end;
    }
    return spans;
}

std::string mutate(const std::string& stanza, util::Rng& rng) {
    // Bytes the parsers branch on, then anything at all.
    static constexpr char kInteresting[] = "\n\r \t=:,+/.0149QREHJ";
    // Lines the parsers branch on: blank and whitespace-only lines, a header
    // with no id, bare state and jobs lines, a new block.
    static constexpr const char* kLines[] = {
        "\n", "\r\n", "\r", " \n", "\t\n", "Job Id:\n", "Job Id: \r\n",
        "    job_state = Q\n", "\tjob_state = R\n", "     state = free\n",
        "     jobs = 0/1.x\n", "enode99.x\n", "    Resource_List.nodes = 2:ppn=3\n"};
    std::string out = stanza;
    const int ops = static_cast<int>(rng.uniform_int(1, 4));
    for (int op = 0; op < ops && !out.empty(); ++op) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(out.size()) - 1));
        const auto spans = line_spans(out);
        const auto& line =
            spans[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(spans.size()) - 1))];
        switch (rng.uniform_int(0, 6)) {
            case 0:  // byte flip to a structural byte
                out[pos] = kInteresting[rng.uniform_int(0, sizeof kInteresting - 2)];
                break;
            case 1:  // byte flip to any byte
                out[pos] = static_cast<char>(rng.uniform_int(0, 255));
                break;
            case 2:  // truncate the stanza
                out.resize(pos);
                break;
            case 3: {  // truncate one line, keeping its newline
                const std::size_t end = out[line.second - 1] == '\n' ? line.second - 1 : line.second;
                const auto cut = static_cast<std::size_t>(rng.uniform_int(
                    static_cast<std::int64_t>(line.first), static_cast<std::int64_t>(end)));
                out.erase(cut, end - cut);
                break;
            }
            case 4:  // drop a line
                out.erase(line.first, line.second - line.first);
                break;
            case 5:  // duplicate a line
                out.insert(line.second, out.substr(line.first, line.second - line.first));
                break;
            default:  // insert a structural line
                out.insert(line.first, kLines[rng.uniform_int(0, std::size(kLines) - 1)]);
                break;
        }
    }
    return out;
}

int header_lines(const std::string& stanza) {
    int n = 0;
    for (const std::string& raw : util::split_lines(stanza))
        if (util::trim(raw).starts_with("Job Id:")) ++n;
    return n;
}

void check_node_mutant(const std::string& m) {
    EXPECT_EQ(PbsDetector::node_stanza_idle(m), PbsDetector::count_idle_nodes(m) > 0)
        << "node stanza mutant:\n" << m;
}

/// Returns true when the mutant had one header line and was compared.
bool check_job_mutant(const std::string& m) {
    const PbsDetector::JobStanzaView view = PbsDetector::parse_job_stanza(m);
    if (header_lines(m) != 1) return false;
    const auto oracle = PbsDetector::parse_qstat_f(m);
    if (view.queued()) {
        // The streaming path parses the first queued job's nodes the same way.
        const auto rl = pbs::ResourceList::parse("nodes=" + std::string(view.nodes_spec));
        if (!rl) {
            EXPECT_FALSE(oracle.ok()) << "job stanza mutant:\n" << m;
            if (!oracle.ok()) {
                EXPECT_EQ(oracle.error_message(), "bad Resource_List.nodes for " +
                                                      std::string(view.id) + ": " +
                                                      rl.error_message());
            }
            return true;
        }
        EXPECT_TRUE(oracle.ok()) << oracle.error_message() << "\njob stanza mutant:\n" << m;
        if (!oracle.ok()) return true;
        EXPECT_EQ(oracle.value().queued, 1) << m;
        EXPECT_EQ(oracle.value().running, 0) << m;
        EXPECT_EQ(oracle.value().first_queued_id, view.id) << m;
        EXPECT_EQ(oracle.value().first_queued_cpus, rl.value().total_cpus()) << m;
        return true;
    }
    EXPECT_TRUE(oracle.ok()) << oracle.error_message() << "\njob stanza mutant:\n" << m;
    if (!oracle.ok()) return true;
    EXPECT_EQ(oracle.value().queued, 0) << m;
    EXPECT_EQ(oracle.value().running, view.running() ? 1 : 0) << m;
    if (view.running()) {
        EXPECT_EQ(oracle.value().first_running_id, view.id) << m;
        EXPECT_EQ(oracle.value().first_running_name, view.name) << m;
        EXPECT_EQ(oracle.value().first_running_owner, view.owner) << m;
    }
    return true;
}

struct ShardCounts {
    int node_mutants = 0;
    int job_mutants = 0;
    int job_compared = 0;
};

ShardCounts run_shard(const Corpus& corpus, std::uint64_t first_seed, std::uint64_t seeds) {
    ShardCounts counts;
    for (std::uint64_t seed = first_seed; seed < first_seed + seeds; ++seed) {
        util::Rng rng(seed);
        for (const std::string& stanza : corpus.nodes) {
            for (int i = 0; i < kMutantsPerStanza; ++i) {
                check_node_mutant(mutate(stanza, rng));
                ++counts.node_mutants;
            }
        }
        for (const std::string& stanza : corpus.jobs) {
            for (int i = 0; i < kMutantsPerStanza; ++i) {
                if (check_job_mutant(mutate(stanza, rng))) ++counts.job_compared;
                ++counts.job_mutants;
            }
        }
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "first failing seed: " << seed;
            break;
        }
    }
    return counts;
}

TEST(TextParserFuzz, CorpusCoversEveryStanzaShape) {
    const Corpus corpus = render_corpus();
    ASSERT_EQ(corpus.nodes.size(), 6u);
    ASSERT_EQ(corpus.jobs.size(), 4u);
    int idle = 0;
    for (const auto& s : corpus.nodes) idle += PbsDetector::node_stanza_idle(s) ? 1 : 0;
    EXPECT_EQ(idle, 2);  // nodes 2 and 3; 0-1 run jobs, 4 is offline, 5 runs Windows
    int queued = 0, running = 0;
    for (const auto& s : corpus.jobs) {
        const auto v = PbsDetector::parse_job_stanza(s);
        queued += v.queued() ? 1 : 0;
        running += v.running() ? 1 : 0;
    }
    EXPECT_EQ(running, 2);
    EXPECT_EQ(queued, 1);  // the held job is neither
}

TEST(TextParserFuzz, QuickShard) {
    const Corpus corpus = render_corpus();
    const ShardCounts counts = run_shard(corpus, /*first_seed=*/1, /*seeds=*/40);
    EXPECT_EQ(counts.node_mutants, 40 * 6 * kMutantsPerStanza);
    // Most job mutants keep their single header line and are compared.
    EXPECT_GT(counts.job_compared, counts.job_mutants / 2);
}

// The long shard: HC_FUZZ_SEEDS=500 ctest -L fuzz  (nightly, sanitized).
TEST(TextParserFuzz, LongShard) {
    const char* env = std::getenv("HC_FUZZ_SEEDS");
    if (env == nullptr) GTEST_SKIP() << "set HC_FUZZ_SEEDS=<count> to run the long shard";
    const auto seeds = std::strtoull(env, nullptr, 10);
    ASSERT_GT(seeds, 0u) << "HC_FUZZ_SEEDS must be a positive integer";
    (void)run_shard(render_corpus(), /*first_seed=*/1000, seeds);
}

}  // namespace
}  // namespace hc
