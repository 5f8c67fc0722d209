// Seeded oracle for cluster::NodeTable, the node bookkeeping both scheduler
// heads share.
//
// Each seed drives random steps against a table and a brute-force model:
//  * attach of a fresh node whose FQDN and short name come from a small pool
//    (so some collide with names already indexed), of a node that is
//    already attached, and of nodes with 1 to 6 CPUs;
//  * take of up to n CPUs for a random owner, lowest or highest first;
//  * release of up to `limit` of an owner's CPUs;
//  * set_counted on or off;
//  * save, and a restore of the last save, which must throw and change
//    nothing when a node was attached since (a snapshot restores only into
//    the world that took it).
// The model holds each record's owner list, its counted flag and the names
// indexed. After every step the table must agree with it: the owners of
// every record, free counts, each fit level's members walked in ascending
// order, the idle set and idle_records(), the free total, the total CPUs,
// name lookups of every indexed name and of names never indexed, and the
// table's own verify(). A refused attach or restore must throw and change nothing.
//
// The quick shard runs in tier-1; HC_FUZZ_SEEDS=<count> runs the long shard
// (`HC_FUZZ_SEEDS=500 ctest -L fuzz`).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/node_table.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace hc::cluster {
namespace {

constexpr int kStepsPerSeed = 400;
constexpr int kMaxNp = 6;

struct Rec : NodeSlot {};
using Table = NodeTable<Rec>;

struct ModelRecord {
    std::vector<std::uint64_t> owners;
    bool counted = false;
    [[nodiscard]] int np() const { return static_cast<int>(owners.size()); }
    [[nodiscard]] int free() const {
        return static_cast<int>(std::count(owners.begin(), owners.end(), std::uint64_t{0}));
    }
};

struct Model {
    std::vector<ModelRecord> records;
    std::vector<std::string> names;  ///< every indexed FQDN and short name, index = record
    std::vector<std::size_t> name_record;
};

struct ShardCounts {
    std::uint64_t attached = 0;
    std::uint64_t refused = 0;
    std::uint64_t taken = 0;
    std::uint64_t released = 0;
    std::uint64_t restores = 0;
};

/// Check every observable of `table` against `model`.
void expect_matches(const Table& table, const Model& model, std::uint64_t seed, int step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " + std::to_string(step));
    ASSERT_EQ(table.size(), model.records.size());
    int total = 0;
    int free_total = 0;
    for (std::size_t i = 0; i < model.records.size(); ++i) {
        const ModelRecord& m = model.records[i];
        const Rec& rec = table[i];
        const auto owners = table.owners(rec);
        ASSERT_TRUE(std::equal(owners.begin(), owners.end(), m.owners.begin(), m.owners.end()))
            << "record " << i;
        ASSERT_EQ(rec.free_cpus(), m.free()) << "record " << i;
        ASSERT_EQ(rec.used_cpus(), m.np() - m.free()) << "record " << i;
        ASSERT_EQ(rec.counted, m.counted) << "record " << i;
        total += m.np();
        if (m.counted) free_total += m.free();
    }
    ASSERT_EQ(table.total_cpus(), total);
    ASSERT_EQ(table.free_cpus(), free_total);
    // Every fit level (and one past the widest node) walks exactly the model's
    // members in ascending order.
    for (int p = 1; p <= kMaxNp + 1; ++p) {
        std::vector<std::size_t> want;
        for (std::size_t i = 0; i < model.records.size(); ++i)
            if (model.records[i].counted && model.records[i].free() >= p) want.push_back(i);
        std::vector<std::size_t> got;
        const util::IndexBitset& fit = table.fit(p);
        for (std::size_t i = fit.next(0); i != util::IndexBitset::npos; i = fit.next(i + 1))
            got.push_back(i);
        ASSERT_EQ(got, want) << "fit level " << p;
        ASSERT_EQ(fit.count(), want.size()) << "fit level " << p;
    }
    std::vector<const Rec*> idle;
    for (std::size_t i = 0; i < model.records.size(); ++i)
        if (model.records[i].counted && model.records[i].free() == model.records[i].np())
            idle.push_back(&table[i]);
    ASSERT_EQ(table.idle_records(), idle);
    ASSERT_EQ(table.idle().count(), idle.size());
    for (std::size_t n = 0; n < model.names.size(); ++n)
        ASSERT_EQ(table.find(model.names[n]), model.name_record[n]) << model.names[n];
    for (const char* never : {"", "x9", "n1.zz", "n1.a.b", "."})
        ASSERT_EQ(table.find(never), Table::npos) << never;
    ASSERT_NO_THROW(table.verify([&](const Rec& rec) {
        return model.records[static_cast<std::size_t>(&rec - table.records().data())].counted;
    }));
}

void run_seed(std::uint64_t seed, ShardCounts& counts) {
    util::Rng rng(seed);
    sim::Engine engine;
    std::vector<std::unique_ptr<Node>> nodes;  // stable addresses: the table views hostnames
    Table table;
    Model model;
    std::optional<Table::Saved> saved;
    Model saved_model;

    const auto has_name = [&](const std::string& name) {
        return std::find(model.names.begin(), model.names.end(), name) != model.names.end();
    };
    const auto attach_new = [&] {
        // Names from a small pool: "n<k>", "n<k>.a" or "n<k>.b", so short
        // names and FQDNs collide now and then.
        const int k = static_cast<int>(rng.uniform_int(0, 11));
        const char* const suffixes[] = {"", ".a", ".b"};
        NodeConfig cfg;
        cfg.index = static_cast<int>(nodes.size());
        cfg.hostname = "n" + std::to_string(k) + suffixes[rng.uniform_int(0, 2)];
        cfg.np = static_cast<int>(rng.uniform_int(1, kMaxNp));
        nodes.push_back(std::make_unique<Node>(engine, cfg, util::Rng(seed).fork("node")));
        Node& node = *nodes.back();
        const std::string fqdn = node.hostname();
        const std::string short_name = fqdn.substr(0, fqdn.find('.'));
        const bool accept = !has_name(fqdn) && !has_name(short_name);
        if (!accept) {
            EXPECT_THROW((void)table.attach(node, {}), util::PreconditionError) << fqdn;
            ++counts.refused;
            return;
        }
        const std::size_t idx = table.attach(node, {});
        ASSERT_EQ(idx, model.records.size());
        model.records.push_back({std::vector<std::uint64_t>(static_cast<std::size_t>(cfg.np), 0),
                                 false});
        model.names.push_back(fqdn);
        model.name_record.push_back(idx);
        if (short_name != fqdn) {
            model.names.push_back(short_name);
            model.name_record.push_back(idx);
        }
        ++counts.attached;
    };

    for (int i = 0; i < 3; ++i) attach_new();
    for (int step = 0; step < kStepsPerSeed; ++step) {
        const auto action = rng.uniform_int(0, 99);
        const std::size_t size = model.records.size();
        const std::size_t i =
            size == 0 ? 0
                      : static_cast<std::size_t>(
                            rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
        if (action < 8 || size == 0) {
            attach_new();
        } else if (action < 10) {
            // The same node again, by its own object.
            EXPECT_THROW((void)table.attach(*table[i].node, {}), util::PreconditionError);
            ++counts.refused;
        } else if (action < 40) {
            const std::uint64_t owner = static_cast<std::uint64_t>(rng.uniform_int(1, 9));
            const int n = static_cast<int>(rng.uniform_int(0, kMaxNp + 1));
            const bool high = rng.chance(0.5);
            ModelRecord& m = model.records[i];
            int want = 0;
            for (int k = 0; k < m.np() && want < n; ++k) {
                const int cpu = high ? m.np() - 1 - k : k;
                if (m.owners[static_cast<std::size_t>(cpu)] != 0) continue;
                m.owners[static_cast<std::size_t>(cpu)] = owner;
                ++want;
            }
            const int got =
                table.take(i, owner, n, high ? CpuOrder::kHighFirst : CpuOrder::kLowFirst);
            ASSERT_EQ(got, want);
            counts.taken += static_cast<std::uint64_t>(got);
        } else if (action < 70) {
            // Mostly an owner that holds CPUs here, sometimes one that does not.
            ModelRecord& m = model.records[i];
            std::uint64_t owner = static_cast<std::uint64_t>(rng.uniform_int(1, 9));
            if (m.np() > 0 && rng.chance(0.8)) {
                const std::uint64_t at =
                    m.owners[static_cast<std::size_t>(rng.uniform_int(0, m.np() - 1))];
                if (at != 0) owner = at;
            }
            const int limit = static_cast<int>(rng.uniform_int(0, kMaxNp + 1));
            int want = 0;
            for (int cpu = m.np() - 1; cpu >= 0 && want < limit; --cpu) {
                if (m.owners[static_cast<std::size_t>(cpu)] != owner) continue;
                m.owners[static_cast<std::size_t>(cpu)] = 0;
                ++want;
            }
            const int got = table.release(i, owner, limit);
            ASSERT_EQ(got, want);
            counts.released += static_cast<std::uint64_t>(got);
        } else if (action < 88) {
            const bool counted = rng.chance(0.6);
            table.set_counted(i, counted);
            model.records[i].counted = counted;
        } else if (action < 94) {
            saved = table.save();
            saved_model = model;
        } else if (saved.has_value() && saved_model.records.size() != size) {
            EXPECT_THROW(table.restore(*saved), util::PreconditionError);
            ++counts.refused;
        } else if (saved.has_value()) {
            table.restore(*saved);
            model = saved_model;
            ++counts.restores;
        }
        ASSERT_NO_FATAL_FAILURE(expect_matches(table, model, seed, step));
    }
}

ShardCounts run_shard(std::uint64_t first_seed, std::uint64_t seeds) {
    ShardCounts counts;
    for (std::uint64_t seed = first_seed; seed < first_seed + seeds; ++seed) {
        run_seed(seed, counts);
        if (::testing::Test::HasFailure()) break;
    }
    return counts;
}

TEST(NodeTableFuzz, QuickShard) {
    const ShardCounts counts = run_shard(/*first_seed=*/1, /*seeds=*/40);
    // The shard reached every kind of step, refusals and restores included.
    EXPECT_GT(counts.attached, 200u);
    EXPECT_GT(counts.refused, 600u);
    EXPECT_GT(counts.taken, 2'500u);
    EXPECT_GT(counts.released, 2'000u);
    EXPECT_GT(counts.restores, 300u);
}

// The long shard: HC_FUZZ_SEEDS=500 ctest -L fuzz  (nightly, sanitized).
TEST(NodeTableFuzz, LongShard) {
    const char* env = std::getenv("HC_FUZZ_SEEDS");
    if (env == nullptr) GTEST_SKIP() << "set HC_FUZZ_SEEDS=<count> to run the long shard";
    const auto seeds = std::strtoull(env, nullptr, 10);
    ASSERT_GT(seeds, 0u) << "HC_FUZZ_SEEDS must be a positive integer";
    (void)run_shard(/*first_seed=*/1000, seeds);
}

}  // namespace
}  // namespace hc::cluster
