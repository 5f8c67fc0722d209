// Property-style suites (parameterised gtest): invariants that must hold
// across generated inputs — config round-trips, scheduler conservation laws,
// wire-format totality, and cross-version end-state equivalence.
#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "boot/boot_control.hpp"
#include "boot/disk_layouts.hpp"
#include "boot/grub_config.hpp"
#include "boot/local_boot.hpp"
#include "cluster/cluster.hpp"
#include "core/detector.hpp"
#include "deploy/reimage.hpp"
#include "core/hybrid.hpp"
#include "core/queue_state.hpp"
#include "pbs/server.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "winhpc/scheduler.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace hc {
namespace {

using cluster::OsType;

// ---------- GRUB config round-trip over generated configs ----------

boot::GrubConfig random_grub_config(util::Rng& rng) {
    boot::GrubConfig cfg;
    cfg.default_index = static_cast<int>(rng.uniform_int(0, 3));
    if (rng.chance(0.8)) cfg.timeout = static_cast<int>(rng.uniform_int(0, 60));
    if (rng.chance(0.5)) cfg.splashimage = "(hd0,1)/grub/splash.xpm.gz";
    cfg.hiddenmenu = rng.chance(0.3);
    cfg.default_uses_equals = rng.chance(0.5);
    const int entries = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < entries; ++i) {
        boot::GrubEntry e;
        const int kind = static_cast<int>(rng.uniform_int(0, 2));
        if (kind == 0) {
            e.title = "linux-entry-" + std::to_string(i) + "-linux";
            e.root = boot::GrubDevice{0, static_cast<int>(rng.uniform_int(0, 6))};
            e.kernel_path = "/vmlinuz-2.6.18";
            e.kernel_args = "ro root=/dev/sda7";
            if (rng.chance(0.7)) e.initrd_path = "/initrd.gz";
        } else if (kind == 1) {
            e.title = "win-entry-" + std::to_string(i) + "-windows";
            e.root = boot::GrubDevice{0, 0};
            e.root_noverify = true;
            e.chainloader = true;
        } else {
            e.title = "redirect-" + std::to_string(i);
            e.root = boot::GrubDevice{0, 5};
            e.configfile = "/controlmenu.lst";
        }
        cfg.entries.push_back(std::move(e));
    }
    return cfg;
}

class GrubRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GrubRoundTrip, EmitParseEmitIsFixpoint) {
    util::Rng rng(GetParam());
    for (int i = 0; i < 20; ++i) {
        const boot::GrubConfig cfg = random_grub_config(rng);
        const std::string once = cfg.emit();
        const auto parsed = boot::GrubConfig::parse(once);
        ASSERT_TRUE(parsed.ok()) << parsed.error_message() << "\n" << once;
        EXPECT_EQ(parsed.value().emit(), once);
        EXPECT_EQ(parsed.value().entries.size(), cfg.entries.size());
        EXPECT_EQ(parsed.value().default_index, cfg.default_index);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrubRoundTrip, ::testing::Values(1, 2, 3, 7, 42, 99, 123, 999));

// ---------- queue-state wire format totality ----------

class WireRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(WireRoundTrip, EncodeDecodeIdentity) {
    util::Rng rng(static_cast<std::uint64_t>(GetParam()));
    for (int i = 0; i < 50; ++i) {
        core::QueueStateRecord rec;
        rec.stuck = rng.chance(0.5);
        rec.needed_cpus = static_cast<int>(rng.uniform_int(0, 9999));
        if (rec.stuck)
            rec.stuck_job_id =
                std::to_string(rng.uniform_int(1, 99999)) + ".eridani.qgg.hud.ac.uk";
        const auto back = core::QueueStateRecord::decode(rec.encode());
        ASSERT_TRUE(back.ok()) << back.error_message();
        EXPECT_EQ(back.value(), rec);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTrip, ::testing::Range(1, 9));

// ---------- trace serialisation round-trip over random traces ----------

class TraceRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceRoundTrip, SerialiseParseIsFixpoint) {
    workload::GeneratorConfig cfg;
    cfg.arrival.rate_per_hour = 30;
    cfg.horizon = sim::hours(4);
    workload::WorkloadGenerator gen(workload::AppCatalog::huddersfield(), cfg, GetParam());
    const auto trace = gen.generate();
    const std::string text = workload::serialize_trace(trace);
    const auto back = workload::parse_trace(text);
    ASSERT_TRUE(back.ok()) << back.error_message();
    EXPECT_EQ(workload::serialize_trace(back.value()), text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceRoundTrip,
                         ::testing::Values(1u, 17u, 23u, 99u, 1234u, 65537u));

// ---------- PBS conservation laws under random operation sequences ----------

class PbsInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PbsInvariants, NoCoreDoubleBookingEver) {
    sim::Engine engine;
    cluster::ClusterConfig ccfg;
    ccfg.node_count = 6;
    ccfg.timing.jitter = 0;
    cluster::Cluster cluster(engine, ccfg);
    pbs::PbsServer server(engine);
    for (auto* node : cluster.nodes()) {
        node->set_boot_resolver([](const cluster::Node&) {
            cluster::BootDecision d;
            d.os = OsType::kLinux;
            return d;
        });
        server.attach_node(*node);
        node->power_on();
    }
    engine.run_all();

    util::Rng rng(GetParam());
    std::vector<std::string> ids;
    auto check_invariants = [&] {
        // 1. Every cpu slot owned by at most one job (by construction of the
        //    vector) and every owner is a *running* job.
        // 2. A running job's allocation exactly matches its request.
        int used = 0;
        for (const auto& rec : server.node_records()) {
            for (const std::uint64_t owner : rec.cpu_owner) {
                if (owner == 0) continue;
                ++used;
                // Slots hold the owner's seq; the server issues "<seq>.<server>".
                const pbs::Job* job =
                    server.find_job(std::to_string(owner) + "." + server.server_name());
                ASSERT_NE(job, nullptr);
                EXPECT_EQ(job->state, pbs::JobState::kRunning);
            }
        }
        int expected = 0;
        for (const pbs::Job* job : server.running_jobs())
            expected += job->resources.total_cpus();
        EXPECT_EQ(used, expected);
    };

    for (int step = 0; step < 120; ++step) {
        const int action = static_cast<int>(rng.uniform_int(0, 9));
        if (action <= 4) {
            pbs::JobScript script;
            script.resources.nodes = static_cast<int>(rng.uniform_int(1, 3));
            script.resources.ppn = static_cast<int>(rng.uniform_int(1, 4));
            pbs::JobBehavior behavior;
            behavior.run_time = sim::seconds(rng.uniform(30, 4000));
            auto id = server.submit(script, "u", std::move(behavior));
            ASSERT_TRUE(id.ok());
            ids.push_back(id.value());
        } else if (action <= 6 && !ids.empty()) {
            const auto& victim = ids[rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1)];
            (void)server.qdel(victim);  // may fail if already completed; fine
        } else if (action == 7) {
            auto& node = cluster.node(static_cast<int>(rng.uniform_int(0, 5)));
            if (node.is_up()) node.reboot();
        } else {
            engine.run_for(sim::seconds(rng.uniform(10, 600)));
        }
        check_invariants();
    }
    engine.run_all();
    check_invariants();
    // Terminal accounting: every submitted job is eventually terminal.
    for (const auto& id : ids) {
        const pbs::Job* job = server.find_job(id);
        ASSERT_NE(job, nullptr);
        EXPECT_TRUE(job->state == pbs::JobState::kCompleted ||
                    job->state == pbs::JobState::kQueued)  // queued if cluster ended busy
            << static_cast<int>(job->state);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PbsInvariants, ::testing::Values(11u, 29u, 47u, 83u, 131u));

// ---------- WinHPC conservation laws under random operation sequences ----------

class WinHpcInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WinHpcInvariants, NoCoreDoubleBookingEver) {
    sim::Engine engine;
    cluster::ClusterConfig ccfg;
    ccfg.node_count = 6;
    ccfg.timing.jitter = 0;
    cluster::Cluster cluster(engine, ccfg);
    winhpc::HpcScheduler scheduler(engine);
    for (auto* node : cluster.nodes()) {
        node->set_boot_resolver([](const cluster::Node&) {
            cluster::BootDecision d;
            d.os = OsType::kWindows;
            return d;
        });
        scheduler.attach_node(*node);
        node->power_on();
    }
    engine.run_all();

    util::Rng rng(GetParam());
    std::vector<int> ids;
    auto check_invariants = [&] {
        int used = 0;
        for (const auto& rec : scheduler.node_records()) {
            for (int owner : rec.core_owner) {
                if (owner == 0) continue;
                ++used;
                const winhpc::HpcJob* job = scheduler.get_job(owner);
                ASSERT_NE(job, nullptr);
                EXPECT_EQ(job->state, winhpc::HpcJobState::kRunning);
            }
        }
        int expected = 0;
        for (const winhpc::HpcJob* job : scheduler.get_jobs(winhpc::HpcJobState::kRunning))
            expected += job->unit == winhpc::JobUnitType::kNode
                            ? job->min_resources * 4
                            : job->min_resources;
        EXPECT_EQ(used, expected);
    };

    for (int step = 0; step < 120; ++step) {
        const int action = static_cast<int>(rng.uniform_int(0, 9));
        if (action <= 4) {
            winhpc::HpcJobSpec spec;
            spec.unit = rng.chance(0.6) ? winhpc::JobUnitType::kNode
                                        : winhpc::JobUnitType::kCore;
            spec.min_resources = static_cast<int>(
                rng.uniform_int(1, spec.unit == winhpc::JobUnitType::kNode ? 3 : 8));
            spec.run_time = sim::seconds(rng.uniform(30, 4000));
            spec.rerun_on_failure = rng.chance(0.5);
            ids.push_back(scheduler.submit_job(std::move(spec)));
        } else if (action <= 6 && !ids.empty()) {
            (void)scheduler.cancel_job(
                ids[rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1)]);
        } else if (action == 7) {
            auto& node = cluster.node(static_cast<int>(rng.uniform_int(0, 5)));
            if (node.is_up()) node.reboot();
        } else {
            engine.run_for(sim::seconds(rng.uniform(10, 600)));
        }
        check_invariants();
    }
    engine.run_all();
    check_invariants();
    for (int id : ids) {
        const winhpc::HpcJob* job = scheduler.get_job(id);
        ASSERT_NE(job, nullptr);
        EXPECT_NE(job->state, winhpc::HpcJobState::kRunning);  // nothing left running
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WinHpcInvariants, ::testing::Values(7u, 19u, 37u, 53u));

// ---------- detector fuzz: mutated qstat text never crashes the scraper ----------

class DetectorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DetectorFuzz, MutatedQstatTextIsHandledGracefully) {
    const std::string base_text =
        "Job Id: 1185.eridani.qgg.hud.ac.uk\n"
        "    Job_Name = sleep\n"
        "    Job_Owner = sliang@eridani.qgg.hud.ac.uk\n"
        "    job_state = R\n"
        "    queue = default\n"
        "    Resource_List.nodes = 1:ppn=4\n"
        "\n"
        "Job Id: 1186.eridani.qgg.hud.ac.uk\n"
        "    job_state = Q\n"
        "    Resource_List.nodes = 2:ppn=4\n";
    util::Rng rng(GetParam());
    for (int round = 0; round < 60; ++round) {
        std::string text = base_text;
        // Apply 1-5 random mutations: byte flips, truncation, duplication,
        // line deletion, random insertion.
        const int mutations = static_cast<int>(rng.uniform_int(1, 5));
        for (int m = 0; m < mutations && !text.empty(); ++m) {
            switch (rng.uniform_int(0, 4)) {
                case 0: {  // flip a byte
                    const auto pos = static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
                    text[pos] = static_cast<char>(rng.uniform_int(32, 126));
                    break;
                }
                case 1:  // truncate
                    text.resize(static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<std::int64_t>(text.size()))));
                    break;
                case 2:  // duplicate the whole listing
                    text += text;
                    break;
                case 3: {  // delete a line
                    auto lines = util::split_lines(text);
                    if (!lines.empty()) {
                        lines.erase(lines.begin() +
                                    rng.uniform_int(0, static_cast<std::int64_t>(lines.size()) - 1));
                        text = util::join(lines, "\n");
                    }
                    break;
                }
                default:  // random insertion
                    text.insert(static_cast<std::size_t>(rng.uniform_int(
                                    0, static_cast<std::int64_t>(text.size()))),
                                "garbage = ???");
                    break;
            }
        }
        // The scraper either parses or errors; it must never throw, and the
        // detector built on top must fail safe (not-stuck on scrape error).
        core::PbsDetector detector([&text] { return text; }, [] { return std::string(); },
                                   [] { return std::int64_t{0}; });
        const core::QueueSnapshot snap = detector.check();
        if (snap.debug_text.rfind("parse error", 0) == 0) {
            EXPECT_FALSE(snap.record.stuck);
        }
        // Wire encoding of whatever came out must itself round-trip.
        const auto decoded = core::QueueStateRecord::decode(snap.record.encode());
        ASSERT_TRUE(decoded.ok()) << decoded.error_message();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorFuzz, ::testing::Values(101u, 202u, 303u, 404u));

// ---------- v1 switch mechanism: control file always selects requested OS ----------

class BatchSwitchProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchSwitchProperty, AnySwitchSequenceEndsWhereItSaysItDoes) {
    util::Rng rng(GetParam());
    cluster::Disk disk = boot::make_v1_dualboot_disk();
    auto& fat = disk.find(boot::kV1FatPartition)->files;
    OsType expected = OsType::kLinux;
    for (int i = 0; i < 40; ++i) {
        const OsType target = rng.chance(0.5) ? OsType::kLinux : OsType::kWindows;
        const bool use_carter = rng.chance(0.3);
        if (use_carter) {
            ASSERT_TRUE(boot::bootcontrol_pl(fat, boot::kControlMenuPath, target).ok());
        } else {
            ASSERT_TRUE(boot::batch_switch(fat, target).ok());
        }
        expected = target;
        EXPECT_EQ(boot::read_control_default(fat).value(), expected);
        EXPECT_EQ(boot::resolve_local_boot(disk).os, expected);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchSwitchProperty,
                         ::testing::Values(std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
                                           std::uint64_t{4}, std::uint64_t{5}, std::uint64_t{6}));

// ---------- v2 deployment: no operation sequence corrupts the other OS ----------

class DeploySequence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeploySequence, RandomV2OpsNeverCrossCorrupt) {
    sim::Engine engine;
    cluster::NodeConfig ncfg;
    ncfg.hostname = "enode01.test";
    cluster::Node node(engine, ncfg, util::Rng(1));
    deploy::Deployer deployer(deploy::MiddlewareVersion::kV2);
    // Bring both OSes up first (the one-time bootstrap order: Linux reserves
    // the slot, the first Windows install wipes, Linux is redone once).
    ASSERT_TRUE(deployer.deploy_linux(node).status.ok());
    ASSERT_TRUE(deployer.deploy_windows(node).status.ok());
    ASSERT_TRUE(deployer.deploy_linux(node).status.ok());

    util::Rng rng(GetParam());
    for (int op = 0; op < 30; ++op) {
        const bool windows_turn = rng.chance(0.5);
        const auto result = windows_turn ? deployer.deploy_windows(node)
                                         : deployer.deploy_linux(node);
        ASSERT_TRUE(result.status.ok()) << result.status.error_message();
        EXPECT_FALSE(result.destroyed_linux);
        EXPECT_FALSE(result.destroyed_windows);
        EXPECT_FALSE(result.used_full_wipe);
        EXPECT_TRUE(deploy::linux_intact(node.disk()));
        EXPECT_TRUE(deploy::windows_intact(node.disk()));
    }
    EXPECT_EQ(deployer.log().manual_count(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeploySequence, ::testing::Values(3u, 13u, 23u));

// ---------- hybrid end-state sanity across seeds & versions ----------

struct HybridSweepParam {
    std::uint64_t seed;
    deploy::MiddlewareVersion version;
};

/// Print a parameter as "seed1_v2". Without this gtest prints the struct's
/// raw bytes, padding included, and CMake's test discovery names each
/// instance after that text, so the ctest names changed between builds.
void PrintTo(const HybridSweepParam& param, std::ostream* os) {
    *os << "seed" << param.seed
        << (param.version == deploy::MiddlewareVersion::kV1 ? "_v1" : "_v2");
}

class HybridSweep : public ::testing::TestWithParam<HybridSweepParam> {};

TEST_P(HybridSweep, RandomMixedWorkloadAlwaysCompletes) {
    const auto param = GetParam();
    sim::Engine engine;
    core::HybridConfig cfg;
    cfg.cluster.node_count = 8;
    cfg.cluster.seed = param.seed;
    cfg.version = param.version;
    cfg.poll_interval = sim::minutes(5);
    core::HybridCluster hybrid(engine, cfg);
    hybrid.start();
    hybrid.settle();

    workload::GeneratorConfig gcfg;
    gcfg.arrival.rate_per_hour = 4;
    gcfg.horizon = sim::hours(8);
    gcfg.max_nodes = 4;
    gcfg.runtime_scale = 0.08;  // keep jobs short so the horizon suffices
    workload::WorkloadGenerator gen(workload::AppCatalog::huddersfield(), gcfg, param.seed);
    const auto trace = gen.generate();
    hybrid.replay(trace);
    engine.run_until(sim::TimePoint{} + sim::hours(48));

    // Everything submitted eventually finished, no node left hung, and the
    // two schedulers never both claim the same node simultaneously.
    const auto summary = hybrid.metrics().summarise(hybrid.counters(),
                                                    sim::hours(48).seconds());
    EXPECT_EQ(summary.completed, trace.size())
        << "seed " << param.seed << " v" << (param.version == deploy::MiddlewareVersion::kV1
                                                 ? "1"
                                                 : "2");
    for (auto* node : hybrid.cluster().nodes())
        EXPECT_NE(node->state(), cluster::PowerState::kHung);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndVersions, HybridSweep,
    ::testing::Values(HybridSweepParam{1, deploy::MiddlewareVersion::kV2},
                      HybridSweepParam{2, deploy::MiddlewareVersion::kV2},
                      HybridSweepParam{3, deploy::MiddlewareVersion::kV2},
                      HybridSweepParam{4, deploy::MiddlewareVersion::kV1},
                      HybridSweepParam{5, deploy::MiddlewareVersion::kV1}));

// ---------- generator OS shares track the catalogue ----------

class CatalogShares : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CatalogShares, EmpiricalMixTracksCatalogueWeights) {
    workload::GeneratorConfig cfg;
    cfg.arrival.rate_per_hour = 120;
    cfg.horizon = sim::hours(24);
    cfg.flexible_policy = workload::FlexiblePolicy::kPreferLinux;
    const auto catalog = workload::AppCatalog::huddersfield();
    workload::WorkloadGenerator gen(catalog, cfg, GetParam());
    const auto trace = gen.generate();
    ASSERT_GT(trace.size(), 1000u);
    int windows_jobs = 0;
    for (const auto& job : trace)
        if (job.os == OsType::kWindows) ++windows_jobs;
    const double windows_frac = static_cast<double>(windows_jobs) /
                                static_cast<double>(trace.size());
    // With flexible jobs preferring Linux, the Windows share equals the
    // Windows-exclusive demand share.
    EXPECT_NEAR(windows_frac, catalog.exclusive_share(OsType::kWindows), 0.04);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CatalogShares, ::testing::Values(5u, 6u, 7u));

}  // namespace
}  // namespace hc
