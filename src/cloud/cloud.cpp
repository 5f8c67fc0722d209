#include "cloud/cloud.hpp"

#include <algorithm>
#include <cstdio>

#include "util/errors.hpp"

namespace hc::cloud {

using cluster::Node;
using cluster::OsType;
using cluster::PowerState;

namespace {

std::string cloud_hostname(int slot, const std::string& domain) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "cnode%04d", slot + 1);
    return std::string(buf) + "." + domain;
}

}  // namespace

CloudBackend::CloudBackend(sim::Engine& engine, CloudConfig config, int index_base)
    : engine_(engine),
      config_(std::move(config)),
      task_(engine, config_.sweep_interval, [this] { sweep(); }) {
    util::require(config_.max_burst >= 0, "CloudBackend: max_burst must be >= 0");
    util::require(config_.cores_per_node > 0, "CloudBackend: cores_per_node must be positive");
    util::require(index_base >= 0, "CloudBackend: index_base must be >= 0");

    // Instance boot profile: the firmware stage carries the provision delay
    // (create + image fetch); deprovision is a quick ACPI off; a hung
    // provision is a boot hang, so hc::fault recovery machinery applies.
    cluster::BootTimingModel timing;
    timing.shutdown = sim::seconds(5);
    timing.firmware = config_.provision_delay;
    timing.jitter = config_.provision_jitter;
    timing.hang_probability = config_.provision_failure_probability;

    util::Rng root(config_.seed);
    nodes_.reserve(static_cast<std::size_t>(config_.max_burst));
    instances_.resize(static_cast<std::size_t>(config_.max_burst));
    for (int i = 0; i < config_.max_burst; ++i) {
        cluster::NodeConfig nc;
        nc.index = index_base + i;
        nc.hostname = cloud_hostname(i, config_.domain);
        nc.mac = cluster::Mac::for_node_index(index_base + i + 1);
        nc.np = config_.cores_per_node;
        nc.vtx_capable = true;  // cloud instances are VMs already
        nc.timing = timing;
        nodes_.push_back(std::make_unique<Node>(
            engine_, std::move(nc), root.fork("cloud" + std::to_string(i))));
        nodes_.back()->on_up([this, i](Node& n, OsType os) {
            Instance& inst = instances_[static_cast<std::size_t>(i)];
            if (!inst.provision_pending) return;
            inst.provision_pending = false;
            ++stats_.provisions_completed;
            stats_.total_reaction_ms += (engine_.now() - inst.requested).ms;
            obs::Journal& journal = engine_.obs().journal();
            if (journal.enabled())
                journal.event("cloud.up")
                    .str("node", n.short_name())
                    .str("os", os_name(os))
                    .num("reaction_s", (engine_.now() - inst.requested).whole_seconds());
        });
    }

    obs::Hub& hub = engine_.obs();
    obs_provisions_ = hub.metrics().counter("cloud.provisions");
    obs_releases_ = hub.metrics().counter("cloud.releases");
}

std::vector<Node*> CloudBackend::nodes() {
    std::vector<Node*> out;
    out.reserve(nodes_.size());
    for (auto& n : nodes_) out.push_back(n.get());
    return out;
}

void CloudBackend::attach(pbs::PbsServer* pbs, winhpc::HpcScheduler* winhpc) {
    util::require(pbs_ == nullptr && winhpc_ == nullptr, "CloudBackend::attach: already attached");
    pbs_ = pbs;
    winhpc_ = winhpc;
    if (pbs_) pbs_base_ = pbs_->node_records().size();
    if (winhpc_) win_base_ = winhpc_->node_records().size();
    for (auto& n : nodes_) {
        if (pbs_) pbs_->attach_node(*n);
        if (winhpc_) winhpc_->attach_node(*n);
    }
}

void CloudBackend::start() {
    if (config_.max_burst > 0) task_.start(config_.sweep_interval);
}

void CloudBackend::stop() { task_.stop(); }

int CloudBackend::request_burst(OsType target, int count) {
    util::require(target == OsType::kLinux || target == OsType::kWindows,
                  "CloudBackend::request_burst: target must be a concrete OS");
    if (count <= 0) return 0;
    ++stats_.burst_requests;
    int granted = 0;
    for (int i = 0; i < slot_count() && granted < count; ++i) {
        const Instance& inst = instances_[static_cast<std::size_t>(i)];
        if (inst.target != OsType::kNone || nodes_[static_cast<std::size_t>(i)]->state() !=
                                                PowerState::kOff)
            continue;
        provision(i, target);
        ++granted;
    }
    const int denied = count - granted;
    if (denied > 0) {
        stats_.quota_denied += static_cast<std::uint64_t>(denied);
        obs::Journal& journal = engine_.obs().journal();
        if (journal.enabled())
            journal.event("cloud.quota_denied")
                .str("target", os_name(target))
                .num("denied", denied);
    }
    return granted;
}

void CloudBackend::provision(int slot, OsType target) {
    Instance& inst = instances_[static_cast<std::size_t>(slot)];
    Node& node = *nodes_[static_cast<std::size_t>(slot)];
    inst.target = target;
    inst.provision_pending = true;
    inst.requested = engine_.now();
    inst.billing = true;
    inst.session_start = engine_.now();
    inst.idle_tracked = false;
    ++stats_.nodes_requested;
    obs_provisions_.inc();
    obs::Journal& journal = engine_.obs().journal();
    if (journal.enabled())
        journal.event("cloud.provision")
            .str("node", node.short_name())
            .str("os", os_name(target));
    if (provision_hook_) provision_hook_(node, target);
    node.power_on();
}

void CloudBackend::release(int slot) {
    Instance& inst = instances_.at(static_cast<std::size_t>(slot));
    util::require(inst.target != OsType::kNone, "CloudBackend::release: slot not provisioned");
    Node& node = *nodes_[static_cast<std::size_t>(slot)];
    if (inst.billing) {
        billed_ms_ += (engine_.now() - inst.session_start).ms;
        inst.billing = false;
    }
    inst.target = OsType::kNone;
    inst.provision_pending = false;
    inst.idle_tracked = false;
    ++stats_.releases;
    obs_releases_.inc();
    obs::Journal& journal = engine_.obs().journal();
    if (journal.enabled()) journal.event("cloud.release").str("node", node.short_name());
    if (node.is_up()) node.shutdown();
}

bool CloudBackend::busy(int slot) const {
    const std::size_t i = static_cast<std::size_t>(slot);
    if (pbs_ && pbs_->node_records()[pbs_base_ + i].used_cpus() > 0) return true;
    if (winhpc_ && winhpc_->node_records()[win_base_ + i].used_cpus() > 0) return true;
    return false;
}

void CloudBackend::sweep() {
    const sim::TimePoint now = engine_.now();
    for (int i = 0; i < slot_count(); ++i) {
        Instance& inst = instances_[static_cast<std::size_t>(i)];
        if (inst.target == OsType::kNone) continue;
        const Node& node = *nodes_[static_cast<std::size_t>(i)];
        // Provisioning, rebooting for a switch, or wedged: not idle. A hung
        // provision keeps billing until recovery brings it up or a caller
        // releases it — you pay for a wedged instance.
        if (!node.is_up() || busy(i)) {
            inst.idle_tracked = false;
            continue;
        }
        if (!inst.idle_tracked) {
            inst.idle_tracked = true;
            inst.idle_since = now;
            continue;
        }
        if ((now - inst.idle_since).ms >= config_.idle_timeout.ms) release(i);
    }
}

int CloudBackend::available_burst() const {
    int n = 0;
    for (int i = 0; i < slot_count(); ++i)
        if (instances_[static_cast<std::size_t>(i)].target == OsType::kNone &&
            nodes_[static_cast<std::size_t>(i)]->state() == PowerState::kOff)
            ++n;
    return n;
}

int CloudBackend::idle_count() const {
    int n = 0;
    for (int i = 0; i < slot_count(); ++i)
        if (instances_[static_cast<std::size_t>(i)].target != OsType::kNone &&
            nodes_[static_cast<std::size_t>(i)]->is_up() && !busy(i))
            ++n;
    return n;
}

int CloudBackend::provisioning_count() const {
    int n = 0;
    for (const Instance& inst : instances_)
        if (inst.provision_pending) ++n;
    return n;
}

int CloudBackend::active_count() const {
    int n = 0;
    for (const Instance& inst : instances_)
        if (inst.target != OsType::kNone) ++n;
    return n;
}

double CloudBackend::expected_burst_latency_s() const {
    cluster::BootTimingModel defaults;
    return static_cast<double>(config_.provision_delay.ms + defaults.linux_boot.ms) / 1000.0;
}

std::int64_t CloudBackend::accrued_ms(sim::TimePoint now) const {
    std::int64_t total = billed_ms_;
    for (const Instance& inst : instances_)
        if (inst.billing) total += (now - inst.session_start).ms;
    return total;
}

CloudBackend::SavedState CloudBackend::save_state() const {
    SavedState s;
    s.instances = instances_;
    s.nodes.reserve(nodes_.size());
    for (const auto& n : nodes_) s.nodes.push_back(n->save_state());
    s.task = task_.save_state();
    s.billed_ms = billed_ms_;
    s.stats = stats_;
    return s;
}

void CloudBackend::restore_state(const SavedState& s) {
    util::require(s.instances.size() == instances_.size() && s.nodes.size() == nodes_.size(),
                  "CloudBackend::restore_state: slot count mismatch");
    instances_ = s.instances;
    for (std::size_t i = 0; i < nodes_.size(); ++i) nodes_[i]->restore_state(s.nodes[i]);
    task_.restore_state(s.task);
    billed_ms_ = s.billed_ms;
    stats_ = s.stats;
}

}  // namespace hc::cloud
