#include "cluster/node.hpp"

#include "util/errors.hpp"

namespace hc::cluster {

const char* power_state_name(PowerState s) {
    switch (s) {
        case PowerState::kOff: return "off";
        case PowerState::kShuttingDown: return "shutting-down";
        case PowerState::kFirmware: return "firmware";
        case PowerState::kBootLoader: return "bootloader";
        case PowerState::kBootingOs: return "booting-os";
        case PowerState::kUp: return "up";
        case PowerState::kHung: return "hung";
    }
    return "?";
}

sim::Duration BootTimingModel::sample(util::Rng& rng, sim::Duration mean) const {
    util::require(jitter >= 0.0 && jitter < 1.0, "BootTimingModel: jitter outside [0,1)");
    if (mean.ms <= 0) return {};
    const double factor = rng.uniform(1.0 - jitter, 1.0 + jitter);
    return sim::milliseconds(static_cast<std::int64_t>(static_cast<double>(mean.ms) * factor));
}

Node::Node(sim::Engine& engine, NodeConfig config, util::Rng rng)
    : engine_(engine), config_(std::move(config)), rng_(rng) {
    util::require(config_.np > 0, "Node: np must be positive");
    util::require(!config_.hostname.empty(), "Node: hostname required");
    disk_ = Disk(config_.disk_mb);
    obs::Hub& hub = engine_.obs();
    obs_track_ = hub.tracer().track("node/" + short_name());
    obs_boots_ = hub.metrics().counter("cluster.boots");
    obs_switches_ = hub.metrics().counter("cluster.os_switches");
    obs_hangs_ = hub.metrics().counter("cluster.hangs");
}

std::string Node::short_name() const {
    const auto dot = config_.hostname.find('.');
    return dot == std::string::npos ? config_.hostname : config_.hostname.substr(0, dot);
}

void Node::enter(PowerState next) {
    if (engine_.logger().enabled(util::LogLevel::kTrace))
        engine_.logger().trace("node/" + short_name(),
                               std::string(power_state_name(state_)) + " -> " +
                                   power_state_name(next));
    obs::Journal& journal = engine_.obs().journal();
    if (journal.enabled())
        journal.event("node.state")
            .str("node", short_name())
            .str("from", power_state_name(state_))
            .str("to", power_state_name(next));
    state_ = next;
}

void Node::power_on() {
    util::require(state_ == PowerState::kOff, "Node::power_on: node is not off");
    went_down_ = engine_.now();
    begin_boot_sequence();
}

void Node::reboot() {
    util::require(state_ == PowerState::kUp, "Node::reboot: node is not up");
    // Leave kUp *before* notifying, so down-handlers (the schedulers) never
    // observe a reachable node they could re-place work onto.
    enter(PowerState::kShuttingDown);
    mark_down();
    pending_ = engine_.schedule_after(config_.timing.sample(rng_, config_.timing.shutdown),
                                      [this] { begin_boot_sequence(); });
}

void Node::shutdown() {
    util::require(state_ == PowerState::kUp, "Node::shutdown: node is not up");
    enter(PowerState::kShuttingDown);
    mark_down();
    pending_ = engine_.schedule_after(config_.timing.sample(rng_, config_.timing.shutdown),
                                      [this] {
                                          os_ = OsType::kNone;
                                          enter(PowerState::kOff);
                                      });
}

void Node::hard_power_cycle() {
    ++stats_.hard_power_cycles;
    engine_.cancel(pending_);
    pending_ = sim::EventId{};
    const bool was_up = state_ == PowerState::kUp;
    if (state_ == PowerState::kOff) went_down_ = engine_.now();
    os_ = OsType::kNone;
    enter(PowerState::kFirmware);
    if (was_up) mark_down();
    begin_boot_sequence();
}

void Node::inject_hang() {
    util::require(state_ != PowerState::kOff, "Node::inject_hang: node is off");
    engine_.cancel(pending_);
    pending_ = sim::EventId{};
    const bool was_up = state_ == PowerState::kUp;
    os_ = OsType::kNone;
    ++stats_.hangs;
    enter(PowerState::kHung);
    if (was_up) mark_down();
}

void Node::mark_down() {
    went_down_ = engine_.now();
    for (const auto& handler : down_handlers_) handler(*this);
}

void Node::begin_boot_sequence() {
    os_ = OsType::kNone;
    enter(PowerState::kFirmware);
    pending_ = engine_.schedule_after(config_.timing.sample(rng_, config_.timing.firmware),
                                      [this] { stage_bootloader(); });
}

void Node::stage_bootloader() {
    enter(PowerState::kBootLoader);
    BootDecision d;
    if (resolver_) {
        d = resolver_(*this);
    } else {
        // No boot environment wired: a bare machine with nothing to boot.
        d.os = OsType::kNone;
        d.via = "no-resolver";
    }
    if (d.os == OsType::kNone) {
        engine_.logger().warn("node/" + short_name(),
                              "nothing bootable (" + d.via + "); hanging at boot prompt");
        ++stats_.hangs;
        obs_hangs_.inc();
        engine_.obs().tracer().instant(obs_track_, "hang",
                                       {"cause", 0, "nothing-bootable"});
        enter(PowerState::kHung);
        return;
    }
    pending_ = engine_.schedule_after(d.menu_delay, [this, d] { stage_booting(d); });
}

void Node::stage_booting(const BootDecision& d) {
    enter(PowerState::kBootingOs);
    if (rng_.chance(config_.timing.hang_probability)) {
        engine_.logger().warn("node/" + short_name(), "boot hang (injected fault)");
        ++stats_.hangs;
        obs_hangs_.inc();
        engine_.obs().tracer().instant(obs_track_, "hang",
                                       {"cause", 0, "injected-fault"});
        enter(PowerState::kHung);
        return;
    }
    const sim::Duration mean = d.os == OsType::kWindows ? config_.timing.windows_boot
                                                        : config_.timing.linux_boot;
    pending_ = engine_.schedule_after(config_.timing.sample(rng_, mean),
                                      [this, os = d.os] { finish_boot(os); });
}

void Node::finish_boot(OsType os) {
    os_ = os;
    ++stats_.boots;
    obs_boots_.inc();
    // An OS switch means this boot brought up a different OS than the last
    // completed boot did. First boot from factory counts as a plain boot.
    if (was_up_before_ && previous_up_os_ != os) {
        ++stats_.os_switches;
        obs_switches_.inc();
    }
    // The whole downtime window renders as one bar on the node's trace row.
    engine_.obs().tracer().complete(obs_track_, "boot", went_down_.ms, engine_.now().ms,
                                    {"os", 0, os_name(os)});
    previous_up_os_ = os;
    was_up_before_ = true;
    stats_.last_boot_duration = engine_.now() - went_down_;
    stats_.total_downtime_ms += stats_.last_boot_duration.ms;
    enter(PowerState::kUp);
    if (engine_.logger().enabled(util::LogLevel::kDebug))
        engine_.logger().debug("node/" + short_name(),
                               std::string("up, os=") + os_name(os) + " after " +
                                   sim::to_string(stats_.last_boot_duration));
    for (const auto& handler : up_handlers_) handler(*this, os);
}

}  // namespace hc::cluster
