#include "core/controller.hpp"

#include <algorithm>
#include <cmath>

#include "boot/boot_control.hpp"
#include "cluster/disk.hpp"
#include "util/errors.hpp"

namespace hc::core {

using cluster::Node;
using cluster::OsType;
using util::Error;
using util::Status;

namespace {

/// The v1 per-node switch action: run the batch script against the node's
/// own FAT control partition.
Status v1_fat_switch(Node& node, OsType target) {
    cluster::Partition* fat = nullptr;
    for (auto& p : node.disk().partitions())
        if (p.fs == cluster::FsType::kFat) {
            fat = &p;
            break;
        }
    if (fat == nullptr)
        return Error{"node " + node.short_name() + " has no FAT control partition"};
    return boot::batch_switch(fat->files, target);
}

}  // namespace

SwitchController::SwitchController(sim::Engine& engine, cluster::Cluster& cluster,
                                   pbs::PbsServer& pbs, winhpc::HpcScheduler& winhpc,
                                   RebootLog* log)
    : engine_(engine), cluster_(cluster), pbs_(pbs), winhpc_(winhpc), log_(log) {
    obs_orders_ = engine_.obs().metrics().counter("core.switch.orders");
}

void SwitchController::journal_order(const SwitchDecision& decision, std::string_view side,
                                     std::string_view job) {
    obs_orders_.inc();
    obs::Journal& journal = engine_.obs().journal();
    if (journal.enabled())
        journal.event("switch.order")
            .str("side", side)
            .str("job", job)
            .str("target", os_name(decision.target))
            .str("reason", decision.reason);
}

Status SwitchController::execute(const SwitchDecision& decision) {
    if (!decision.act()) return Status::ok_status();
    ++stats_.decisions_executed;
    if (engine_.logger().enabled(util::LogLevel::kInfo))
        engine_.logger().info(log_tag(), "switch " + std::to_string(decision.node_count) +
                                             " node(s) to " + os_name(decision.target) +
                                             " — " + decision.reason);
    prepare(decision);
    const SwitchAction action = make_action(decision);
    for (int i = 0; i < decision.node_count; ++i) {
        auto status = submit_one(decision, action, /*retries=*/0);
        if (!status.ok()) return status;
    }
    return Status::ok_status();
}

Status SwitchController::submit_one(const SwitchDecision& decision, const SwitchAction& action,
                                    int retries) {
    if (decision.target == OsType::kWindows) {
        // Donor is the Linux side: qsub the Fig 4 script through the real
        // text path.
        auto behavior =
            make_pbs_switch_behavior(engine_, cluster_, pbs_, decision.target, action, log_);
        auto id =
            pbs_.qsub(fig4_switch_script_text(decision.target), "sliang", std::move(behavior));
        if (!id.ok()) {
            ++stats_.submit_failures;
            return Error{"switch qsub failed: " + id.error_message()};
        }
        ++stats_.switch_jobs_pbs;
        journal_order(decision, "pbs", id.value());
    } else {
        auto spec =
            make_winhpc_switch_spec(engine_, cluster_, winhpc_, decision.target, action, log_);
        const int jid = winhpc_.submit_job(std::move(spec));
        ++stats_.switch_jobs_winhpc;
        journal_order(decision, "winhpc", std::to_string(jid));
    }
    watch_order(decision.target, retries);
    return Status::ok_status();
}

void SwitchController::enable_order_watchdog(const OrderWatchdogConfig& config) {
    util::require(!wd_enabled_, "SwitchController: order watchdog already enabled");
    util::require(config.timeout.ms > 0, "SwitchController: watchdog timeout must be > 0");
    util::require(config.backoff >= 1.0, "SwitchController: watchdog backoff must be >= 1");
    wd_enabled_ = true;
    wd_ = config;
    for (Node* node : cluster_.nodes())
        node->on_up([this](Node&, OsType os) { on_node_up(os); });
}

void SwitchController::watch_order(OsType target, int retries) {
    if (!wd_enabled_) return;
    const std::uint64_t id = next_order_id_++;
    const auto scale = std::pow(wd_.backoff, retries);
    const sim::Duration deadline = sim::milliseconds(
        static_cast<std::int64_t>(static_cast<double>(wd_.timeout.ms) * scale));
    PendingOrder order;
    order.id = id;
    order.target = target;
    order.retries = retries;
    order.issued = engine_.now();
    order.timer = engine_.schedule_after(deadline, [this, id] { on_order_timeout(id); });
    pending_.push_back(order);
    ++stats_.orders_watched;
}

void SwitchController::on_node_up(OsType os) {
    // Oldest pending order for this OS is considered satisfied. Matching is
    // deliberately loose — any node arriving in the target OS serves the
    // order's purpose (v2's flag herds every rebooting node there anyway).
    auto it = std::find_if(pending_.begin(), pending_.end(),
                           [os](const PendingOrder& o) { return o.target == os; });
    if (it == pending_.end()) return;
    engine_.cancel(it->timer);
    ++stats_.orders_satisfied;
    if (it->retries > 0) {
        // A reissued order finally landing is a recovery worth recording.
        obs::Journal& journal = engine_.obs().journal();
        if (journal.enabled())
            journal.event("recovery.order_satisfied")
                .str("target", os_name(os))
                .num("retries", it->retries)
                .num("waited_s", (engine_.now() - it->issued).whole_seconds());
    }
    pending_.erase(it);
}

void SwitchController::on_order_timeout(std::uint64_t id) {
    auto it = std::find_if(pending_.begin(), pending_.end(),
                           [id](const PendingOrder& o) { return o.id == id; });
    if (it == pending_.end()) return;
    const PendingOrder timed_out = *it;
    pending_.erase(it);

    obs::Journal& journal = engine_.obs().journal();
    if (timed_out.retries >= wd_.max_retries) {
        ++stats_.orders_abandoned;
        engine_.logger().warn(log_tag(),
                              std::string("switch order to ") + os_name(timed_out.target) +
                                  " abandoned after " + std::to_string(timed_out.retries) +
                                  " reissues");
        if (journal.enabled())
            journal.event("recovery.order_abandoned")
                .str("target", os_name(timed_out.target))
                .num("retries", timed_out.retries);
        rescue_hung_node();
        return;
    }

    ++stats_.orders_reissued;
    engine_.logger().warn(log_tag(), std::string("switch order to ") +
                                         os_name(timed_out.target) + " timed out; reissuing (" +
                                         std::to_string(timed_out.retries + 1) + ")");
    if (journal.enabled())
        journal.event("recovery.order_reissue")
            .str("target", os_name(timed_out.target))
            .num("attempt", timed_out.retries + 1);
    SwitchDecision reissue;
    reissue.target = timed_out.target;
    reissue.node_count = 1;
    reissue.reason = "watchdog reissue";
    // Re-running prepare() rewrites the v2 flag — the heal path for torn
    // flag writes. The fresh submit_one() watches the replacement order at
    // the next backoff step.
    prepare(reissue);
    (void)submit_one(reissue, make_action(reissue), timed_out.retries + 1);
}

void SwitchController::rescue_hung_node() {
    for (Node* node : cluster_.nodes())
        if (node->state() == cluster::PowerState::kHung) {
            ++stats_.recovery_power_cycles;
            obs::Journal& journal = engine_.obs().journal();
            if (journal.enabled())
                journal.event("recovery.power_cycle")
                    .str("node", node->short_name())
                    .str("by", "order-watchdog");
            node->hard_power_cycle();
            return;
        }
}

ControllerV1::ControllerV1(sim::Engine& engine, cluster::Cluster& cluster, pbs::PbsServer& pbs,
                           winhpc::HpcScheduler& winhpc, RebootLog* log)
    : SwitchController(engine, cluster, pbs, winhpc, log) {}

void ControllerV1::prepare(const SwitchDecision&) {
    // v1 has no head-side boot state: each switch job edits the control
    // files on the node the scheduler picks.
}

SwitchAction ControllerV1::make_action(const SwitchDecision&) { return v1_fat_switch; }

ControllerV2::ControllerV2(sim::Engine& engine, cluster::Cluster& cluster, pbs::PbsServer& pbs,
                           winhpc::HpcScheduler& winhpc, boot::OsFlagStore& flag, RebootLog* log,
                           Mode mode)
    : SwitchController(engine, cluster, pbs, winhpc, log), flag_(flag), mode_(mode) {
    if (mode_ == Mode::kPerMac) {
        // Fig 12 design: per-MAC pins are one-shot; clear a node's pin once
        // it has booted, so later manual reboots follow the shared default.
        for (Node* node : cluster_.nodes())
            node->on_up([this](Node& n, OsType) { flag_.clear_node_target(n.mac()); });
    }
}

void ControllerV2::prepare(const SwitchDecision& decision) {
    if (mode_ != Mode::kGlobalFlag) return;
    // Fig 13: set the single target-OS flag before any reboot order; the
    // switch job itself only reboots.
    flag_.set_flag(decision.target);
    ++stats_.flag_sets;
    obs::Journal& journal = engine_.obs().journal();
    if (journal.enabled())
        journal.event("flag.set").str("target", os_name(decision.target));
}

SwitchAction ControllerV2::make_action(const SwitchDecision&) {
    if (mode_ == Mode::kGlobalFlag) return SwitchAction{};  // nothing to do on the node
    // Fig 12: each switch job reports the node the scheduler picked and the
    // head pins that MAC.
    return [this](Node& node, OsType target) -> Status {
        flag_.set_node_target(node.mac(), target);
        ++stats_.per_mac_pins;
        return Status::ok_status();
    };
}

}  // namespace hc::core
