#include "obs/metrics.hpp"

#include "util/json_out.hpp"

namespace hc::obs {

Counter Registry::counter(const std::string& name) {
    if (!enabled_) return Counter{};
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        counter_slots_.push_back(0);
        it = counters_.emplace(name, &counter_slots_.back()).first;
    }
    return Counter{it->second};
}

Gauge Registry::gauge(const std::string& name) {
    if (!enabled_) return Gauge{};
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
        gauge_slots_.push_back(0.0);
        it = gauges_.emplace(name, &gauge_slots_.back()).first;
    }
    return Gauge{it->second};
}

HistogramHandle Registry::histogram(const std::string& name, double lo, double hi,
                                    int buckets) {
    if (!enabled_) return HistogramHandle{};
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        histogram_slots_.push_back(std::make_unique<util::Histogram>(lo, hi, buckets));
        it = histograms_.emplace(name, histogram_slots_.back().get()).first;
    }
    return HistogramHandle{it->second};
}

void Registry::add_provider(std::function<void(Registry&)> provider) {
    providers_.push_back(std::move(provider));
}

MetricsSnapshot Registry::snapshot() {
    MetricsSnapshot snap;
    if (!enabled_) return snap;
    // Providers may register gauges on first run; reentrant snapshots from
    // inside a provider would see a half-built view, so guard against them.
    if (!in_snapshot_) {
        in_snapshot_ = true;
        for (const auto& provider : providers_) provider(*this);
        in_snapshot_ = false;
    }
    // std::map iteration is name-sorted: the snapshot is deterministic.
    snap.counters.reserve(counters_.size());
    for (const auto& [name, slot] : counters_)
        snap.counters.push_back({name, *slot});
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, slot] : gauges_)
        snap.gauges.push_back({name, *slot});
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, hist] : histograms_) {
        MetricsSnapshot::HistogramValue h;
        h.name = name;
        h.count = hist->count();
        h.mean = hist->mean();
        h.min = hist->min();
        h.max = hist->max();
        h.p50 = hist->percentile(0.50);
        h.p95 = hist->percentile(0.95);
        h.p99 = hist->percentile(0.99);
        snap.histograms.push_back(std::move(h));
    }
    return snap;
}

std::string MetricsSnapshot::to_json() const {
    std::string out = "{\"schema\": \"hc-metrics/1\", \"counters\": {";
    for (std::size_t i = 0; i < counters.size(); ++i) {
        if (i > 0) out += ", ";
        out += "\n  " + util::json_quote(counters[i].name) + ": " +
               std::to_string(counters[i].value);
    }
    out += "}, \"gauges\": {";
    for (std::size_t i = 0; i < gauges.size(); ++i) {
        if (i > 0) out += ", ";
        out += "\n  " + util::json_quote(gauges[i].name) + ": " + util::json_number(gauges[i].value);
    }
    out += "}, \"histograms\": {";
    for (std::size_t i = 0; i < histograms.size(); ++i) {
        const HistogramValue& h = histograms[i];
        if (i > 0) out += ", ";
        out += "\n  " + util::json_quote(h.name) + ": {\"count\": " + std::to_string(h.count) +
               ", \"mean\": " + util::json_number(h.mean) + ", \"min\": " + util::json_number(h.min) +
               ", \"max\": " + util::json_number(h.max) + ", \"p50\": " + util::json_number(h.p50) +
               ", \"p95\": " + util::json_number(h.p95) + ", \"p99\": " + util::json_number(h.p99) + "}";
    }
    out += "}}\n";
    return out;
}

}  // namespace hc::obs
