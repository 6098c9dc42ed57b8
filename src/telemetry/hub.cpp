#include "telemetry/hub.hpp"

namespace pimlib::telemetry {

void Hub::emit(EventType type, const std::string& node, const std::string& protocol,
               const std::string& group, const std::string& detail,
               std::uint64_t span) {
    auto key = std::make_pair(static_cast<int>(type), protocol);
    auto it = event_counters_.find(key);
    if (it == event_counters_.end()) {
        Counter& counter = registry_.counter(
            "pimlib_control_events_total",
            {{"type", to_string(type)}, {"protocol", protocol}},
            "Protocol state transitions, by event type and protocol");
        it = event_counters_.emplace(std::move(key), &counter).first;
    }
    it->second->inc();
    if (!tracing_) return;
    events_.emit({clock_->now(), type, node, protocol, group, detail, span});
}

std::uint64_t Hub::span_begin(const std::string& kind, const std::string& key) {
    if (!tracing_) return 0;
    return spans_.begin(kind, key, clock_->now());
}

std::optional<sim::Time> Hub::span_end(const std::string& kind,
                                       const std::string& key) {
    if (!tracing_) return std::nullopt;
    return spans_.end(kind, key, clock_->now());
}

void Hub::on_data_delivered(const std::string& host, const std::string& group) {
    if (!closes_spans_on_delivery()) return;
    spans_.end(span::kJoinToData, host + "|" + group, clock_->now());
    spans_.end(span::kRpFailover, group, clock_->now());
}

void Hub::refresh_timer_gauges() {
    const sim::TimerWheel::Stats stats = clock_->wheel().stats();
    for (int level = 0; level < sim::TimerWheel::kLevels; ++level) {
        const std::string label = std::to_string(level);
        registry_
            .gauge("pimlib_timer_level_events", {{"level", label}},
                   "Live timer events stored at this wheel level")
            .set(static_cast<double>(stats.level_events[level]));
        registry_
            .gauge("pimlib_timer_level_occupied_slots", {{"level", label}},
                   "Non-empty slots at this wheel level (of 256)")
            .set(static_cast<double>(stats.occupied_slots[level]));
    }
    registry_
        .gauge("pimlib_timer_overflow_events", {},
               "Timer events beyond the wheel horizon")
        .set(static_cast<double>(stats.overflow_events));
    registry_
        .gauge("pimlib_timer_pending_events", {}, "Live timer events in total")
        .set(static_cast<double>(stats.pending));
    registry_
        .gauge("pimlib_timer_cascades_total", {},
               "Cumulative cascade passes (slot re-homing on base advance)")
        .set(static_cast<double>(stats.cascades));
    registry_
        .gauge("pimlib_timer_cascaded_nodes_total", {},
               "Cumulative timer events re-homed to a lower level")
        .set(static_cast<double>(stats.cascaded_nodes));
    registry_
        .gauge("pimlib_timer_overflow_migrations_total", {},
               "Cumulative overflow events migrated into the wheels")
        .set(static_cast<double>(stats.overflow_migrations));
}

void Hub::store_snapshot(MribSnapshot snapshot) {
    for (const RouterMrib& r : snapshot.routers) {
        registry_
            .gauge("pimlib_state_mrib_entries", {{"router", r.router}},
                   "Forwarding-cache entries per router at last snapshot")
            .set(static_cast<double>(r.entries.size()));
    }
    snapshots_.push_back(std::move(snapshot));
}

} // namespace pimlib::telemetry
