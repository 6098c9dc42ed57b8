#include "telemetry/hub.hpp"

namespace pimlib::telemetry {

void Hub::emit(Event event) {
    Counter*& counter = type_counters_[static_cast<std::size_t>(event.type) * kProtocolCount +
                                       static_cast<std::size_t>(event.protocol)];
    if (counter == nullptr) {
        counter = &registry_.counter(
            "pimlib_control_events_total",
            {{"type", to_string(event.type)}, {"protocol", to_string(event.protocol)}},
            "Protocol state transitions, by event type and protocol");
    }
    counter->inc();
    if (!tracing()) return;
    event.at = clock_->now();
    events_.emit(std::move(event));
}

std::uint64_t Hub::span_begin(SpanKind kind, const SpanKey& key) {
    if (!tracing()) return 0;
    return spans_.begin(kind, key, clock_->now());
}

std::optional<sim::Time> Hub::span_end(SpanKind kind, const SpanKey& key) {
    if (!tracing()) return std::nullopt;
    return spans_.end(kind, key, clock_->now());
}

void Hub::close_delivery_spans(int host, net::GroupAddress group) {
    spans_.end(SpanKind::kJoinToData, {.node = host, .group = group}, clock_->now());
    spans_.end(SpanKind::kRpFailover, {.group = group}, clock_->now());
}

void Hub::refresh_timer_gauges() {
    const sim::TimerWheel::Stats stats = clock_->wheel().stats();
    const auto publish = [this](const char* name, const char* help, auto value,
                                const LabelSet& labels = {}) {
        registry_.gauge(name, labels, help).set(static_cast<double>(value));
    };
    for (int level = 0; level < sim::TimerWheel::kLevels; ++level) {
        const LabelSet label{{"level", std::to_string(level)}};
        publish("pimlib_timer_level_events", "Live timer events stored at this wheel level",
                stats.level_events[level], label);
        publish("pimlib_timer_level_occupied_slots",
                "Non-empty slots at this wheel level (of 256)", stats.occupied_slots[level],
                label);
    }
    publish("pimlib_timer_overflow_events", "Timer events beyond the wheel horizon",
            stats.overflow_events);
    publish("pimlib_timer_pending_events", "Live timer events in total", stats.pending);
    publish("pimlib_timer_cascades_total",
            "Cumulative cascade passes (slot re-homing on base advance)", stats.cascades);
    publish("pimlib_timer_cascaded_nodes_total",
            "Cumulative timer events re-homed to a lower level", stats.cascaded_nodes);
    publish("pimlib_timer_overflow_migrations_total",
            "Cumulative overflow events migrated into the wheels", stats.overflow_migrations);
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
