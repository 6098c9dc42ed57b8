// The per-network telemetry hub: one Registry, one EventLog, one
// SpanTracker and a store of MRIB snapshots, bound to the network's
// simulated clock. Owned by topo::Network so every protocol agent reaches
// it through the network it is attached to — PIM-SM/DM, DVMRP, CBT, MOSPF
// and IGMP all emit through this one interface.
//
// Tracing (events + spans) is OFF by default: the benches measure the
// protocols, not the instrumentation. `pimsim` and the examples turn it on.
// Metrics are always live: callers resolve an instrument once and keep the
// handle (NetworkStats indexes its handles by segment id and protocol
// enum), so a count is one increment.
//
// Events and spans go in as typed records (events.hpp) and an event's
// counter is one array slot per (type, protocol): the emit path builds no
// name or string. Text exists only where it is printed (`dump-events`, the
// timeline, World's span list), with node names resolved from the network.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/simulator.hpp"
#include "telemetry/events.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"

namespace pimlib::telemetry {

class Hub {
public:
    explicit Hub(const sim::Simulator& clock) : clock_(&clock), spans_(registry_) {}

    Hub(const Hub&) = delete;
    Hub& operator=(const Hub&) = delete;

    [[nodiscard]] Registry& registry() { return registry_; }
    [[nodiscard]] const Registry& registry() const { return registry_; }
    [[nodiscard]] const EventLog& events() const { return events_; }
    [[nodiscard]] const SpanTracker& spans() const { return spans_; }

    /// Enables/disables the event log and span tracking together.
    void set_tracing(bool on) { events_.set_enabled(on); }
    [[nodiscard]] bool tracing() const { return events_.enabled(); }

    /// Records a protocol state transition: stamps the current sim-time,
    /// bumps `pimlib_control_events_total{type,protocol}` (always) and
    /// appends to the event log (if tracing). The record is typed; its text
    /// is rendered only by the writers (see events.hpp).
    void emit(Event event);

    /// Span helpers; no-ops (returning 0 / nullopt) unless tracing.
    std::uint64_t span_begin(SpanKind kind, const SpanKey& key);
    std::optional<sim::Time> span_end(SpanKind kind, const SpanKey& key);
    void span_abort(SpanKind kind, const SpanKey& key) { spans_.abort(kind, key); }

    /// Called from the data plane on a delivered packet; closes any
    /// join-to-data span waiting on this (host, group) and any rp-failover
    /// span waiting on the group.
    void on_data_delivered(int host, net::GroupAddress group) {
        if (tracing() && spans_.open_count() != 0) close_delivery_spans(host, group);
    }

    /// Stores a snapshot (filled in by the caller; see
    /// StackBase::capture_mrib) and updates per-router entry-count gauges.
    void store_snapshot(MribSnapshot snapshot);
    [[nodiscard]] const std::vector<MribSnapshot>& snapshots() const {
        return snapshots_;
    }

    [[nodiscard]] sim::Time now() const { return clock_->now(); }

    /// Re-publishes timer-wheel occupancy/cascade statistics as
    /// pimlib_timer_* gauges: live events and occupied slots per level,
    /// overflow size, pending total, and cumulative cascade / migration
    /// counters. Call at export points (dump-metrics, bench reports) —
    /// gauges are snapshots, not continuously maintained.
    void refresh_timer_gauges();

private:
    void close_delivery_spans(int host, net::GroupAddress group);

    const sim::Simulator* clock_;
    Registry registry_;
    EventLog events_;
    SpanTracker spans_;
    std::vector<MribSnapshot> snapshots_;
    /// `pimlib_control_events_total` handle per (type, protocol), resolved
    /// on the pair's first emit so the exported series keep that order.
    std::array<Counter*, kEventTypeCount * kProtocolCount> type_counters_{};
};

} // namespace pimlib::telemetry
