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
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
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
    [[nodiscard]] EventLog& events() { return events_; }
    [[nodiscard]] const EventLog& events() const { return events_; }
    [[nodiscard]] SpanTracker& spans() { return spans_; }
    [[nodiscard]] const SpanTracker& spans() const { return spans_; }

    /// Enables/disables the event log and span tracking together.
    void set_tracing(bool on) {
        tracing_ = on;
        events_.set_enabled(on);
    }
    [[nodiscard]] bool tracing() const { return tracing_; }

    /// Records a protocol state transition: stamps the current sim-time,
    /// appends to the event log (if tracing) and bumps
    /// `pimlib_control_events_total{type,protocol}` (always).
    void emit(EventType type, const std::string& node, const std::string& protocol,
              const std::string& group = "", const std::string& detail = "",
              std::uint64_t span = 0);

    /// Span helpers; no-ops (returning 0 / nullopt) unless tracing.
    std::uint64_t span_begin(const std::string& kind, const std::string& key);
    std::optional<sim::Time> span_end(const std::string& kind, const std::string& key);
    void span_abort(const std::string& kind, const std::string& key) {
        spans_.abort(kind, key);
    }

    /// Called from the data plane on a delivered packet; closes any
    /// join-to-data / rp-failover / spt-switch span waiting on this
    /// (host, group) or group. A no-op unless closes_spans_on_delivery(),
    /// which callers test first so they build the names only then.
    void on_data_delivered(const std::string& host, const std::string& group);
    [[nodiscard]] bool closes_spans_on_delivery() const {
        return tracing_ && spans_.open_count() != 0;
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
    const sim::Simulator* clock_;
    Registry registry_;
    EventLog events_;
    SpanTracker spans_;
    bool tracing_ = false;
    std::vector<MribSnapshot> snapshots_;
    // Hot-path cache: event-counter pointer per (type, protocol).
    std::map<std::pair<int, std::string>, Counter*> event_counters_;
};

/// Span kind constants, so openers and closers can't drift apart.
namespace span {
inline constexpr const char* kJoinToData = "join-to-data";
inline constexpr const char* kRpFailover = "rp-failover";
inline constexpr const char* kSptSwitch = "spt-switch";
} // namespace span

} // namespace pimlib::telemetry
