// Network-wide accounting: data packets, control messages and distinct
// (source, group) flows per segment, and control messages per protocol — the
// paper's "state, control message processing, and data packet processing
// required across the entire network" (§1), plus every discarded packet by
// its provenance::DropReason. Every count lands in a labeled
// telemetry::Registry instrument (pimlib_data_*, pimlib_control_*), so the
// query API and the exporters read the same numbers. The first count that
// touches a series creates it; from then on a count indexes a dense
// per-segment slot, a ControlProtocol or a DropReason, with no map, string
// or registry lookup.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "net/ipv4.hpp"
#include "provenance/provenance.hpp"
#include "telemetry/metrics.hpp"

namespace pimlib::stats {

/// The control-message kinds the protocol agents count. Each is exported as
/// pimlib_control_messages_total{protocol=<its kControlProtocolNames entry>}.
enum class ControlProtocol : std::uint8_t {
    kPim, kPimRegister, kPimAssert, kPimRpReach, kPimBootstrap, kPimCrpAdv, kPimDm,
    kIgmp, kDvmrp, kCbt, kMospfLsa, kLsHello, kLsLsa, kDv,
};

inline constexpr std::array<std::string_view, 14> kControlProtocolNames{
    "pim", "pim-register", "pim-assert", "pim-rp-reach", "pim-bootstrap",
    "pim-crp-adv", "pim-dm", "igmp", "dvmrp", "cbt", "mospf-lsa", "ls-hello",
    "ls-lsa", "dv"};

/// A ControlProtocol spelled as its exported name, looked up at compile
/// time: call sites read count_control_message("pim"), and an unknown name
/// reaches the throw, which is not a constant expression, so it fails to
/// compile.
struct ControlName {
    consteval ControlName(const char* name) {
        std::size_t i = 0;
        while (i < kControlProtocolNames.size() && kControlProtocolNames[i] != name) ++i;
        if (i == kControlProtocolNames.size()) throw "unknown control protocol name";
        protocol = static_cast<ControlProtocol>(i);
    }
    ControlProtocol protocol{};
};

/// Global counters for one simulation scenario. Owned by topo::Network;
/// every segment and router reports into it. Segment ids index a dense
/// vector, so they must be small and non-negative (topo::Network numbers
/// segments from 0).
///
/// Reset semantics (multi-phase scenarios: warm up, reset, measure): the
/// query API reads since-the-last-reset values for everything *except*
/// per-protocol control totals, which stay cumulative — control traffic is
/// a whole-run protocol cost, not a phase artifact. Lifetime values remain
/// available through the registry (Counter::lifetime()).
class NetworkStats {
public:
    explicit NetworkStats(telemetry::Registry& registry);

    // ---- data plane ----
    void count_data_packet(int segment_id) { count_on_segment(kData, segment_id); }
    void count_data_delivered() { data_delivered_->inc(); }
    /// One discarded packet, exported as
    /// pimlib_data_dropped_total{reason=<drop_reason_label>}. kSegmentLoss
    /// counts every frame the wire destroyed, control frames included.
    /// kNone (a forwarding decision) counts nothing, so a hop helper can
    /// pass whatever it records.
    void count_drop(provenance::DropReason reason) {
        if (reason == provenance::DropReason::kNone) return;
        telemetry::Counter*& c = drops_[static_cast<std::size_t>(reason)];
        if (c == nullptr) c = &drop_counter(reason);
        c->inc();
    }

    /// Records that a (source, group) flow crossed a segment, for
    /// traffic-concentration measurements (Fig. 2(b) style). The flow gauge
    /// is written only when the segment sees a flow new to this phase.
    void note_flow(int segment_id, net::Ipv4Address source, net::GroupAddress group);

    // ---- control plane ----
    void count_control_message(ControlName name) {
        telemetry::Counter*& c = by_protocol_[static_cast<std::size_t>(name.protocol)];
        if (c == nullptr) c = &protocol_counter(name.protocol);
        c->inc();
    }
    void count_control_on_segment(int segment_id) { count_on_segment(kControl, segment_id); }

    // ---- queries ----
    [[nodiscard]] std::uint64_t data_packets_on(int segment_id) const;
    [[nodiscard]] std::uint64_t total_data_packets() const;
    [[nodiscard]] std::uint64_t data_delivered() const { return data_delivered_->value(); }
    [[nodiscard]] std::uint64_t drops(provenance::DropReason reason) const;
    [[nodiscard]] std::size_t flows_on(int segment_id) const;
    [[nodiscard]] std::size_t max_flows_on_any_segment() const;
    [[nodiscard]] std::size_t segments_carrying_data() const;
    [[nodiscard]] std::uint64_t control_messages(ControlName name) const;
    [[nodiscard]] std::uint64_t total_control_messages() const;

    /// Starts a new measurement phase: zeroes (via counter epochs) all data
    /// counters, drops, per-segment control counts, and flow sets.
    /// Per-protocol control totals are deliberately cumulative (see class
    /// comment).
    void reset_data_counters();

private:
    enum SegmentSeries { kData, kControl };
    struct SegmentSlot {
        std::array<telemetry::Counter*, 2> counters{}; // by SegmentSeries
        telemetry::Gauge* flow_gauge = nullptr;
        std::vector<std::uint64_t> flows; // sorted (source << 32 | group) keys
    };

    SegmentSlot& slot(int segment_id) {
        const auto i = static_cast<std::size_t>(segment_id);
        if (i >= segments_.size()) segments_.resize(i + 1);
        return segments_[i];
    }
    void count_on_segment(SegmentSeries series, int segment_id) {
        telemetry::Counter*& c = slot(segment_id).counters[series];
        if (c == nullptr) c = &segment_counter(series, segment_id);
        c->inc();
    }
    /// The segment's slot, or an empty one for a segment never counted.
    [[nodiscard]] const SegmentSlot& at(int segment_id) const;
    // First-use resolution: after construction, the only calls that touch
    // the registry.
    telemetry::Counter& segment_counter(SegmentSeries series, int segment_id);
    telemetry::Counter& protocol_counter(ControlProtocol protocol);
    telemetry::Counter& drop_counter(provenance::DropReason reason);

    telemetry::Registry* registry_;
    telemetry::Counter* data_delivered_;
    std::vector<SegmentSlot> segments_;
    std::array<telemetry::Counter*, kControlProtocolNames.size()> by_protocol_{};
    std::array<telemetry::Counter*, provenance::kDropReasonCount> drops_{}; // [0] unused
};

} // namespace pimlib::stats
