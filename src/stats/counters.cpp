#include "stats/counters.hpp"

#include <algorithm>
#include <string>

namespace pimlib::stats {
namespace {
// A series nobody has counted into yet has no handle and reads 0.
std::uint64_t value_or_zero(const telemetry::Counter* c) { return c != nullptr ? c->value() : 0; }
} // namespace

NetworkStats::NetworkStats(telemetry::Registry& registry)
    : registry_(&registry),
      data_delivered_(&registry.counter("pimlib_data_delivered_total", {},
                                        "Data packets delivered to member hosts")) {}

telemetry::Counter& NetworkStats::segment_counter(SegmentSeries series, int segment_id) {
    const telemetry::LabelSet labels{{"segment", std::to_string(segment_id)}};
    return series == kData ? registry_->counter("pimlib_data_segment_packets_total", labels,
                                                "Data packets carried, per segment")
                           : registry_->counter("pimlib_control_segment_messages_total",
                                                labels, "Control messages carried, per segment");
}

telemetry::Counter& NetworkStats::protocol_counter(ControlProtocol protocol) {
    const std::string_view name = kControlProtocolNames[static_cast<std::size_t>(protocol)];
    return registry_->counter("pimlib_control_messages_total",
                              {{"protocol", std::string(name)}},
                              "Control messages processed, per protocol");
}

telemetry::Counter& NetworkStats::drop_counter(provenance::DropReason reason) {
    return registry_->counter("pimlib_data_dropped_total",
                              {{"reason", provenance::drop_reason_label(reason)}},
                              "Data packets discarded, by typed DropReason");
}

void NetworkStats::note_flow(int segment_id, net::Ipv4Address source,
                             net::GroupAddress group) {
    SegmentSlot& s = slot(segment_id);
    const std::uint64_t key =
        (std::uint64_t{source.to_uint()} << 32) | group.address().to_uint();
    const auto it = std::lower_bound(s.flows.begin(), s.flows.end(), key);
    if (it != s.flows.end() && *it == key) return;
    s.flows.insert(it, key);
    if (s.flow_gauge == nullptr) {
        s.flow_gauge = &registry_->gauge(
            "pimlib_data_segment_flows", {{"segment", std::to_string(segment_id)}},
            "Distinct (source, group) flows seen on a segment this phase");
    }
    s.flow_gauge->set(static_cast<double>(s.flows.size()));
}

const NetworkStats::SegmentSlot& NetworkStats::at(int segment_id) const {
    static const SegmentSlot kUncounted;
    const auto i = static_cast<std::size_t>(segment_id);
    return i < segments_.size() ? segments_[i] : kUncounted;
}

std::uint64_t NetworkStats::data_packets_on(int segment_id) const {
    return value_or_zero(at(segment_id).counters[kData]);
}

std::uint64_t NetworkStats::total_data_packets() const {
    std::uint64_t total = 0;
    for (const SegmentSlot& s : segments_) total += value_or_zero(s.counters[kData]);
    return total;
}

std::size_t NetworkStats::flows_on(int segment_id) const {
    return at(segment_id).flows.size();
}

std::size_t NetworkStats::max_flows_on_any_segment() const {
    std::size_t best = 0;
    for (const SegmentSlot& s : segments_) best = std::max(best, s.flows.size());
    return best;
}

std::size_t NetworkStats::segments_carrying_data() const {
    std::size_t n = 0;
    for (const SegmentSlot& s : segments_) n += value_or_zero(s.counters[kData]) > 0 ? 1 : 0;
    return n;
}

std::uint64_t NetworkStats::control_messages(ControlName name) const {
    return value_or_zero(by_protocol_[static_cast<std::size_t>(name.protocol)]);
}

std::uint64_t NetworkStats::drops(provenance::DropReason reason) const {
    return value_or_zero(drops_[static_cast<std::size_t>(reason)]);
}

std::uint64_t NetworkStats::total_control_messages() const {
    std::uint64_t total = 0;
    for (const telemetry::Counter* c : by_protocol_) total += value_or_zero(c);
    return total;
}

void NetworkStats::reset_data_counters() {
    data_delivered_->begin_epoch();
    for (telemetry::Counter* c : drops_) {
        if (c != nullptr) c->begin_epoch();
    }
    for (SegmentSlot& s : segments_) {
        for (telemetry::Counter* c : s.counters) {
            if (c != nullptr) c->begin_epoch();
        }
        s.flows.clear();
        if (s.flow_gauge != nullptr) s.flow_gauge->set(0);
    }
}

} // namespace pimlib::stats
