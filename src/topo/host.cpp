#include "topo/host.hpp"

#include <set>
#include <tuple>

#include "provenance/provenance.hpp"
#include "telemetry/profiler/profiler.hpp"
#include "topo/network.hpp"

namespace pimlib::topo {
namespace {

/// Host-side provenance records bracket every trace: kOrigin when the
/// source puts the packet on its LAN, kDeliver when a member consumes it.
void record_endpoint(Network& network, const Host& host, const net::Packet& packet,
                     provenance::EntryKind kind) {
    provenance::HopRecord* hop = network.begin_hop(host, packet);
    if (hop == nullptr) return;
    hop->kind = kind;
}

} // namespace

Host::Host(Network& network, std::string name, int id)
    : Node(network, std::move(name), id) {}

void Host::receive(int ifindex, const net::Packet& packet) {
    PROF_ZONE("host.receive");
    if (packet.proto == net::IpProto::kUdp && packet.dst.is_multicast() &&
        !packet.dst.is_link_local_multicast()) {
        const net::GroupAddress group{packet.dst};
        if (is_member(group)) {
            received_.push_back(ReceivedRecord{packet.src, group, packet.seq,
                                               network_->simulator().now()});
            network_->stats().count_data_delivered();
            // The group's name is built only when a span could close on it.
            telemetry::Hub& hub = network_->telemetry();
            if (hub.closes_spans_on_delivery()) hub.on_data_delivered(name(), group.to_string());
            record_endpoint(*network_, *this, packet, provenance::EntryKind::kDeliver);
            if (data_observer_) data_observer_(received_.back());
        }
        return;
    }
    if (control_handler_) control_handler_(ifindex, packet);
}

void Host::send_data(net::GroupAddress group, std::size_t payload_size) {
    PROF_ZONE("host.send");
    net::Packet packet;
    packet.src = address();
    packet.dst = group.address();
    packet.proto = net::IpProto::kUdp;
    packet.ttl = 64;
    packet.payload.assign(payload_size, 0xAB);
    packet.seq = ++next_seq_[group.address().to_uint()];
    packet.pid = provenance::packet_id(packet.src, packet.dst, packet.seq);
    record_endpoint(*network_, *this, packet, provenance::EntryKind::kOrigin);
    send(0, net::Frame{std::nullopt, std::move(packet)});
}

void Host::send_stream(net::GroupAddress group, int count, sim::Time interval,
                       sim::Time start) {
    for (int i = 0; i < count; ++i) {
        simulator().schedule(start + i * interval, [this, group] { send_data(group); });
    }
}

std::size_t Host::received_count(net::GroupAddress group) const {
    std::size_t n = 0;
    for (const auto& rec : received_) {
        if (rec.group == group) ++n;
    }
    return n;
}

std::size_t Host::received_count_from(net::Ipv4Address source, net::GroupAddress group) const {
    std::size_t n = 0;
    for (const auto& rec : received_) {
        if (rec.group == group && rec.source == source) ++n;
    }
    return n;
}

std::size_t Host::duplicate_count() const {
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> seen;
    std::size_t dups = 0;
    for (const auto& rec : received_) {
        auto key = std::make_tuple(rec.source.to_uint(), rec.group.address().to_uint(), rec.seq);
        if (!seen.insert(key).second) ++dups;
    }
    return dups;
}

} // namespace pimlib::topo
