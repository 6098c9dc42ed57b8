#include "topo/router.hpp"

#include "provenance/provenance.hpp"
#include "topo/network.hpp"
#include "topo/segment.hpp"

namespace pimlib::topo {
namespace {

/// Counts a unicast leg's drop. The leg matters to provenance only when the
/// packet carries a pid — i.e. it is (or encapsulates) a traced data
/// packet, like a PIM Register tunnelling toward the RP.
void record_unicast_leg(Network& network, const Router& router, const net::Packet& packet,
                        int oif, provenance::DropReason drop) {
    network.stats().count_drop(drop);
    provenance::HopRecord* hop = network.begin_hop(router, packet);
    if (hop == nullptr) return;
    hop->kind = provenance::EntryKind::kUnicast;
    hop->drop = drop;
    if (drop == provenance::DropReason::kNone && oif >= 0) hop->add_oif(oif);
}

/// IGMP and OSPF receivers are keyed by the first payload byte too.
bool is_multiplexed(net::IpProto proto) {
    return proto == net::IpProto::kIgmp || proto == net::IpProto::kOspf;
}

} // namespace

Router::Router(Network& network, std::string name, int id, net::Ipv4Address router_id)
    : Node(network, std::move(name), id), router_id_(router_id) {}

bool Router::is_local_address(net::Ipv4Address addr) const {
    return addr == router_id_ || owns_address(addr);
}

std::optional<RouteLookupResult> Router::route_to(net::Ipv4Address dst) const {
    if (unicast_ == nullptr) return std::nullopt;
    return unicast_->lookup(dst);
}

std::optional<int> Router::rpf_interface(net::Ipv4Address source) const {
    auto route = route_to(source);
    if (!route) return std::nullopt;
    return route->ifindex;
}

void Router::register_protocol(net::IpProto proto, PacketHandler handler) {
    add_receiver(proto, -1, std::move(handler));
}

void Router::register_protocol(net::IpProto proto, std::uint8_t type, PacketHandler handler) {
    add_receiver(proto, type, std::move(handler));
}

void Router::add_receiver(net::IpProto proto, int type, PacketHandler handler) {
    for (Receiver& r : receivers_) {
        if (r.proto == proto && r.type == type) {
            r.handler = std::move(handler);
            return;
        }
    }
    receivers_.push_back(Receiver{proto, type, std::move(handler)});
}

void Router::receive(int ifindex, const net::Packet& packet) {
    if (packet.dst.is_multicast()) {
        if (packet.dst.is_link_local_multicast() || packet.proto != net::IpProto::kUdp) {
            // Link-local control, and control protocols multicasting on a
            // LAN (e.g. IGMP reports addressed to the group itself): local
            // delivery only, never forwarded.
            deliver_local(ifindex, packet);
            return;
        }
        // Wide-area multicast: the multicast routing protocol's data plane
        // decides forwarding *and* local delivery (e.g. an RP consuming data
        // to learn of sources).
        if (mcast_ != nullptr) mcast_->on_multicast_data(ifindex, packet);
        return;
    }
    if (is_local_address(packet.dst)) {
        deliver_local(ifindex, packet);
        return;
    }
    forward_unicast(packet);
}

void Router::deliver_local(int ifindex, const net::Packet& packet) {
    int type = -1;
    if (is_multiplexed(packet.proto)) {
        if (packet.payload.empty()) return;
        type = packet.payload.front();
    }
    for (const Receiver& r : receivers_) {
        if (r.proto == packet.proto && r.type == type) {
            r.handler(ifindex, packet);
            return;
        }
    }
}

void Router::forward_unicast(net::Packet packet) {
    if (packet.ttl <= 1) {
        record_unicast_leg(*network_, *this, packet, -1, provenance::DropReason::kTtl);
        return;
    }
    packet.ttl -= 1;
    auto route = route_to(packet.dst);
    if (!route) {
        record_unicast_leg(*network_, *this, packet, -1, provenance::DropReason::kNoRoute);
        return;
    }
    record_unicast_leg(*network_, *this, packet, route->ifindex,
                       provenance::DropReason::kNone);
    const net::Ipv4Address hop = route->next_hop.is_unspecified() ? packet.dst : route->next_hop;
    send(route->ifindex, net::Frame{hop, std::move(packet)});
}

void Router::originate_unicast(net::Packet packet) {
    if (is_local_address(packet.dst)) {
        // Local loopback (e.g. a router registering with itself as RP).
        deliver_local(/*ifindex=*/-1, packet);
        return;
    }
    auto route = route_to(packet.dst);
    if (!route) {
        record_unicast_leg(*network_, *this, packet, -1, provenance::DropReason::kNoRoute);
        return;
    }
    if (packet.src.is_unspecified()) packet.src = interface(route->ifindex).address;
    const net::Ipv4Address hop = route->next_hop.is_unspecified() ? packet.dst : route->next_hop;
    send(route->ifindex, net::Frame{hop, std::move(packet)});
}

} // namespace pimlib::topo
