#include "topo/node.hpp"

#include "topo/network.hpp"
#include "topo/segment.hpp"

namespace pimlib::topo {

Node::Node(Network& network, std::string name, int id)
    : network_(&network), name_(std::move(name)), id_(id) {}

int Node::attach(Segment& segment, net::Ipv4Address address) {
    const int ifindex = static_cast<int>(interfaces_.size());
    interfaces_.push_back(Interface{ifindex, address, &segment, true});
    segment.add_attachment(*this, ifindex);
    return ifindex;
}

void Node::send(int ifindex, const net::Frame& frame) {
    const Interface& iface = interface(ifindex);
    if (!iface.up || iface.segment == nullptr) return;
    iface.segment->transmit(*this, frame);
}

void Node::send_control(int ifindex, net::Ipv4Address dst, net::IpProto proto,
                        stats::ControlName name, net::Payload payload) {
    net::Frame frame;
    if (!dst.is_multicast()) frame.link_dst = dst;
    frame.packet.src = interface(ifindex).address;
    frame.packet.dst = dst;
    frame.packet.proto = proto;
    frame.packet.ttl = 1;
    frame.packet.payload = std::move(payload);
    network_->stats().count_control_message(name);
    send(ifindex, frame);
}

void Node::flood_control(net::Ipv4Address dst, net::IpProto proto, stats::ControlName name,
                         const net::Payload& payload, int except_ifindex) {
    for (const Interface& iface : interfaces_) {
        if (!iface.up || iface.segment == nullptr || iface.ifindex == except_ifindex) continue;
        send_control(iface.ifindex, dst, proto, name, payload);
    }
}

bool Node::owns_address(net::Ipv4Address addr) const {
    for (const Interface& iface : interfaces_) {
        if (iface.address == addr) return true;
    }
    return false;
}

std::optional<int> Node::ifindex_on(const Segment& segment) const {
    for (const Interface& iface : interfaces_) {
        if (iface.segment == &segment) return iface.ifindex;
    }
    return std::nullopt;
}

void Node::set_interface_up(int ifindex, bool up) {
    Interface& iface = interface(ifindex);
    if (iface.up == up) return;
    iface.up = up;
    network_->notify_topology_changed();
}

sim::Simulator& Node::simulator() { return network_->simulator(); }

} // namespace pimlib::topo
