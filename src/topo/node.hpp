// Base class for simulated nodes (routers and hosts) and their interfaces.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "stats/counters.hpp"

namespace pimlib::topo {

class Network;
class Segment;

/// A network interface: an attachment point of a node to a segment.
struct Interface {
    int ifindex = -1;
    net::Ipv4Address address;
    Segment* segment = nullptr;
    bool up = true;
};

/// Abstract simulated node. Subclasses implement receive(); send() hands a
/// frame to the attached segment, which schedules delivery at the far end(s).
class Node {
public:
    Node(Network& network, std::string name, int id);
    virtual ~Node() = default;

    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    /// Called by Segment when a frame arrives on `ifindex`.
    virtual void receive(int ifindex, const net::Packet& packet) = 0;

    /// Attaches this node to `segment` with the given address; returns the
    /// new interface index.
    int attach(Segment& segment, net::Ipv4Address address);

    /// Sends a frame out of `ifindex`. Drops silently if the interface or
    /// segment is down (the caller finds out through soft-state timeouts,
    /// exactly as a real router would).
    void send(int ifindex, const net::Frame& frame);

    /// The one send path for link-local control: frames `payload` from
    /// `ifindex`'s address to `dst` with TTL 1 (link-layer addressed to
    /// `dst` when it is unicast), counts it once under `name` and sends it.
    /// The count stands even when the interface is down and send() drops
    /// the frame.
    void send_control(int ifindex, net::Ipv4Address dst, net::IpProto proto,
                      stats::ControlName name, net::Payload payload);
    /// send_control() of one shared `payload` on every interface that is up,
    /// has a segment and is not `except_ifindex`; skipped interfaces count
    /// nothing.
    void flood_control(net::Ipv4Address dst, net::IpProto proto, stats::ControlName name,
                       const net::Payload& payload, int except_ifindex = -1);

    [[nodiscard]] const std::vector<Interface>& interfaces() const { return interfaces_; }
    [[nodiscard]] Interface& interface(int ifindex) { return interfaces_.at(static_cast<std::size_t>(ifindex)); }
    [[nodiscard]] const Interface& interface(int ifindex) const { return interfaces_.at(static_cast<std::size_t>(ifindex)); }
    [[nodiscard]] int interface_count() const { return static_cast<int>(interfaces_.size()); }

    /// True if `addr` is the address of one of this node's interfaces.
    [[nodiscard]] bool owns_address(net::Ipv4Address addr) const;
    /// Interface index whose segment is `segment`, if any.
    [[nodiscard]] std::optional<int> ifindex_on(const Segment& segment) const;

    void set_interface_up(int ifindex, bool up);

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] int id() const { return id_; }
    [[nodiscard]] Network& network() { return *network_; }
    [[nodiscard]] const Network& network() const { return *network_; }
    sim::Simulator& simulator();

protected:
    Network* network_;

private:
    std::string name_;
    int id_;
    std::vector<Interface> interfaces_;
};

/// Orders node pointers by creation id instead of heap address. Every
/// long-lived container keyed by a topology pointer must use this
/// comparator: heap addresses drift with the process's allocation history,
/// so address-ordered iteration makes a nominally deterministic run depend
/// on how many simulations ran before it in the same process — replayed
/// counterexamples then fail to reproduce.
struct NodeIdLess {
    bool operator()(const Node* a, const Node* b) const {
        return a->id() < b->id();
    }
};

} // namespace pimlib::topo
