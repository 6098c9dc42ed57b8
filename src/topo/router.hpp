// A simulated router: demultiplexes received packets to protocol handlers,
// forwards unicast packets via a pluggable route-lookup interface, and hands
// multicast data to the registered multicast data plane.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "topo/node.hpp"

namespace pimlib::topo {

/// Result of a unicast route lookup.
struct RouteLookupResult {
    int ifindex = -1;
    net::Ipv4Address next_hop; // unspecified => destination is on-link
    int metric = 0;
};

/// Pluggable unicast forwarding/RPF lookup. Implemented by unicast::Rib;
/// this interface is what makes the multicast protocols
/// "protocol independent" — they never see how routes were computed.
class UnicastLookup {
public:
    virtual ~UnicastLookup() = default;
    [[nodiscard]] virtual std::optional<RouteLookupResult> lookup(net::Ipv4Address dst) const = 0;

    /// Route-change subscription (§3.8 of the paper: PIM re-homes its trees
    /// when unicast routing changes). Providers that never change routes may
    /// keep the default no-op implementation.
    virtual int subscribe_changes(std::function<void()> observer) {
        (void)observer;
        return 0;
    }
    virtual void unsubscribe_changes(int token) { (void)token; }
};

/// Receiver of multicast data packets (non-link-local class-D destinations).
/// Implemented by mcast::DataPlane.
class MulticastDataHandler {
public:
    virtual ~MulticastDataHandler() = default;
    virtual void on_multicast_data(int ifindex, const net::Packet& packet) = 0;
};

class Router : public Node {
public:
    Router(Network& network, std::string name, int id, net::Ipv4Address router_id);

    void receive(int ifindex, const net::Packet& packet) override;

    /// Sends a locally originated unicast packet (consults the route table).
    void originate_unicast(net::Packet packet);

    /// Registers the handler for packets of `proto` delivered to this
    /// router. Registering a key again replaces its handler.
    using PacketHandler = std::function<void(int ifindex, const net::Packet&)>;
    void register_protocol(net::IpProto proto, PacketHandler handler);
    /// The same for the two protocols that multiplex message types on one
    /// number, keyed by (protocol, first payload byte): IGMP, which the 1994
    /// family (IGMP itself, PIM, DVMRP) shares, and OSPF, which carries
    /// link-state hellos and LSAs beside MOSPF's membership LSAs.
    void register_protocol(net::IpProto proto, std::uint8_t type, PacketHandler handler);

    void set_unicast(UnicastLookup* lookup) { unicast_ = lookup; }
    [[nodiscard]] UnicastLookup* unicast() const { return unicast_; }
    void set_multicast_handler(MulticastDataHandler* handler) { mcast_ = handler; }

    /// The router's stable identifier address (a /32 advertised into unicast
    /// routing; used as the RP address when this router is an RP).
    [[nodiscard]] net::Ipv4Address router_id() const { return router_id_; }

    /// True if `addr` is any interface address or the router id.
    [[nodiscard]] bool is_local_address(net::Ipv4Address addr) const;

    /// Unicast route lookup convenience; nullopt when no route.
    [[nodiscard]] std::optional<RouteLookupResult> route_to(net::Ipv4Address dst) const;

    /// RPF helper: the interface this router would use to send toward
    /// `source` (i.e. the expected incoming interface for packets from it).
    [[nodiscard]] std::optional<int> rpf_interface(net::Ipv4Address source) const;

private:
    void forward_unicast(net::Packet packet);
    void deliver_local(int ifindex, const net::Packet& packet);

    net::Ipv4Address router_id_;
    UnicastLookup* unicast_ = nullptr;
    MulticastDataHandler* mcast_ = nullptr;
    /// The receive table: a few entries per router, scanned per delivery.
    struct Receiver {
        net::IpProto proto;
        int type; // first payload byte, or -1 for a protocol that is not multiplexed
        PacketHandler handler;
    };
    void add_receiver(net::IpProto proto, int type, PacketHandler handler);
    std::vector<Receiver> receivers_;
};

} // namespace pimlib::topo
