// Shared helpers for protocol tests: canonical topologies from the paper's
// figures and a uniformly time-compressed stack configuration.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "check/scenario.hpp"
#include "pim/messages.hpp"
#include "scenario/script.hpp"
#include "scenario/stacks.hpp"
#include "topo/builder.hpp"
#include "topo/network.hpp"
#include "unicast/oracle_routing.hpp"

namespace pimlib::test {

inline const net::GroupAddress kGroup{net::Ipv4Address(224, 1, 1, 1)};

/// All protocol timers compressed 100×: PIM join/prune refresh 600 ms,
/// holdtime 1.8 s, IGMP query 100 ms, etc. Simulated seconds stay cheap.
inline scenario::StackConfig fast_config() {
    scenario::StackConfig cfg;
    cfg.igmp.query_interval = 10 * sim::kSecond;
    cfg.igmp.membership_timeout = 25 * sim::kSecond;
    cfg.igmp.other_querier_timeout = 25 * sim::kSecond;
    cfg.host.query_response_max = 1 * sim::kSecond;
    return cfg.scaled(0.01);
}

/// The topology of the paper's Figures 3–5:
///
///   receiver host — LAN0 — A — B — C (the RP)
///                              |
///                              D — LAN1 — source host
///
/// A's path to the RP runs A→B→C; A's path to the source runs A→B→D, so B
/// is the divergence point between the shared tree and the SPT (§3.3).
struct Fig3Topology {
    topo::Network net;
    topo::Router* a = nullptr;
    topo::Router* b = nullptr;
    topo::Router* c = nullptr; // RP
    topo::Router* d = nullptr;
    topo::Host* receiver = nullptr;
    topo::Host* source = nullptr;
    std::unique_ptr<unicast::OracleRouting> routing;

    Fig3Topology() {
        a = &net.add_router("A");
        b = &net.add_router("B");
        c = &net.add_router("C");
        d = &net.add_router("D");
        auto& lan0 = net.add_lan({a});
        receiver = &net.add_host("receiver", lan0);
        net.add_link(*a, *b);
        net.add_link(*b, *c);
        net.add_link(*b, *d);
        auto& lan1 = net.add_lan({d});
        source = &net.add_host("source", lan1);
        routing = std::make_unique<unicast::OracleRouting>(net);
    }

    /// Interface index of `from` on the segment shared with `to`.
    [[nodiscard]] int ifindex_toward(const topo::Router& from, const topo::Router& to) {
        topo::Segment* link = net.find_link(from, to);
        return link == nullptr ? -1 : from.ifindex_on(*link).value_or(-1);
    }
};

/// `entry`'s interfaces alive at `now`, in ifindex order.
inline std::vector<int> live_oifs(const mcast::ForwardingEntry& entry, sim::Time now) {
    std::vector<int> out;
    entry.for_each_live_oif(now, [&](int oif) { out.push_back(oif); });
    return out;
}

/// `set`'s RP list for `group`, copied out for comparison.
inline std::vector<net::Ipv4Address> rps_of(const pim::RpSet& set, net::GroupAddress group) {
    const pim::RpList rps = set.rps_for(group);
    return {rps.begin(), rps.end()};
}

/// Delivers a crafted PIM packet to `router` as if it arrived on `ifindex`
/// from link-layer neighbor `from`.
inline void inject_pim(topo::Router& router, int ifindex, net::Ipv4Address from,
                       std::vector<std::uint8_t> payload) {
    net::Packet packet;
    packet.src = from;
    packet.dst = net::kAllRouters;
    packet.proto = net::IpProto::kIgmp;
    packet.ttl = 1;
    packet.payload = std::move(payload);
    router.receive(ifindex, packet);
}

/// An encoded Join/Prune to `upstream` carrying `records`.
inline std::vector<std::uint8_t> join_prune(
    net::Ipv4Address upstream, std::vector<pim::JoinPruneBundle::GroupRecord> records) {
    pim::JoinPruneBundle msg;
    msg.upstream_neighbor = upstream;
    msg.holdtime_ms = 1800;
    msg.groups = std::move(records);
    return msg.encode();
}

/// A one-record Join/Prune re-laid-out as the retired single-group format:
/// code 2 and no group count, otherwise the same bytes.
inline std::vector<std::uint8_t> as_retired_code(std::vector<std::uint8_t> bytes) {
    bytes[1] = 2;
    bytes.erase(bytes.begin() + 10, bytes.begin() + 12); // the group count
    return bytes;
}

/// The checker's walkthrough pentagon, built from the topology block of
/// src/check/scenarios/walkthrough.pimsim: receiver behind A, source behind
/// B, viewer behind D; the script's RP is C. A reaches the source via E-B
/// (21 ms) but C directly (1 ms), so the SPT diverges from the shared tree
/// and the switchover has a real ~20 ms in-flight window. Routers and hosts
/// are found by name through `builder`.
struct WalkthroughPentagon {
    topo::Network net;
    topo::TopologyBuilder builder = topo::TopologyBuilder::parse(
        net, scenario::parse_script(check::scenario_script("walkthrough")).topology);
    unicast::OracleRouting routing{net};
};

} // namespace pimlib::test
