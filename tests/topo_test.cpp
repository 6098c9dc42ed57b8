// Topology substrate tests: segments, frame delivery semantics, seeded
// segment loss, unicast forwarding, TTL, link failure, address plan, the
// receive table, the control-message send path and its accounting, and the
// zero-copy, allocation-free multicast data path.
#include <gtest/gtest.h>

#include <random>

#include "alloc_count.hpp"
#include "test_util.hpp"
#include "topo/network.hpp"
#include "topo/segment.hpp"
#include "unicast/distance_vector.hpp"
#include "unicast/link_state.hpp"
#include "unicast/oracle_routing.hpp"

namespace pimlib::test {
namespace {

TEST(Network, AddressPlan) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    EXPECT_EQ(r1.router_id(), net::Ipv4Address(192, 168, 0, 1));
    EXPECT_EQ(r2.router_id(), net::Ipv4Address(192, 168, 0, 2));

    auto& link = net.add_link(r1, r2);
    EXPECT_EQ(link.prefix().to_string(), "10.0.0.0/24");
    EXPECT_EQ(r1.interface(0).address, net::Ipv4Address(10, 0, 0, 1));
    EXPECT_EQ(r2.interface(0).address, net::Ipv4Address(10, 0, 0, 2));

    auto& lan = net.add_lan({&r1, &r2});
    EXPECT_EQ(lan.prefix().to_string(), "10.0.1.0/24");
    auto& host = net.add_host("h", lan);
    EXPECT_EQ(host.address(), net::Ipv4Address(10, 0, 1, 3));
    EXPECT_TRUE(lan.is_lan());
    EXPECT_FALSE(link.is_lan());
}

TEST(Network, FindLink) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    auto& r3 = net.add_router("r3");
    auto& link = net.add_link(r1, r2);
    EXPECT_EQ(net.find_link(r1, r2), &link);
    EXPECT_EQ(net.find_link(r2, r1), &link);
    EXPECT_EQ(net.find_link(r1, r3), nullptr);
}

TEST(Segment, UnicastFrameReachesOnlyAddressee) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    auto& r3 = net.add_router("r3");
    auto& lan = net.add_lan({&r1, &r2, &r3});

    int r2_count = 0;
    int r3_count = 0;
    r2.register_protocol(net::IpProto::kCbt, [&](int, const net::Packet&) { ++r2_count; });
    r3.register_protocol(net::IpProto::kCbt, [&](int, const net::Packet&) { ++r3_count; });

    net::Packet p;
    p.src = r1.interface(0).address;
    p.dst = r2.interface(0).address;
    p.proto = net::IpProto::kCbt;
    r1.send(r1.ifindex_on(lan).value(), net::Frame{r2.interface(0).address, p});
    net.simulator().run();
    EXPECT_EQ(r2_count, 1);
    EXPECT_EQ(r3_count, 0);
}

TEST(Segment, BroadcastFrameReachesAllButSender) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    auto& r3 = net.add_router("r3");
    net.add_lan({&r1, &r2, &r3});
    int count = 0;
    auto handler = [&](int, const net::Packet&) { ++count; };
    r1.register_protocol(net::IpProto::kCbt, handler);
    r2.register_protocol(net::IpProto::kCbt, handler);
    r3.register_protocol(net::IpProto::kCbt, handler);

    net::Packet p;
    p.src = r1.interface(0).address;
    p.dst = net::kAllRouters;
    p.proto = net::IpProto::kCbt;
    r1.send(0, net::Frame{std::nullopt, p});
    net.simulator().run();
    EXPECT_EQ(count, 2); // not the sender
}

TEST(Segment, DownSegmentDropsFrames) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    auto& link = net.add_link(r1, r2);
    int count = 0;
    r2.register_protocol(net::IpProto::kCbt, [&](int, const net::Packet&) { ++count; });
    link.set_up(false);
    net::Packet p;
    p.src = r1.interface(0).address;
    p.dst = net::kAllRouters;
    p.proto = net::IpProto::kCbt;
    r1.send(0, net::Frame{std::nullopt, p});
    net.simulator().run();
    EXPECT_EQ(count, 0);
}

TEST(Segment, DownInterfaceDropsAtReceiver) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    net.add_link(r1, r2);
    int count = 0;
    r2.register_protocol(net::IpProto::kCbt, [&](int, const net::Packet&) { ++count; });
    r2.set_interface_up(0, false);
    net::Packet p;
    p.src = r1.interface(0).address;
    p.dst = net::kAllRouters;
    p.proto = net::IpProto::kCbt;
    r1.send(0, net::Frame{std::nullopt, p});
    net.simulator().run();
    EXPECT_EQ(count, 0);
}

TEST(Segment, PropagationDelayApplied) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    net.add_link(r1, r2, 5 * sim::kMillisecond);
    sim::Time arrival = 0;
    r2.register_protocol(net::IpProto::kCbt, [&](int, const net::Packet&) {
        arrival = net.simulator().now();
    });
    net::Packet p;
    p.src = r1.interface(0).address;
    p.dst = net::kAllRouters;
    p.proto = net::IpProto::kCbt;
    r1.send(0, net::Frame{std::nullopt, p});
    net.simulator().run();
    EXPECT_EQ(arrival, 5 * sim::kMillisecond);
}

TEST(Segment, LossPatternFollowsTheDerivedSeedAcrossReseed) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    auto& link = net.add_link(r1, r2);
    link.set_loss_rate(0.5);
    int received = 0;
    r2.register_protocol(net::IpProto::kCbt, [&](int, const net::Packet&) { ++received; });
    net::Packet p;
    p.src = r1.interface(0).address;
    p.dst = net::kAllRouters;
    p.proto = net::IpProto::kCbt;

    // Each frame's fate is one draw of the segment's engine, which must be
    // a std::mt19937 seeded with the segment's derived seed, restarted by
    // Network::set_seed.
    const auto check_stream = [&] {
        const auto id = static_cast<std::uint32_t>(link.id());
        std::mt19937 expected(
            net.derived_seed(id, topo::Network::kSegmentStreamTag + id));
        for (int i = 0; i < 64; ++i) {
            std::uniform_real_distribution<double> coin(0.0, 1.0);
            const bool lost = coin(expected) < 0.5;
            received = 0;
            r1.send(0, net::Frame{std::nullopt, p});
            net.simulator().run();
            EXPECT_EQ(received, lost ? 0 : 1) << "frame " << i;
        }
    };
    check_stream();
    const std::uint64_t lost_before = link.frames_lost();
    EXPECT_GT(lost_before, 0u);
    EXPECT_LT(lost_before, 64u);
    net.set_seed(42);
    check_stream();
    EXPECT_GT(link.frames_lost(), lost_before);
}

TEST(Router, ForwardsUnicastAlongShortestPath) {
    // r1 — r2 — r3; send from r1 to r3's router id.
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    auto& r3 = net.add_router("r3");
    net.add_link(r1, r2);
    net.add_link(r2, r3);
    unicast::OracleRouting routing(net);

    int delivered = 0;
    r3.register_protocol(net::IpProto::kCbt, [&](int, const net::Packet& p) {
        ++delivered;
        EXPECT_EQ(p.ttl, 63); // one forwarding hop at r2
    });
    net::Packet p;
    p.dst = r3.router_id();
    p.proto = net::IpProto::kCbt;
    p.ttl = 64;
    r1.originate_unicast(std::move(p));
    net.simulator().run();
    EXPECT_EQ(delivered, 1);
}

TEST(Router, TtlExpiryDropsPacket) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    auto& r3 = net.add_router("r3");
    net.add_link(r1, r2);
    net.add_link(r2, r3);
    unicast::OracleRouting routing(net);
    int delivered = 0;
    r3.register_protocol(net::IpProto::kCbt, [&](int, const net::Packet&) { ++delivered; });
    net::Packet p;
    p.dst = r3.router_id();
    p.proto = net::IpProto::kCbt;
    p.ttl = 1; // dies at r2
    r1.originate_unicast(std::move(p));
    net.simulator().run();
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(net.stats().drops(provenance::DropReason::kTtl), 1u);
}

TEST(Router, NoRouteDropsAndCounts) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    net.add_link(r1, r2);
    unicast::OracleRouting routing(net);
    net::Packet p;
    p.dst = net::Ipv4Address(203, 0, 113, 7);
    p.proto = net::IpProto::kCbt;
    r1.originate_unicast(std::move(p));
    net.simulator().run();
    EXPECT_EQ(net.stats().drops(provenance::DropReason::kNoRoute), 1u);
}

TEST(Router, LocalAddressRecognition) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    net.add_link(r1, r2);
    EXPECT_TRUE(r1.is_local_address(r1.router_id()));
    EXPECT_TRUE(r1.is_local_address(r1.interface(0).address));
    EXPECT_FALSE(r1.is_local_address(r2.router_id()));
}

TEST(Host, StreamsCarrySequenceNumbers) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& lan = net.add_lan({&r1});
    auto& sender = net.add_host("s", lan);
    auto& listener = net.add_host("l", lan);
    listener.join_group(kGroup);
    sender.send_stream(kGroup, 3, 10 * sim::kMillisecond);
    net.simulator().run();
    ASSERT_EQ(listener.received().size(), 3u);
    EXPECT_EQ(listener.received()[0].seq, 1u);
    EXPECT_EQ(listener.received()[2].seq, 3u);
    EXPECT_EQ(listener.duplicate_count(), 0u);
    EXPECT_EQ(listener.received_count_from(sender.address(), kGroup), 3u);
}

TEST(Host, NonMemberIgnoresData) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& lan = net.add_lan({&r1});
    auto& sender = net.add_host("s", lan);
    auto& listener = net.add_host("l", lan);
    sender.send_data(kGroup);
    net.simulator().run();
    EXPECT_EQ(listener.received().size(), 0u);
}

TEST(Stats, FlowAndPacketAccounting) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& lan = net.add_lan({&r1});
    auto& sender = net.add_host("s", lan);
    sender.send_stream(kGroup, 4, sim::kMillisecond);
    net.simulator().run();
    EXPECT_EQ(net.stats().data_packets_on(lan.id()), 4u);
    EXPECT_EQ(net.stats().flows_on(lan.id()), 1u); // one (source, group) flow
    EXPECT_EQ(net.stats().max_flows_on_any_segment(), 1u);
    EXPECT_EQ(net.stats().total_data_packets(), 4u);
    net.stats().reset_data_counters();
    EXPECT_EQ(net.stats().total_data_packets(), 0u);
}

// A source host, one PIM-DM router, and a LAN of four member hosts. After
// warm-up every forwarding decision, segment delivery and host receive is
// allocation-free: a batch of K packets allocates one payload per packet
// sent, plus the amortized growth of each member's received_ log.
TEST(DataPath, SteadyStateAllocatesOnePayloadPerPacket) {
    topo::Network net;
    auto& r = net.add_router("r");
    auto& src_lan = net.add_lan({&r});
    auto& source = net.add_host("source", src_lan);
    auto& dst_lan = net.add_lan({&r});
    std::vector<topo::Host*> members;
    for (int i = 0; i < 4; ++i) {
        members.push_back(&net.add_host("m" + std::to_string(i), dst_lan));
    }
    unicast::OracleRouting routing(net);
    scenario::PimDmStack stack(net, fast_config());
    for (topo::Host* m : members) stack.host_agent(*m).join(kGroup);
    net.run_for(50 * sim::kMillisecond);

    // 1000 packets 5 us apart: 5 ms, well inside the 100 ms IGMP query and
    // 300 ms hello periods. The warm-up batch grows every pool the counted
    // batch reuses (timer wheel, delivery slots, received_ logs).
    constexpr int kPackets = 1000;
    const sim::Time spacing = 5 * sim::kMicrosecond;
    const sim::Time batch = kPackets * spacing + sim::kMillisecond;
    source.send_stream(kGroup, kPackets, spacing);
    net.run_for(batch);
    ASSERT_EQ(members[0]->received_count(kGroup), std::size_t{kPackets});

    const std::uint64_t control_before = net.stats().total_control_messages();
    source.send_stream(kGroup, kPackets, spacing);
    const std::uint64_t allocs_before = g_alloc_count.load();
    net.run_for(batch);
    const std::uint64_t allocs = g_alloc_count.load() - allocs_before;

    // No control timer fired inside the counted window.
    EXPECT_EQ(net.stats().total_control_messages(), control_before);
    for (topo::Host* m : members) {
        EXPECT_EQ(m->received_count(kGroup), std::size_t{2 * kPackets});
        EXPECT_EQ(m->duplicate_count(), 0u);
    }
    EXPECT_LE(allocs, std::uint64_t{kPackets + 64});
}

// Over two router hops every transmission of one packet carries the same
// payload bytes (one block, shared), while the per-copy header moves on:
// ttl drops by one per router and the provenance id stays put.
TEST(DataPath, ReplicasShareOnePayloadAcrossHops) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    auto& src_lan = net.add_lan({&r1});
    auto& source = net.add_host("source", src_lan);
    net.add_link(r1, r2);
    auto& dst_lan = net.add_lan({&r2});
    auto& member = net.add_host("member", dst_lan);
    unicast::OracleRouting routing(net);
    scenario::PimDmStack stack(net, fast_config());
    stack.host_agent(member).join(kGroup);
    net.run_for(50 * sim::kMillisecond);

    struct Seen {
        int segment;
        const std::uint8_t* bytes;
        std::uint8_t ttl;
        std::uint64_t pid;
    };
    std::vector<Seen> seen;
    net.add_packet_tap([&](const topo::Segment& segment, const net::Frame& frame) {
        if (frame.packet.proto != net::IpProto::kUdp) return;
        seen.push_back(Seen{segment.id(), frame.packet.payload.span().data(),
                            frame.packet.ttl, frame.packet.pid});
    });
    source.send_data(kGroup, 1400);
    net.run_for(10 * sim::kMillisecond);

    ASSERT_EQ(member.received_count(kGroup), 1u);
    ASSERT_EQ(seen.size(), 3u); // source LAN, r1-r2 link, member LAN
    EXPECT_EQ(seen[0].segment, src_lan.id());
    EXPECT_EQ(seen[2].segment, dst_lan.id());
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_NE(seen[i].bytes, nullptr);
        EXPECT_EQ(seen[i].bytes, seen[0].bytes);
        EXPECT_EQ(seen[i].pid, seen[0].pid);
        EXPECT_EQ(seen[i].ttl, 64 - i);
    }
    EXPECT_NE(seen[0].pid, 0u);
}

// IGMP and OSPF multiplex message types on one protocol number: their
// receivers are keyed by the first payload byte too, so two agents sharing
// the number each get only their own types. Other protocols match on the
// number alone, and registering a key again replaces its handler.
TEST(Router, ReceiveTableKeysMultiplexedProtocolsByType) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    net.add_link(r1, r2);
    std::vector<std::string> got;
    auto record = [&](std::string who) {
        return [&got, who](int, const net::Packet&) { got.push_back(who); };
    };
    r2.register_protocol(net::IpProto::kOspf, 1, record("hello"));
    r2.register_protocol(net::IpProto::kOspf, 3, record("mospf"));
    r2.register_protocol(net::IpProto::kCbt, record("cbt-old"));
    r2.register_protocol(net::IpProto::kCbt, record("cbt"));

    r1.send_control(0, net::kAllRouters, net::IpProto::kOspf, "ls-hello", {3, 0});
    r1.send_control(0, net::kAllRouters, net::IpProto::kOspf, "ls-hello", {1, 0});
    r1.send_control(0, net::kAllRouters, net::IpProto::kOspf, "ls-lsa", {2, 0});
    r1.send_control(0, net::kAllRouters, net::IpProto::kCbt, "cbt", {9});
    r1.send_control(0, net::kAllRouters, net::IpProto::kIgmp, "igmp", {0x11});
    net.simulator().run();
    EXPECT_EQ(got, (std::vector<std::string>{"mospf", "hello", "cbt"}));
}

// send_control frames one TTL-1 packet from the interface's address, sets
// the link-layer destination only for a unicast `dst`, and counts it once
// under its name, also when the interface is down and nothing leaves.
TEST(ControlSend, FramesCountsAndSendsOnce) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    auto& r3 = net.add_router("r3");
    net.add_lan({&r1, &r2, &r3});
    std::vector<net::Frame> tapped;
    net.add_packet_tap(
        [&](const topo::Segment&, const net::Frame& frame) { tapped.push_back(frame); });
    int r2_count = 0;
    int r3_count = 0;
    r2.register_protocol(net::IpProto::kCbt, [&](int, const net::Packet&) { ++r2_count; });
    r3.register_protocol(net::IpProto::kCbt, [&](int, const net::Packet&) { ++r3_count; });

    r1.send_control(0, net::kAllRouters, net::IpProto::kIgmp, "pim", {0x14, 0});
    ASSERT_EQ(tapped.size(), 1u);
    EXPECT_FALSE(tapped[0].link_dst.has_value());
    EXPECT_EQ(tapped[0].packet.src, r1.interface(0).address);
    EXPECT_EQ(tapped[0].packet.dst, net::kAllRouters);
    EXPECT_EQ(tapped[0].packet.proto, net::IpProto::kIgmp);
    EXPECT_EQ(tapped[0].packet.ttl, 1);
    EXPECT_EQ(net.stats().control_messages("pim"), 1u);

    const net::Ipv4Address to = r2.interface(0).address;
    r1.send_control(0, to, net::IpProto::kCbt, "cbt", {4});
    ASSERT_EQ(tapped.size(), 2u);
    ASSERT_TRUE(tapped[1].link_dst.has_value());
    EXPECT_EQ(*tapped[1].link_dst, to);
    EXPECT_EQ(tapped[1].packet.dst, to);
    EXPECT_EQ(tapped[1].packet.ttl, 1);
    net.simulator().run();
    EXPECT_EQ(r2_count, 1);
    EXPECT_EQ(r3_count, 0);
    EXPECT_EQ(net.stats().control_messages("cbt"), 1u);

    r1.set_interface_up(0, false);
    r1.send_control(0, net::kAllSystems, net::IpProto::kIgmp, "igmp", {0x11});
    EXPECT_EQ(tapped.size(), 2u);
    EXPECT_EQ(net.stats().control_messages("igmp"), 1u);
    EXPECT_EQ(net.stats().total_control_messages(), 3u);
}

// flood_control sends on every interface that is up, has a segment and is
// not excluded; the interfaces it skips neither send nor count.
TEST(ControlSend, FloodSkipsDownSegmentlessAndExcludedInterfaces) {
    topo::Network net;
    auto& r = net.add_router("r");
    std::vector<topo::Segment*> links;
    for (int i = 0; i < 4; ++i) {
        links.push_back(&net.add_link(r, net.add_router("n" + std::to_string(i))));
    }
    std::vector<int> tapped_on;
    net.add_packet_tap([&](const topo::Segment& segment, const net::Frame& frame) {
        EXPECT_EQ(frame.packet.src, r.interface(*r.ifindex_on(segment)).address);
        tapped_on.push_back(segment.id());
    });
    r.set_interface_up(2, false);
    r.interface(3).segment = nullptr;

    r.flood_control(net::kAllRouters, net::IpProto::kIgmp, "pim-bootstrap", {0x14, 4},
                    /*except_ifindex=*/1);
    EXPECT_EQ(tapped_on, std::vector<int>{links[0]->id()});
    EXPECT_EQ(net.stats().control_messages("pim-bootstrap"), 1u);

    r.flood_control(net::kAllRouters, net::IpProto::kIgmp, "pim-bootstrap", {0x14, 4});
    EXPECT_EQ(tapped_on, (std::vector<int>{links[0]->id(), links[0]->id(), links[1]->id()}));
    EXPECT_EQ(net.stats().control_messages("pim-bootstrap"), 3u);
}

// A flood encodes its message once: every copy of B's first PIM hello (one
// per link: A, C and D) carries the same payload block.
TEST(ControlSend, FloodSharesOnePayloadAcrossInterfaces) {
    Fig3Topology topo;
    std::vector<const std::uint8_t*> hellos;
    topo.net.add_packet_tap([&](const topo::Segment&, const net::Frame& frame) {
        const net::Packet& p = frame.packet;
        if (p.proto != net::IpProto::kIgmp || !topo.b->owns_address(p.src)) return;
        if (p.payload.size() < 2 || p.payload[0] != igmp::kTypePim ||
            p.payload[1] != static_cast<std::uint8_t>(pim::Code::kQuery)) {
            return;
        }
        hellos.push_back(p.payload.span().data());
    });
    const scenario::PimSmStack stack(topo.net, fast_config());
    topo.net.run_for(sim::kMillisecond);
    ASSERT_EQ(hellos.size(), 3u);
    EXPECT_NE(hellos[0], nullptr);
    EXPECT_EQ(hellos[1], hellos[0]);
    EXPECT_EQ(hellos[2], hellos[0]);
}

// Every link-local control message is counted exactly once where it is
// sent: on an all-up network, under every stack and over both routing
// protocols, the control counts (less the two routed kinds, Register and
// C-RP-Adv) equal the TTL-1 control frames the segments carried.
TEST(ControlSend, CountsEqualLinkLocalControlFramesOnTheWire) {
    enum class Routing { kLinkState, kDistanceVector };
    for (const Routing routing : {Routing::kLinkState, Routing::kDistanceVector}) {
        for (const auto& [protocol, make] : scenario::kStackProtocols) {
            SCOPED_TRACE(std::string(protocol) +
                         (routing == Routing::kLinkState ? " over LS" : " over DV"));
            // receiver — LAN — A — B — C, B — D — LAN — source, plus a
            // transit LAN joining A, C and D.
            topo::Network net;
            auto& a = net.add_router("A");
            auto& b = net.add_router("B");
            auto& c = net.add_router("C");
            auto& d = net.add_router("D");
            auto& receiver = net.add_host("receiver", net.add_lan({&a}));
            net.add_link(a, b);
            net.add_link(b, c);
            net.add_link(b, d);
            net.add_lan({&a, &c, &d});
            auto& source = net.add_host("source", net.add_lan({&d}));

            std::uint64_t frames = 0;
            net.add_packet_tap([&](const topo::Segment&, const net::Frame& frame) {
                if (frame.packet.ttl == 1 && frame.packet.proto != net::IpProto::kUdp) ++frames;
            });
            std::unique_ptr<unicast::LsRoutingDomain> ls;
            std::unique_ptr<unicast::DvRoutingDomain> dv;
            if (routing == Routing::kLinkState) {
                unicast::LsConfig cfg;
                cfg.hello_interval = 50 * sim::kMillisecond;
                cfg.dead_interval = 150 * sim::kMillisecond;
                cfg.lsa_refresh = 300 * sim::kMillisecond;
                cfg.lsa_max_age = 900 * sim::kMillisecond;
                cfg.spf_delay = 5 * sim::kMillisecond;
                ls = std::make_unique<unicast::LsRoutingDomain>(net, cfg);
            } else {
                unicast::DvConfig cfg;
                cfg.update_interval = 100 * sim::kMillisecond;
                cfg.route_timeout = 300 * sim::kMillisecond;
                cfg.gc_delay = 200 * sim::kMillisecond;
                cfg.triggered_delay = 5 * sim::kMillisecond;
                dv = std::make_unique<unicast::DvRoutingDomain>(net, cfg);
            }
            const auto stack = make(net, fast_config());
            stack->set_rp(kGroup, {b.router_id()});
            net.run_for(sim::kSecond);
            stack->host_agent(receiver).join(kGroup);
            net.run_for(300 * sim::kMillisecond);
            source.send_stream(kGroup, 5, 20 * sim::kMillisecond);
            net.run_for(sim::kSecond);

            const stats::NetworkStats& st = net.stats();
            const std::uint64_t counted = st.total_control_messages() -
                                          st.control_messages("pim-register") -
                                          st.control_messages("pim-crp-adv");
            EXPECT_GT(frames, 0u);
            EXPECT_EQ(counted, frames);
        }
    }
}

} // namespace
} // namespace pimlib::test
